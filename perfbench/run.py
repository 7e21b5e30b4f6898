"""Benchmark command for sentattn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere; it benchmarks the package in the `src/` directory next
to this one, importing nothing else of the repository. One run is one
process with one client in a closed loop. OpenBLAS is held to one thread.
Workloads and phases are described in `workloads.py`.

With --trace 0 the run measures the end-to-end metrics. With --trace 1 it
does the workload twice for half the seconds each, without the frozen copy's
calls, first untraced, then with every layer wrapped (`layers.py`) and the
same sequence of calls, and reports the per-layer metrics and the tracing
overhead; the spans go to
`.perfbench/spans-<workload>-<seed>.jsonl`. --smoke shrinks every input
to toy size.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it, each
starting with "#", give the run's metadata and a readable table. Exit
status: 0 when every operation and check passed, 1 when one failed, 2 when
the arguments or the checkout are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_package() -> str | None:
    """Put the checkout's `src/` first on the path; None, or why it is unusable."""
    src = ROOT / "src"
    if not (src / "sentattn" / "__init__.py").is_file():
        return f"no package source at {src / 'sentattn'}"
    sys.path[:0] = [str(src), str(ROOT)]
    import sentattn

    if Path(sentattn.__file__).resolve().parent != (src / "sentattn").resolve():
        return f"sentattn was imported from {sentattn.__file__}, not from {src}"
    return None


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Hash of every file under src/sentattn, so a checkout without .git is identified too."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sentattn").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args: argparse.Namespace) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": git_sha(),
        "src_sha256": source_sha256(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_version, "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def run(args: argparse.Namespace, workdir: Path) -> int:
    from perfbench import layers, workloads
    from perfbench.tracing import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    data = workload.make_inputs(workdir, args.seed, args.smoke)
    print("# meta " + json.dumps(metadata(args)))
    if args.trace:
        plan = workloads.Plan(args.seconds / 2, args.smoke, paired=False)
        base = workloads.run_pass(workload, data, workdir, plan)
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            out = workloads.run_pass(workload, data, workdir, workloads.Plan(
                plan.seconds, args.smoke, sequence=base.sequence, paired=False,
                untimed=tracer.paused))
        finally:
            tracer.unwrap()
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        values = layers.per_layer_metrics(tracer, out.measured_s / base.measured_s - 1.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
        for root in [None, *tracer.roots()]:
            ranked = sorted(tracer.summary(root).items(), key=lambda kv: -kv[1]["self_s"])
            for name, s in ranked[:None if root is None else 5]:
                print(f"# self[{root or 'all'}] {name:28s} {s['self_s']:10.4f} s  calls={s['calls']}")
        for absent in tracer.absent:
            print(f"# absent {absent} (its metrics read 0)")
        attempted, failed = base.attempted + out.attempted, base.failed + out.failed
        failures = base.failures + out.failures
    else:
        out = workloads.run_pass(workload, data, workdir,
                                 workloads.Plan(args.seconds, args.smoke))
        values = workloads.end_to_end_metrics(workload, out)
        units = {name: unit for name, (unit, _, _) in layers.END_TO_END.items()}
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in units.items()}
        attempted, failed, failures = out.attempted, out.failed, out.failures
        values["failed_frac"] = (failed / attempted, failed / attempted, math.nan, attempted)
        print(f"# {'metric':18s} {'value':>12s} {'unit':7s} {'package':>12s} {'copy':>12s}"
              "  (package and copy: plain times or rates)")
        for name, unit in {**units, "failed_frac": "frac"}.items():
            value, mine, seed, n = values[name]
            gated = "" if name in units else "  (not gated)"
            print(f"# {name:18s} {value:12.6g} {unit:7s} {mine:12.6g} {seed:12.6g} n={n}{gated}")
    print("# info " + json.dumps(out.info))
    for name in failures:
        print(f"# FAILED check: {name}")
    emit(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    problem = load_package()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as workdir:
        try:
            return run(args, Path(workdir))
        except Exception:  # the package raised: the run failed, and says so
            traceback.print_exc()
            emit(False, 1, 1, {})
            return 1


if __name__ == "__main__":
    sys.exit(main())
