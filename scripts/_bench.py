"""What the per-layer bench scripts share: one BLAS thread, the common flags, quartiles, memory, the report.

A report is one JSON object; --out writes it under the key --side of that
file, keeping the other key. A `before` and an `after` from separate
processes, run one after the other on a shared VM, cannot resolve a
difference under about 2x: prepare_bench.py's `segment_us`, whose code did
not change, read 61 -> 120 us between two such runs. To compare two
versions, time both interleaved in one process, importing each from its
own checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read when numpy loads BLAS, so before the import

import argparse
import json
import platform
from pathlib import Path

import numpy as np

from sentattn.checkpoint import output_file


def positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {text}")
    return int(text)


def parser(doc: str, repeats: int, tiny: str) -> argparse.ArgumentParser:
    """A parser described by `doc`'s first line, with --repeats, --tiny (help text `tiny`), --out and --side."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--repeats", type=positive, default=repeats)
    parser.add_argument("--tiny", action="store_true", help=tiny)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--side", choices=("before", "after"), default="after")
    return parser


def stats(seconds: list[float], scale: float = 1e6, digits: int = 2) -> dict[str, float]:
    """Median and quartiles of the times, multiplied by `scale` (to microseconds by default), rounded."""
    q1, median, q3 = np.percentile(np.asarray(seconds) * scale, [25, 50, 75])
    return {"median": round(float(median), digits), "q1": round(float(q1), digits), "q3": round(float(q3), digits)}


def status_mb(field: str) -> float | None:
    """One memory field of /proc/self/status (VmRSS, VmHWM) in MB, or None where it cannot be read."""
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith(field + ":")) / 1024
    except (OSError, StopIteration):
        return None


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            return next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def report(args: argparse.Namespace, **sections) -> None:
    """Print `machine`, `repeats` and the sections as JSON; --out writes them under --side of that file."""
    report = {"machine": {"cpu": _cpu(), "cpus": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
              "repeats": args.repeats, **sections}
    print(json.dumps(report, indent=2))
    if args.out:
        sides = json.loads(args.out.read_text()) if args.out.exists() else {}
        with output_file(args.out) as fh:  # a failed write keeps the file, and the other side's report
            fh.write((json.dumps({**sides, args.side: report}, indent=2) + "\n").encode())
