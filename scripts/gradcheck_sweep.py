#!/usr/bin/env python3
"""Sweep the finite-difference gradient check over seeds and encoder kinds.

Usage: python scripts/gradcheck_sweep.py [--instances N] [--eps EPS]
"""

import argparse
import json
import math
import sys
import time

from sentattn.encoder import MEANPOOL, MINITRANSFORMER, ModelDims
from sentattn.trainer import grad_check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--eps", type=float, default=1e-3)
    args = parser.parse_args(argv)

    dims = ModelDims(h=8, c=3, v_buckets=8, t_max=6, f=6)
    rows = []
    start = time.monotonic()
    for kind in (MEANPOOL, MINITRANSFORMER):
        worst = ("", -1.0)
        for seed in range(args.instances):
            report = grad_check(kind=kind, seed=seed, eps=args.eps, dims=dims, k=4)
            if not report.max_rel_error <= worst[1] and not math.isnan(worst[1]):  # NaN is the worst
                worst = (report.worst_param, report.max_rel_error)
            print(f"{kind:16s} seed {seed:3d}: max rel error {report.max_rel_error:.3e} "
                  f"({report.worst_param})", file=sys.stderr)
        rows.append({"encoder": kind, "instances": args.instances,
                     "worst_rel_error": worst[1], "worst_param": worst[0]})
    print(json.dumps({"eps": args.eps, "results": rows,
                      "wall_seconds": round(time.monotonic() - start, 1)}, indent=2))
    return 0 if all(r["worst_rel_error"] < 1e-4 for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
