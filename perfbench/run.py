#!/usr/bin/env python3
"""Training-step benchmark for revtrain.

Run from the repository root:

    python3 perfbench/run.py --workload hybrid-hybrid --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
Exit code 0 means every correctness check passed, 1 that one failed, 2 that
the arguments or the source tree are unusable. See perfbench/README.md.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (zoo spec, backprop mode, batch size); inputs are 32x32x3 float32
WORKLOADS = {
    "hybrid-hybrid": ("hybrid", "hybrid", 16),
    "small-hybrid-block": ("small-hybrid", "block", 32),
    "resnet-stored": ("resnet", "stored", 32),
}


def cap_blas_threads():
    """Cap BLAS threads at nproc unless the caller set a cap; must run before
    numpy is imported. Returns (cap, nproc)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = int(os.environ.get(BLAS_ENV[0]) or nproc)
    for var in BLAS_ENV:
        os.environ.setdefault(var, str(cap))
    return cap, nproc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest settings (batch 4, one set-up) for the self-test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "revtrain" / "__init__.py").is_file():
        print(f"error: revtrain sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap, nproc = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    spec, mode, batch = WORKLOADS[args.workload]
    return bench.run(args, spec, mode, batch, blas_threads=cap, nproc=nproc,
                     work_dir=ROOT / ".perfbench-work")


if __name__ == "__main__":
    sys.exit(main())
