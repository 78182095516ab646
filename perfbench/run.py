"""Benchmark of the mlsa4rec program, run from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Workloads: train-desk, rank-desk, score-long (see workloads.py). With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run, whose spans go to perfbench/out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The program is imported from the checkout's src/ directory; BLAS is pinned
to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-desk", "rank-desk", "score-long")


def prepare() -> bool:
    """Pin BLAS to one thread and put the checkout's src/ and this directory
    first on the import path; False, with a message, if src/ is missing."""
    package = ROOT / "src" / "mlsa4rec" / "__init__.py"
    if not package.is_file():
        print(f"error: the program's source is missing ({package} not found)",
              file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"             # read by BLAS when numpy loads it
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return True


def _blas_threads() -> str:
    """Thread count reported by numpy's bundled OpenBLAS, if it is that."""
    import ctypes

    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so*"))
    for lib in libs:
        try:
            return str(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not prepare():
        return 2

    import numpy as np
    from mlsa4rec import kernels

    import harness

    print(f"machine: blas_threads={_blas_threads()} cpu_count={os.cpu_count()} "
          f"numpy={np.__version__} scan_backend={kernels.get_backend()} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    r, metrics = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), spans_dir=HERE / "out")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} attempted {r.attempted} failed {r.failed} "
          f"correct {r.correct}")
    for problem in r.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": r.correct, "attempted": r.attempted,
                      "failed": r.failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
