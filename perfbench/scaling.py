"""score-long at several history lengths, as a check of the linear-cost claim:
if a call costs time linear in length, scored positions per second stay flat.

    python3 perfbench/scaling.py --seed 1 --seconds 30 --lengths 512,2048,4096
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--lengths", default="512,2048,4096")
    args = ap.parse_args(argv)
    if not run.prepare():
        return 2
    import harness
    from workloads import Sizes

    for length in (int(x) for x in args.lengths.split(",")):
        sizes = Sizes(long_len=length)
        r, metrics = harness.run("score-long", args.seed, args.seconds, False,
                                 sizes=sizes)
        positions_per_s = sizes.long_batch * length / (metrics["op_ms"][0] / 1e3)
        print(f"L={length} correct={r.correct} attempted={r.attempted} "
              f"failed={r.failed} positions_per_s={positions_per_s:.6g} " + " ".join(
                  f"{name}={value:.6g}{unit}" for name, (value, unit) in metrics.items()),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
