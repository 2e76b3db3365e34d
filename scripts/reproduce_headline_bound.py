#!/usr/bin/env python3
"""Reproduce the two-branch headline bound from the A/B pair family.

Optimizes E(sigma) over the depth-3 closure on [17/18, 1], prints the
exact segments, the branch crossover, and where the result meets the
previous best baseline.
"""

import argparse
from fractions import Fraction

from zdx.density import baseline_crossovers, baseline_curves, optimize
from zdx.exact import Interval, dec_str, rat_str
from zdx.pairs import generate_pairs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=3)
    args = ap.parse_args()

    interval = Interval(Fraction(17, 18), Fraction(1))
    family = generate_pairs(args.depth)
    bound = optimize(family, interval)

    print(f"family depth {args.depth} ({len(family)} pairs), interval {interval}")
    for seg in bound:
        prov = seg.curve.provenance
        print(f"  {seg.region}  A = {seg.curve.A}   [{prov.label}]")

    for prev, cur in zip(bound.segments, bound.segments[1:]):
        x = cur.region.lo
        print(f"branch switch at sigma = {rat_str(x)} ({dec_str(x, 8)})")

    ivic92 = baseline_curves()[1]
    for _, base, root in baseline_crossovers(bound, (ivic92,)):
        print(f"meets {base.provenance.label} at sigma = {rat_str(root)}")

    probe = Fraction(24, 25)
    print(f"spot value: E({rat_str(probe)}) = {rat_str(bound.eval_E(probe))}"
          f" vs baseline {rat_str(ivic92.eval_E(probe))}")


if __name__ == "__main__":
    main()
