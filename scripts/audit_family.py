#!/usr/bin/env python3
"""Sweep the exponent balance audit over a whole pair family.

For every admissible pair (0 < kappa < 1/3) both region branches are
certified exactly and the two branches must agree at sigma_star; the script
prints a compact per-pair summary, one FAIL line per region whose audit fails
and per pair whose continuity check fails, and an overall tally.  Exit codes:
0 when every check passes, 1 when any fails, 2 for a negative depth, 3 when
the depth is over the budget.
"""

import argparse
import sys
import time
from fractions import Fraction

from zdx.density import audit_balance, continuity_check, regions_for
from zdx.exact import rat_str
from zdx.pairs import DepthLimitError, generate_pairs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    if args.depth < 0:
        print(f"error: --depth must be >= 0, got {args.depth}", file=sys.stderr)
        sys.exit(2)

    try:
        family = generate_pairs(args.depth)
    except DepthLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    start = time.perf_counter()
    audited = failed = skipped = 0
    for pair in family:
        if not 0 < pair.kappa < Fraction(1, 3):
            skipped += 1
            continue
        regions = regions_for(pair)
        statuses = []
        for region in (1, 2):
            if regions.region(region).is_empty:
                statuses.append(f"r{region}:empty")
                continue
            rep = audit_balance(pair, region)
            statuses.append(f"r{region}:{'pass' if rep.passed else 'FAIL'}")
            if rep.passed:
                audited += 1
            else:
                failed += 1
                print(f"FAIL {pair} region {region}: {rep.violation}")
        cont = continuity_check(pair)
        if cont.status == "mismatch":
            failed += 1
            print(f"FAIL {pair} continuity at sigma = {rat_str(cont.sigma_star)}: {cont.note}")
        if args.verbose:
            print(
                f"({rat_str(pair.kappa)}, {rat_str(pair.lam)})  word={pair.word or '-'}  "
                f"{' '.join(statuses)}  continuity:{cont.status}"
            )
    elapsed = time.perf_counter() - start
    print(
        f"depth {args.depth}: {len(family)} pairs, {audited} region audits passed, "
        f"{skipped} pairs outside (0, 1/3), {elapsed:.2f}s"
    )
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
