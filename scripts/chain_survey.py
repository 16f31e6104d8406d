#!/usr/bin/env python3
"""Survey chain controllability across sizes and coupling strengths.

Prints one row per (n, g1, g2): closure dimension, verdict, drift
positivity, the triple validation outcome, and the closure's rank gap (its
smallest accepted residual over its largest rejected one; "-" when nothing
was rejected). A gap near 1 means the dimension hangs on the tolerance.
"""

import argparse
import itertools
import time

from oscontrol import ChainSpec, TripleParams, controllability_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--couplings", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    parser.add_argument("--omega", type=float, default=1.0)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()

    header = f"{'n':>3} {'g1':>6} {'g2':>6} {'dim':>5} {'full':>5} {'pos(suff/act)':>14} {'triple':>7} {'verdict':>16} {'rank_gap':>9} {'secs':>7}"
    print(header)
    print("-" * len(header))
    for n, g in itertools.product(range(2, args.n_max + 1), args.couplings):
        spec = ChainSpec(n=n, omega=args.omega, g1=g, g2=g)
        started = time.perf_counter()
        rep = controllability_report(spec, TripleParams(), tol=args.tol)
        elapsed = time.perf_counter() - started
        gap = rep.subspace.rank_gap
        gap_text = "-" if gap is None else f"{gap:.2e}"
        pos = f"{'y' if rep.positivity.sufficient else 'n'}/{'y' if rep.positivity.actual else 'n'}"
        print(
            f"{n:>3} {g:>6.2f} {g:>6.2f} {rep.dimension:>5} {rep.dimension_full:>5} "
            f"{pos:>14} {'ok' if rep.triple_ok else 'no':>7} {rep.verdict:>16} {gap_text:>9} {elapsed:>7.3f}"
        )


if __name__ == "__main__":
    main()
