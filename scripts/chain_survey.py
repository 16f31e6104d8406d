#!/usr/bin/env python3
"""Survey chain controllability across sizes and coupling strengths.

Prints one row per (n, g1, g2): closure dimension, verdict, drift
positivity, the triple validation outcome, the certificate that decided the
rank (the chain's induction or the closure) with its prime, and the seconds
the report took.

    python scripts/chain_survey.py --n 8 16 24 --couplings 0.05 0.2
"""

import argparse
import itertools
import time

from oscontrol import ChainSpec, controllability_report, full_dimension


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[3, 4, 6, 8, 12, 16, 20, 24])
    parser.add_argument("--couplings", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    parser.add_argument("--omega", type=float, default=1.0)
    args = parser.parse_args()

    header = f"{'n':>3} {'g1':>6} {'g2':>6} {'dim':>5} {'full':>5} {'pos(suff/act)':>14} {'triple':>7} {'verdict':>16} {'certificate':>15} {'prime':>8} {'secs':>7}"
    print(header)
    print("-" * len(header))
    for n, g in itertools.product(args.n, args.couplings):
        spec = ChainSpec(n=n, omega=args.omega, g1=g, g2=g)
        started = time.perf_counter()
        rep = controllability_report(spec)
        elapsed = time.perf_counter() - started
        pos = f"{'y' if rep.positivity.sufficient else 'n'}/{'y' if rep.positivity.actual else 'n'}"
        print(
            f"{n:>3} {g:>6.2f} {g:>6.2f} {rep.rank.dimension:>5} {full_dimension(n):>5} "
            f"{pos:>14} {'ok' if rep.triple_message is None else 'no':>7} {rep.verdict:>16} "
            f"{rep.rank.certificate:>15} {rep.rank.prime:>8} {elapsed:>7.3f}"
        )


if __name__ == "__main__":
    main()
