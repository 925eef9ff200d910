#!/usr/bin/env python3
"""Print a gap-versus-n table for a corpus family and a catalog shape function."""

import argparse
import sys

from sublln.corpus import catalog_for, corpus_families
from sublln.engine import SupportOverflow
from sublln.lln_rates import rate_sweep


def main(argv=None) -> int:
    families = corpus_families()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=sorted(families), default="three_atom")
    parser.add_argument("--phi", default="abs_dev", help="catalog name prefix (e.g. linear, abs_dev, clip)")
    parser.add_argument(
        "--n-max", type=int, default=1024, help="largest horizon, at least 1; horizons are the powers of two up to it"
    )
    parser.add_argument("--alpha", type=float, default=1.0, help="moment order alpha in (0, 1]")
    args = parser.parse_args(argv)
    if args.n_max < 1:
        parser.error(f"--n-max must be at least 1, got {args.n_max}")
    if not 0.0 < args.alpha <= 1.0:
        parser.error(f"--alpha must be in (0, 1], got {args.alpha:g}")

    family = families[args.family]
    matches = [phi for phi in catalog_for(family) if phi.name.startswith(args.phi)]
    if not matches:
        parser.error(f"no catalog entry starting with {args.phi!r}")
    phi = matches[0]
    schedule = [2**k for k in range(args.n_max.bit_length())]
    try:
        reports = rate_sweep(family, phi, schedule, alphas=(args.alpha,))
    except SupportOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"family={args.family}  phi={phi.name}  L={phi.lipschitz_constant:g}")
    header = f"{'n':>6} {'expectation':>14} {'limit':>10} {'gap':>12} {'rate bound':>12} {'corollary':>12}"
    print(header)
    print("-" * len(header))
    for rep in reports:
        corollary = f"{rep.bound_corollary:12.6f}" if rep.bound_corollary is not None else " " * 12
        print(
            f"{rep.n:>6} {rep.expectation:14.8f} {rep.limit:10.6f} {rep.gap:12.8f} "
            f"{rep.bound_theorem3[args.alpha]:12.6f} {corollary}"
            + ("" if rep.all_hold else "  VIOLATION")
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
