#!/usr/bin/env python3
"""Regenerate the shipped JSON configs from the reference corpus."""

import argparse
import json
from pathlib import Path

from sublln.ambiguity import DEFAULT_ALPHAS, mean_bounds
from sublln.corpus import corpus_families
from sublln.engine import DEFAULT_STATE_CAP

N_SCHEDULE = [1, 2, 4, 8, 16, 32, 64]
SEED = 20240810


def config_for(name, family) -> dict:
    lo, hi = mean_bounds(family)
    return {
        "family": {
            "name": name,
            "lattice": {"origin": family.lattice.origin, "step": family.lattice.step},
            "members": [[[v, w] for v, w in m.atoms] for m in family.members],
        },
        "phi": {"catalog": "abs_dev", "params": {"c": 0.5 * (lo + hi)}},
        "n_schedule": N_SCHEDULE,
        "alphas": list(DEFAULT_ALPHAS),
        "checks": ["eval", "sweep", "variance", "chatterji", "prop2", "pstar", "mc"],
        "format": "csv",
        "seed": SEED,
        "state_cap": DEFAULT_STATE_CAP,
        "mc_samples": 100_000,
        "mc_horizon": 50,
        "enum_horizon": 6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent.parent / "configs")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    families = corpus_families()
    for name, family in families.items():
        path = args.out / f"{name}.json"
        path.write_text(json.dumps(config_for(name, family), indent=2) + "\n")
        print(f"wrote {path}")
    # the default corpus config points at the richest family
    default = args.out / "corpus.json"
    default.write_text(json.dumps(config_for("three_atom", families["three_atom"]), indent=2) + "\n")
    print(f"wrote {default}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
