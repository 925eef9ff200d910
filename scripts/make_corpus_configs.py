#!/usr/bin/env python3
"""Regenerate the shipped JSON configs from the reference corpus.

Each file gives only the family, phi, ``n_schedule`` and seed; every other
key is the default that ``parse_config`` fills in, written out by
``dump_config``.
"""

import argparse
import json
from pathlib import Path

from sublln.ambiguity import mean_bounds
from sublln.config import dump_config, parse_config
from sublln.corpus import corpus_families

N_SCHEDULE = [1, 2, 4, 8, 16, 32, 64]
SEED = 20240810


def config_text(name, family) -> str:
    lo, hi = mean_bounds(family)
    given = {
        "family": {
            "name": name,
            "lattice": {"origin": family.lattice.origin, "step": family.lattice.step},
            "members": [[[v, w] for v, w in m.atoms] for m in family.members],
        },
        "phi": {"catalog": "abs_dev", "params": {"c": 0.5 * (lo + hi)}},
        "n_schedule": N_SCHEDULE,
        "seed": SEED,
    }
    return dump_config(parse_config(json.dumps(given)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent.parent / "configs")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    families = corpus_families()
    for name, family in families.items():
        path = args.out / f"{name}.json"
        path.write_text(config_text(name, family))
        print(f"wrote {path}")
    # the default corpus config points at the richest family
    default = args.out / "corpus.json"
    default.write_text(config_text("three_atom", families["three_atom"]))
    print(f"wrote {default}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
