"""Work that ``verify-all`` does, counted instead of timed, so a change that adds dead work fails here.

The sampler draws uniforms only for CDF boundaries that can fire: P* on a
single member draws none, and every other shipped config draws one uniform
per (path, step).  The limit search hands phi at most one block of grid
points at a time: every grid point of an opaque callable, and for each
shipped catalog shape, a tree, only the one block that its enclosure
leaves.  The backward driver runs once for the run plan, whose
one sweep stacks every payoff the checks read, and once per argmax policy
that prop2 extracts.
"""

import contextlib
import io
import math
from pathlib import Path

import pytest

from sublln import cli, engine, lln_rates, measures
from sublln.ambiguity import mean_bounds
from sublln.config import parse_config
from sublln.corpus import catalog_for

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NO_DRAWS = {"point_mass", "delta_pair", "two_point_masses"}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_verify_all_draws_only_live_uniforms(path, tmp_path, monkeypatch):
    draws = []

    def counting(seed, start, offsets, out):
        draws.append(out.size)
        return mantissas(seed, start, offsets, out)

    mantissas = measures.mantissas
    monkeypatch.setattr(measures, "mantissas", counting)
    config = parse_config(path.read_bytes())
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(config, tmp_path) == 0
    want = 0 if path.stem in NO_DRAWS else config.mc_samples * config.mc_horizon
    assert sum(draws) == want


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_verify_all_sweeps_backward_once_per_plan_and_policy(path, tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    sweep = engine._sweep
    monkeypatch.setattr(engine, "_sweep", counting)
    config = parse_config(path.read_bytes())
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(config, tmp_path) == 0
    assert len(calls) == 1 + len(cli._enum_ns(config))


def limit_searches(families):
    for path in sorted(CONFIGS.glob("*.json")):
        config = parse_config(path.read_bytes())
        yield config.phi, mean_bounds(config.family)
    for family in families.values():
        for phi in catalog_for(family):
            yield phi, mean_bounds(family)


def recorded_limit_searches(families, monkeypatch, opaque):
    """``(phi, sizes, points)`` per limit search: the sizes of the blocks handed to phi, and the grid size."""
    sizes = []

    def recording(phi, xs):
        sizes.append(xs.size)
        return engine._eval_phi(phi, xs)

    monkeypatch.setattr(lln_rates, "_eval_phi", recording)
    for phi, (lo, hi) in limit_searches(families):
        if opaque:
            phi = lln_rates.LipschitzFunction(lambda x, f=phi.evaluator: f(x), phi.lipschitz_constant, phi.name)
        sizes.clear()
        lln_rates.interval_max(phi, lo, hi)
        L, span = phi.lipschitz_constant, hi - lo
        points = min(10**6, max(1, math.ceil(span * L / (2e-9 * max(1.0, L * span))))) + 1 if span else 1
        yield phi, list(sizes), points


def test_opaque_limit_search_evaluates_every_point_once(families, monkeypatch):
    for phi, sizes, points in recorded_limit_searches(families, monkeypatch, opaque=True):
        assert max(sizes) <= lln_rates._GRID_BLOCK
        assert sum(sizes) == points


def test_limit_search_evaluates_phi_one_block_at_a_time(families, monkeypatch):
    # every corpus and config shape is a tree whose maximum one block holds, and whose enclosure
    # rules out every other block: one block of at most _GRID_BLOCK points (the whole grid when
    # the mean interval is a point)
    searches = list(recorded_limit_searches(families, monkeypatch, opaque=False))
    assert len(searches) == 8 + 7 * 6
    for phi, sizes, points in searches:
        assert len(sizes) == 1, phi.name
        assert max(sizes) <= lln_rates._GRID_BLOCK
    # 14 one-point grids (point_mass and fair_coin), and 10^6 + 1 points elsewhere: the last
    # block (577 points) for the 10 increasing shapes, a whole block (16384) for the other 26
    assert sum(sizes[0] for _, sizes, _ in searches) == 14 + 10 * 577 + 26 * 16384
    assert sum(points for _, _, points in searches) == 14 + 36 * (10**6 + 1)
