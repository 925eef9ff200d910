"""``sample_sum_counts`` on lattices where float sums and lattice sums part, against the ``searchsorted`` oracle.

The counts index each path's integer coordinate sum on the gcd-reduced
window, whatever the float sum of its atoms rounds to.  An atom one ulp off
the lattice, a step of 0.1, an origin far from the atoms, a point mass at
-0.0 and atom gaps wider than one each give the oracle's paths and the
``np.bincount`` of their reduced coordinate sums, worked out here from
``lattice.coord`` (``reduced_sum_counts``).  On random dyadic lattices, where
every float sum of a few atoms is exact, the lattice sums the counts index
are the float sums of the paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import per_step_sampler, reduced_sum_counts
from sublln import measures
from sublln.ambiguity import AmbiguityFamily, mean_bounds
from sublln.measures import (
    PathMeasure,
    construct_pstar,
    history_parity_measure,
    sample_paths,
    sample_sum_counts,
    uniform_mixture,
)

TENTH = AmbiguityFamily.build(0.0, 0.1, [[(0.0, 0.5), (0.1, 0.25), (0.3, 0.25)], [(0.1, 0.5), (0.2, 0.5)]])


def assert_counts_bin_the_oracle(family, measure, n, count, seed):
    """``sample_paths`` gives the oracle's paths and ``sample_sum_counts`` their reduced bincount; returns both."""
    want = per_step_sampler(family, measure, n, count, seed)
    assert sample_paths(family, measure, n, count, seed).tobytes() == want.tobytes()
    counts = sample_sum_counts(family, measure, n, count, seed)
    assert counts.dtype == np.int64 and np.array_equal(counts, reduced_sum_counts(family, want)[0])
    return want, counts


def test_atom_one_ulp_off_the_lattice():
    off = math.nextafter(1.0, 2.0)
    family = AmbiguityFamily.build(0.0, 0.5, [[(0.0, 0.5), (off, 0.5)]])
    assert family.lattice.on_lattice(off)
    paths, counts = assert_counts_bin_the_oracle(family, uniform_mixture(family, 3), 3, 200, seed=1)
    # the counts index lattice sums, which the float sums of the paths miss
    sums = reduced_sum_counts(family, paths)[1]
    assert not np.array_equal(np.repeat(sums, counts), np.sort(paths.sum(axis=1)))


@pytest.mark.parametrize("n", [1, 7, 50])
def test_non_dyadic_step(n):
    assert_counts_bin_the_oracle(TENTH, construct_pstar(TENTH, 0.15, n), n, 500, seed=4)


def test_origin_far_from_the_atoms():
    # origin 2^60 on step 2^10: every coordinate lies near -2^50, so nine of them sum past 2^53
    far = AmbiguityFamily.build(2.0**60, 1024.0, [[(-1024.0, 0.5), (0.0, 0.25), (1024.0, 0.25)]])
    assert_counts_bin_the_oracle(far, uniform_mixture(far, 9), 9, 300, seed=2)
    # origin 2^40 on step 1/2
    near = AmbiguityFamily.build(2.0**40, 0.5, [[(-1.0, 0.5), (0.0, 0.25), (1.0, 0.25)]])
    assert_counts_bin_the_oracle(near, uniform_mixture(near, 9), 9, 300, seed=2)


def test_point_mass_at_negative_zero():
    for zero in (-0.0, 0.0):
        family = AmbiguityFamily.build(0.0, 1.0, [[(zero, 1.0)]])
        assert math.copysign(1.0, family.union_atoms()[1][0]) == math.copysign(1.0, zero)
        _, counts = assert_counts_bin_the_oracle(family, uniform_mixture(family, 4), 4, 50, seed=3)
        assert counts.tolist() == [50]


@pytest.mark.parametrize("name, gaps", [("bernoulli_pair", [2]), ("skewed_pair", [1, 2])])
def test_non_unit_gaps(name, gaps, families):
    family = families[name]
    assert np.diff(family.union_atoms()[0]).tolist() == gaps
    n = 50
    count = 2 * 8 * (measures._BLOCK_UNIFORMS // (8 * n)) + 7  # three blocks, the last partial
    for measure in (construct_pstar(family, sum(mean_bounds(family)) / 2, n), uniform_mixture(family, n)):
        _, counts = assert_counts_bin_the_oracle(family, measure, n, count, seed=5)
        assert len(counts) == n * sum(gaps) // math.gcd(*gaps) + 1  # the reduced window: 51 on bernoulli_pair
    assert_counts_bin_the_oracle(family, history_parity_measure(family, 12), 12, 300, seed=5)


# --- random dyadic lattices -------------------------------------------------


@st.composite
def dyadic_families(draw):
    """One or two members on ``origin + c*step``, both multiples of 2^-e, with 1-6 union atoms."""
    e = draw(st.integers(0, 8))
    origin = draw(st.integers(-64, 64)) * 2.0**-e
    step = draw(st.integers(1, 40)) * 2.0**-e
    coords = sorted(draw(st.sets(st.integers(-12, 12), min_size=1, max_size=6)))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(coords), max_size=len(coords)))
    weights = [w / sum(raw) for w in raw]
    values = [origin + c * step for c in coords]
    members = [list(zip(values, weights)), [(values[draw(st.integers(0, len(values) - 1))], 1.0)]]
    return AmbiguityFamily.build(origin, step, members)


def step_varying(n):
    """A ``"none"`` measure whose weights change with the step."""
    return PathMeasure(n, 2, lambda step: np.array([(step % 3) / 2, 1 - (step % 3) / 2]), "none", "step-varying")


def sum_threshold(n):
    return PathMeasure.from_sum_rule(lambda step, total: np.array([0.25, 0.75] if total < 0 else [1.0, 0.0]), n, 2)


def history_last_atom(n):
    return PathMeasure.from_history_rule(
        lambda step, history: np.array([1.0, 0.0] if not history or history[-1] > 0 else [0.5, 0.5]), n, 2
    )


MEASURES = {
    "constant": lambda n: PathMeasure.constant([0.75, 0.25], n),
    "step-varying": step_varying,
    "sum-rule": sum_threshold,
    "history-rule": history_last_atom,
}


@settings(max_examples=60, deadline=None)
@given(
    family=dyadic_families(),
    kind=st.sampled_from(sorted(MEASURES)),
    n=st.integers(1, 6),
    block=st.integers(1, 20),
    extra=st.sampled_from([-1, 0, 1, 2]),
    seed=st.integers(0, 2**64 - 1),
)
def test_random_dyadic_lattices_match_the_float_sums(family, kind, n, block, extra, seed):
    measure = MEASURES[kind](n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_UNIFORMS", block * n)  # ``block`` paths per block, rounded down to 8s
        count = max(0, 2 * block + extra)  # crosses one or two block edges
        paths, counts = assert_counts_bin_the_oracle(family, measure, n, count, seed)
    # every float sum of these paths is exact, so it is the lattice sum its count stands for
    sums = reduced_sum_counts(family, paths)[1]
    assert np.array_equal(np.repeat(sums, counts), np.sort(paths.sum(axis=1)))


# SHA-256 of P*'s path sums at the config's mc_horizon and mc_samples, as the blockwise sampler
# gave them before a measure with no boundary left skipped the blocks; the seed cannot matter
NO_DRAW_SUMS = {
    "point_mass": "4b8fcddbba6d673ffd20615d328ff637f7459692c3805cb647421bfc5962bda9",
    "delta_pair": "8568d6b117678d53edec66018e6d52abe48837f64aebd6aee0153ddf2001ea51",
    "two_point_masses": "ba576b35304c99931fbead5eda60016d44769aa022949a7159969c1e63c74ba7",
}


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("name", sorted(NO_DRAW_SUMS))
def test_no_boundary_left_draws_nothing(name, seed, monkeypatch):
    import hashlib
    from pathlib import Path

    from sublln import cli
    from sublln.config import parse_config

    config = parse_config((Path(__file__).resolve().parent.parent / "configs" / f"{name}.json").read_bytes())
    pstar = cli._RunPlan(config, ["mc"]).pstar
    n, count = config.mc_horizon, config.mc_samples
    monkeypatch.setattr(measures, "outputs", None)  # a draw would fail
    blocks = list(measures._stepwise_blocks(config.family, pstar, n, count, seed, indices=True))
    assert len(blocks) == 1 and blocks[0][1].shape == (count,)
    assert blocks[0][1].strides == (0,)  # one window index for every path, nothing counted per path
    paths = sample_paths(config.family, pstar, n, count, seed)
    assert hashlib.sha256(paths.sum(axis=1).tobytes()).hexdigest() == NO_DRAW_SUMS[name]
    # every path reaches the sum of the first one
    counts = sample_sum_counts(config.family, pstar, n, count, seed)
    assert np.array_equal(counts, count * reduced_sum_counts(config.family, paths[:1])[0])
