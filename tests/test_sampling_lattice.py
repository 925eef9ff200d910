"""The integer ending of ``sample_path_sums`` and the gate that admits it.

On a lattice where every float sum of n atoms is exact,
``sample_path_sums`` counts each path's integer coordinate sum and returns
its lattice value; anywhere else it gathers the atoms and sums them as
floats.  Every case here records which ending was taken and checks that the
sums are the bytes of ``sample_paths(...).sum(axis=1)``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import per_step_sampler
from sublln import measures
from sublln.ambiguity import AmbiguityFamily, mean_bounds
from sublln.measures import (
    PathMeasure,
    _exact_lattice_sums,
    construct_pstar,
    history_parity_measure,
    sample_path_sums,
    sample_paths,
    uniform_mixture,
)

TENTH = AmbiguityFamily.build(0.0, 0.1, [[(0.0, 0.5), (0.1, 0.25), (0.3, 0.25)], [(0.1, 0.5), (0.2, 0.5)]])


def sums_and_ending(family, measure, n, count, seed):
    """``sample_path_sums`` and the ending it took: "lattice" for coordinate sums, else "float"."""
    endings = []
    kernel = measures._stepwise_blocks

    def spy(*args, coord_sums=False):
        endings.append("lattice" if coord_sums else "float")
        return kernel(*args, coord_sums=coord_sums)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_stepwise_blocks", spy)
        sums = sample_path_sums(family, measure, n, count, seed)
    assert len(endings) == 1
    return sums, endings[0]


def assert_ending(family, measure, n, count, seed, ending):
    sums, taken = sums_and_ending(family, measure, n, count, seed)
    assert taken == ending
    assert sums.tobytes() == sample_paths(family, measure, n, count, seed).sum(axis=1).tobytes()


def forced_lattice_sums(family, measure, n, count, seed):
    """The integer ending taken regardless of the gate."""
    blocks = [b for _, b in measures._stepwise_blocks(family, measure, n, count, seed, coord_sums=True)]
    return measures._lattice_sums(family.lattice, n, np.concatenate(blocks))


def test_atom_one_ulp_off_the_lattice():
    off = math.nextafter(1.0, 2.0)
    family = AmbiguityFamily.build(0.0, 0.5, [[(0.0, 0.5), (off, 0.5)]])
    measure = uniform_mixture(family, 3)
    assert family.lattice.on_lattice(off) and not _exact_lattice_sums(family, 1)
    assert_ending(family, measure, 3, 200, seed=1, ending="float")
    # the gate matters here: the integer ending would round differently
    forced = forced_lattice_sums(family, measure, 3, 200, seed=1)
    assert forced.tobytes() != sample_path_sums(family, measure, 3, 200, seed=1).tobytes()


@pytest.mark.parametrize("n", [1, 7, 50])
def test_non_dyadic_step(n):
    assert not _exact_lattice_sums(TENTH, n)
    assert_ending(TENTH, construct_pstar(TENTH, 0.15, n), n, 500, seed=4, ending="float")


def test_origin_far_from_the_atoms():
    # origin 2^60 on step 2^10: every coordinate lies near -2^50, so nine of them sum past 2^53
    far = AmbiguityFamily.build(2.0**60, 1024.0, [[(-1024.0, 0.5), (0.0, 0.25), (1024.0, 0.25)]])
    measure = uniform_mixture(far, 9)
    assert not _exact_lattice_sums(far, 1)
    assert_ending(far, measure, 9, 300, seed=2, ending="float")
    forced = forced_lattice_sums(far, measure, 9, 300, seed=2)
    assert forced.tobytes() != sample_path_sums(far, measure, 9, 300, seed=2).tobytes()
    # origin 2^40 on step 1/2: in units of 2^-1 the largest term |c * step| is 2^41 + 2
    near = AmbiguityFamily.build(2.0**40, 0.5, [[(-1.0, 0.5), (0.0, 0.25), (1.0, 0.25)]])
    assert _exact_lattice_sums(near, 2**12 - 1) and not _exact_lattice_sums(near, 2**12)
    assert_ending(near, uniform_mixture(near, 9), 9, 300, seed=2, ending="lattice")


@pytest.mark.parametrize(
    "name, limit",
    [
        ("three_atom", 2**52),  # step 1/2 (e = 1), largest term 1: n * 2 < 2^53
        ("skewed_pair", -(-(2**53) // 3)),  # step 1/2, largest term 1.5: n * 3 < 2^53
        ("fair_coin", 2**53),  # step 1 (e = 0), largest term 1
    ],
)
def test_horizon_on_each_side_of_the_limit(name, limit, families):
    assert _exact_lattice_sums(families[name], limit - 1) and not _exact_lattice_sums(families[name], limit)


def test_point_mass_at_negative_zero():
    family = AmbiguityFamily.build(0.0, 1.0, [[(-0.0, 1.0)]])
    assert math.copysign(1.0, family.union_atoms()[1][0]) < 0 and not _exact_lattice_sums(family, 4)
    assert_ending(family, uniform_mixture(family, 4), 4, 50, seed=3, ending="float")
    # a positive zero on the same lattice takes the integer ending
    positive = AmbiguityFamily.build(0.0, 1.0, [[(0.0, 1.0)]])
    assert_ending(positive, uniform_mixture(positive, 4), 4, 50, seed=3, ending="lattice")


@pytest.mark.parametrize("name, gaps", [("bernoulli_pair", [2]), ("skewed_pair", [1, 2])])
def test_non_unit_gaps(name, gaps, families):
    family = families[name]
    assert np.diff(family.union_atoms()[0]).tolist() == gaps
    n = 50
    count = 2 * (measures._BLOCK_UNIFORMS // n) + 7  # three blocks, the last partial
    for measure in (construct_pstar(family, sum(mean_bounds(family)) / 2, n), uniform_mixture(family, n)):
        assert_ending(family, measure, n, count, seed=5, ending="lattice")
    assert_ending(family, history_parity_measure(family, 12), 12, 300, seed=5, ending="lattice")


def test_every_corpus_family_takes_the_integer_ending(families):
    for family in families.values():
        assert _exact_lattice_sums(family, 50)
        assert_ending(family, uniform_mixture(family, 50), 50, 700, seed=9, ending="lattice")


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
        mp.setattr(measures, "_BLOCK_UNIFORMS", block * n)  # ``block`` paths per block
        count = max(0, 2 * block + extra)  # crosses one or two block edges
        sums, taken = sums_and_ending(family, measure, n, count, seed)
        want = per_step_sampler(family, measure, n, count, seed)
        assert taken == "lattice"
        assert sample_paths(family, measure, n, count, seed).tobytes() == want.tobytes()
        assert sums.tobytes() == want.sum(axis=1).tobytes()


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
    monkeypatch.setattr(measures, "mantissas", None)  # a draw would fail
    blocks = list(measures._stepwise_blocks(config.family, pstar, n, count, seed, coord_sums=True))
    assert len(blocks) == 1 and blocks[0][1].shape == (count,)
    assert blocks[0][1].strides == (0,)  # one lattice sum for every path, nothing counted per path
    sums = sample_path_sums(config.family, pstar, n, count, seed)
    assert hashlib.sha256(sums.tobytes()).hexdigest() == NO_DRAW_SUMS[name]
    assert sums.tobytes() == sample_paths(config.family, pstar, n, count, seed).sum(axis=1).tobytes()
