"""The blocked limit search against one ``np.linspace`` grid, bit for bit.

``interval_max`` builds the grid ``_GRID_BLOCK`` points at a time; every
result must keep the bits of the full-grid search in ``_oracles``, ties and
NaNs included.  Floats are compared through ``float.hex``, so a flipped sign
of zero fails.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import linspace_interval_max
from sublln import lln_rates
from sublln.ambiguity import mean_bounds
from sublln.config import parse_config
from sublln.corpus import catalog_for
from sublln.lln_rates import LipschitzFunction, abs_dev, clip_to, interval_max, neg_abs_dev

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BLOCK = lln_rates._GRID_BLOCK


def hexes(*values):
    return [float(v).hex() for v in values]


def assert_matches_linspace(phi, lo, hi):
    want = linspace_interval_max(phi, lo, hi)
    got = interval_max(phi, lo, hi)
    assert hexes(got.argmax_r, got.max_value, got.grid_error_bound) == hexes(*want[:3])
    return want[3]


def lipschitz_for(intervals, span):
    """A constant for which the interval rule picks ``intervals`` (while ``L * span <= 1``)."""
    return (intervals - 0.5) * 2e-9 / span


def test_every_corpus_shape(families):
    for family in families.values():
        lo, hi = mean_bounds(family)
        for phi in catalog_for(family):
            assert_matches_linspace(phi, lo, hi)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_every_shipped_config(path):
    config = parse_config(path.read_bytes())
    assert_matches_linspace(config.phi, *mean_bounds(config.family))


SHAPES = {
    "abs_dev": lambda c: abs_dev(c),
    "neg_abs_dev": lambda c: neg_abs_dev(c),
    "sin": lambda c: LipschitzFunction(lambda x: np.sin(7.0 * x + c), 7.0, "sin"),
}


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    c=st.floats(-2.0, 2.0),
    lo=st.floats(-3.0, 3.0),
    span=st.floats(1e-6, 4.0),
    points=st.one_of(
        st.integers(2, 3 * BLOCK + 1),
        st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK, 3 * BLOCK + 1]),
    ),
    scale=st.one_of(st.none(), st.floats(1e-3, 1e3)),
)
def test_random_intervals(shape, c, lo, span, points, scale):
    # scale None: L is chosen so that the grid has exactly ``points`` points; otherwise L*span is free
    phi = SHAPES[shape](c)
    L = lipschitz_for(points - 1, span) if scale is None else scale / span
    phi = LipschitzFunction(phi.evaluator, L, phi.name)
    intervals = assert_matches_linspace(phi, lo, lo + span)
    if scale is None:
        assert intervals + 1 == points


def test_flat_maximum_across_a_block_boundary():
    # the clip plateau starts a few points before the first block boundary: its first point wins
    lo, hi = 0.0, 1.0
    step = (hi - lo) / 10**6
    phi = clip_to(-1.0, (BLOCK - 3) * step)
    assert assert_matches_linspace(phi, lo, hi) == 10**6
    res = interval_max(phi, lo, hi)
    assert res.argmax_r == res.max_value == (BLOCK - 3) * step


@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_signed_zero_tie(first):
    # phi is one signed zero on the first half and the other on the second: the first point wins
    phi = LipschitzFunction(lambda x: np.where(x < 0.5, first, -first), 1.0, "zeros")
    assert_matches_linspace(phi, 0.0, 1.0)
    res = interval_max(phi, 0.0, 1.0)
    assert res.argmax_r == 0.0
    assert math.copysign(1.0, res.max_value) == math.copysign(1.0, first)


@pytest.mark.parametrize("nan_from", [0.0, 0.005, 0.7])
def test_first_nan_wins(nan_from):
    # larger values lie before and after the NaNs; np.argmax of the whole grid is the first NaN
    phi = LipschitzFunction(lambda x: np.where((x >= nan_from) & (x < 0.8), np.nan, x), 1.0, "nan")
    assert_matches_linspace(phi, 0.0, 1.0)
    res = interval_max(phi, 0.0, 1.0)
    assert math.isnan(res.max_value)
    assert res.argmax_r >= nan_from and res.argmax_r - nan_from < 1e-6


def test_per_point_fallback():
    def scalar_only(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalars only")
        return math.sin(3.0 * x)

    span = 1.0
    phi = LipschitzFunction(scalar_only, lipschitz_for(2 * BLOCK, span), "scalar_only")
    assert assert_matches_linspace(phi, -0.25, -0.25 + span) == 2 * BLOCK


@pytest.mark.parametrize(
    "lo, hi, L",
    [
        (0.0, 5e-324, 1e300),  # one interval of the smallest subnormal
        (0.0, 1e-308, 1e305),  # a subnormal span in 5*10^5 intervals: a subnormal step
        (-1e-310, 1e-310, 1.7e308),
        (1.0, math.nextafter(1.0, 2.0), 1e300),  # 10^6 steps of 2e-22 across one ulp
    ],
)
def test_tiny_spans_and_huge_constants(lo, hi, L):
    phi = LipschitzFunction(lambda x: -np.abs(x - hi * 0.3), L, "tiny")
    assert_matches_linspace(phi, lo, hi)
