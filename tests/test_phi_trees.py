"""Catalog shapes as expression trees: the lambdas' bits, a sound enclosure, and the pruned limit search.

Every catalog constructor builds a ``PhiExpression`` tree.  The tree must
return the bits of the lambda it replaced (kept in ``_oracles``) on the
limit-search grid of every corpus family and shipped config, at the kinks
and at both signed zeros.  ``PhiExpression.enclose`` must bound every float
evaluation inside its interval, and ``interval_max``, which skips the grid
blocks whose enclosure cannot hold the maximum, must keep the full grid's
``np.argmax`` result bit for bit.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import LAMBDA_CATALOG, lambda_catalog_for, linspace_interval_max
from sublln import lln_rates
from sublln.ambiguity import mean_bounds
from sublln.config import parse_config
from sublln.corpus import catalog_for
from sublln.lln_rates import CATALOG, LipschitzFunction, interval_max
from sublln.phi_expr import Abs, Add, Clip, Div, Max, Min, Mul, Neg, Num, PhiExpression, Sub, Var, parse_phi

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BLOCK = lln_rates._GRID_BLOCK


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def hexes(*values):
    return [float(v).hex() for v in values]


def limit_grid(phi, lo, hi):
    """The limit search's grid points, as ``np.linspace`` builds them."""
    intervals = linspace_interval_max(phi, lo, hi)[3]
    return np.linspace(lo, hi, intervals + 1) if intervals else np.array([lo])


def kinks(lo, hi):
    """The interval ends, the midpoint and their float neighbours, and both signed zeros."""
    points = [lo, hi, 0.5 * (lo + hi), 0.0, -0.0]
    return np.array(points + [math.nextafter(p, s) for p in points for s in (-math.inf, math.inf)])


def assert_same_bits(tree, reference, xs):
    assert isinstance(tree.evaluator, PhiExpression)
    assert np.array_equal(bits(tree(xs)), bits(reference(xs)))
    for x in xs[:5].tolist():  # scalar calls too, signed zeros among them
        assert float(tree(x)).hex() == float(reference(x)).hex()


def shipped_shapes():
    """``(tree, lambda, lo, hi)`` for every corpus shape and every shipped config."""
    from sublln.corpus import corpus_families

    for family in corpus_families().values():
        bounds = mean_bounds(family)
        for tree, reference in zip(catalog_for(family), lambda_catalog_for(family)):
            yield tree, reference, *bounds
    for path in sorted(CONFIGS.glob("*.json")):
        config = parse_config(path.read_bytes())
        spec = config.phi_spec
        yield config.phi, LAMBDA_CATALOG[spec["catalog"]](**spec["params"]), *mean_bounds(config.family)


def test_trees_keep_the_lambda_bits():
    count = 0
    for tree, reference, lo, hi in shipped_shapes():
        assert_same_bits(tree, reference, kinks(lo, hi))
        assert_same_bits(tree, reference, limit_grid(tree, lo, hi))
        count += 1
    assert count == 7 * 6 + 8


def test_clip_keeps_the_sign_of_zero():
    # a min(max(x, lo), hi) tree would give +0.0 here
    phi = CATALOG["clip"].build(None, lo=0.0, hi=1.0)
    assert float(phi(-0.0)).hex() == "-0x0.0p+0"
    assert bits(phi(np.array([-0.0, 0.0]))).tolist() == bits([-0.0, 0.0]).tolist()


def test_config_expression_is_the_tree():
    spec = json.loads((CONFIGS / "three_atom.json").read_text())
    spec["phi"] = {"expression": "abs(x - 0.25)", "lipschitz": 1.0}
    config = parse_config(json.dumps(spec).encode())
    assert config.phi.evaluator == parse_phi("abs(x - 0.25)")


# ---------------------------------------------------------------- enclosure soundness


@st.composite
def trees(draw, depth=0):
    """Random trees over every node type, ``Clip`` and a shared ``Mul(d, d)`` included."""
    leaves = ["x", "x", "num"]  # x twice: most trees should vary
    nodes = ["neg", "add", "sub", "mul", "square", "div", "abs", "min", "max", "clip"]
    kinds = leaves if depth >= 4 else leaves + nodes
    kind = draw(st.sampled_from(kinds))
    if kind == "x":
        return Var()
    if kind == "num":
        return Num(draw(st.one_of(st.floats(-8, 8), st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324]))))
    a = draw(trees(depth=depth + 1))
    if kind == "neg":
        return Neg(a)
    if kind == "abs":
        return Abs(a)
    if kind == "square":
        return Mul(a, a)
    if kind == "div":
        return Div(a, Num(draw(st.floats(0.25, 4.0) | st.floats(-4.0, -0.25))))
    if kind == "clip":
        lo, hi = sorted(draw(st.lists(st.floats(-8, 8), min_size=2, max_size=2)))
        return Clip(a, lo, hi)
    b = draw(trees(depth=depth + 1))
    return {"add": Add, "sub": Sub, "mul": Mul, "min": Min, "max": Max}[kind](a, b)


intervals = st.tuples(
    st.one_of(st.floats(-10, 10), st.floats(-1e-300, 1e-300), st.floats(-1e200, 1e200)),
    st.one_of(st.floats(0, 20), st.floats(1e-3, 20), st.floats(0, 1e-300), st.floats(0, 1e200)),
)


@settings(max_examples=400, deadline=None)
@given(
    root=trees(), interval=intervals, ts=st.lists(st.floats(0, 1), min_size=1, max_size=20), pieces=st.integers(1, 4)
)
def test_enclosure_bounds_every_float_evaluation(root, interval, ts, pieces):
    lo, width = interval
    hi = lo + width
    assume(math.isfinite(hi))
    expr = PhiExpression("random", root)
    # the interval and ``pieces`` consecutive pieces of it, enclosed at once as arrays
    cuts = np.linspace(lo, hi, pieces + 1)
    cuts[-1] = hi
    los, his = np.concatenate([[lo], cuts[:-1]]), np.concatenate([[hi], cuts[1:]])
    lows, highs = expr.enclose(los, his)
    assert lows.shape == highs.shape == los.shape
    for a, b, low, high in zip(los.tolist(), his.tolist(), lows.tolist(), highs.tolist()):
        assert math.isnan(low) == math.isnan(high)
        if math.isnan(low):
            continue
        assert math.isfinite(low) and math.isfinite(high) and low <= high
        xs = np.clip(np.array([a, b] + [a + t * (b - a) for t in ts]), a, b)
        values = expr(xs)
        assert np.all(values >= low) and np.all(values <= high), (a, b, low, high)


def test_enclosure_is_nan_where_a_nan_could_hide():
    # x*1e308*10 overflows, inf - inf is NaN, and NaN passes through min and max; finite ends would lie
    expr = parse_phi("max(min(x*1e308*10-x*1e308*10,5),3)")
    assert math.isnan(float(expr(1.0)))
    low, high = expr.enclose(0.0, 2.0)
    assert math.isnan(low) and math.isnan(high)
    phi = LipschitzFunction(expr, 1.0, "nan")
    want = linspace_interval_max(phi, 0.0, 2.0)
    got = interval_max(phi, 0.0, 2.0)
    assert math.isnan(got.max_value)
    assert hexes(got.argmax_r, got.grid_error_bound) == hexes(want[0], want[2])


def test_enclosure_is_exact_at_a_point():
    expr = parse_phi("abs(x - 0.25) * 3 - min(x, 1) / 7")
    for x in (-2.0, 0.25, 0.1, 5.0):
        low, high = expr.enclose(x, x)
        assert float(low) == float(high) == float(expr(x))


# ---------------------------------------------------------------- the pruned limit search


def assert_matches_linspace(phi, lo, hi):
    want = linspace_interval_max(phi, lo, hi)
    got = interval_max(phi, lo, hi)
    assert hexes(got.argmax_r, got.max_value, got.grid_error_bound) == hexes(*want[:3])


def shape(name, p, q):
    """A catalog shape from two numbers in [-1, 1]: linear's a and b, or a centre, or an ordered pair."""
    lo, hi = sorted((p, q))
    return {
        "linear": lambda: CATALOG["linear"].build(None, a=p, b=q),
        "abs_dev": lambda: CATALOG["abs_dev"].build(None, c=p),
        "neg_abs_dev": lambda: CATALOG["neg_abs_dev"].build(None, c=p),
        "clip": lambda: CATALOG["clip"].build(None, lo=lo, hi=hi),
        "interval_dist_sq": lambda: lln_rates.interval_dist_sq(lo, hi, -3.0, 3.0),
    }[name]()


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(CATALOG)),
    p=st.floats(-1.0, 1.0),
    q=st.floats(-1.0, 1.0),
    lo=st.floats(-1.5, 1.5),
    span=st.floats(1e-6, 3.0),
    points=st.one_of(st.none(), st.integers(2, 3 * BLOCK + 1), st.sampled_from([BLOCK, BLOCK + 1, 2 * BLOCK + 1])),
)
def test_pruned_search_keeps_the_grid_maximum(name, p, q, lo, span, points):
    phi = shape(name, p, q)
    if points is not None:  # a constant for which the grid has exactly ``points`` points
        phi = LipschitzFunction(phi.evaluator, (points - 1.5) * 2e-9 / span, phi.name)
    assert_matches_linspace(phi, lo, lo + span)


@pytest.mark.parametrize(
    "phi, lo, hi",
    [
        (lln_rates.abs_dev(0.0), -1.0, 1.0),  # equal maxima at both ends: the first point
        (lln_rates.abs_dev(0.5), 0.0, 1.0),
        (lln_rates.neg_abs_dev(0.0), -0.5, 0.5),  # a maximum of -0.0 against later +0.0 bounds
        (lln_rates.linear(0.0, 0.0), -1.0, 1.0),  # every point ties
        (lln_rates.linear(-0.0, -0.0), 0.0, 1.0),
        (lln_rates.interval_dist_sq(0.25, 0.75, 0.0, 1.0), 0.25, 0.75),  # zero everywhere
        (lln_rates.clip_to(-1.0, BLOCK * 1e-6), 0.0, 1.0),  # plateau from the first point of block 1
        (lln_rates.clip_to(-1.0, (BLOCK - 1) * 1e-6), 0.0, 1.0),  # plateau from the last point of block 0
        (lln_rates.clip_to(-0.0, 0.0), -1.0, 1.0),  # -0.0 up to 0, then +0.0: the first -0.0 wins
    ],
)
def test_ties_and_plateaus(phi, lo, hi):
    assert_matches_linspace(phi, lo, hi)


def test_plateau_across_a_block_boundary():
    # -max(a - x, 0) - max(x - b, 0): a plateau of 0 from just before block 1 into block 2
    step = 1e-6
    a, b = (BLOCK - 5) * step, (2 * BLOCK + 7) * step
    tree = PhiExpression("plateau", Sub(Neg(Max(Sub(Num(a), Var()), Num(0.0))), Max(Sub(Var(), Num(b)), Num(0.0))))
    phi = LipschitzFunction(tree, 1.0, "plateau")
    assert_matches_linspace(phi, 0.0, 1.0)
    assert interval_max(phi, 0.0, 1.0).argmax_r == a


def test_an_equal_maximum_in_a_lower_block_with_a_tighter_bound():
    # Two peaks of zero at grid points c1 < c2.  The x - x term widens the enclosure around c2, so
    # that block goes first and sets the best to +0.0.  The block of c1 bounds at -0.0, not below
    # +0.0, and starts before the best index, so it is searched and its -0.0 at c1 wins the tie.
    step = 1.0 / 10**6
    c1, c2 = 250_000 * step, 750_000 * step
    peak = lambda c: Neg(Abs(Sub(Var(), Num(c))))  # noqa: E731
    tree = PhiExpression("two peaks", Max(peak(c1), Add(peak(c2), Sub(Var(), Var()))))
    phi = LipschitzFunction(tree, 1.0, "two peaks")
    assert_matches_linspace(phi, 0.0, 1.0)
    got = interval_max(phi, 0.0, 1.0)
    assert got.argmax_r == c1 and float(got.max_value).hex() == "-0x0.0p+0"
