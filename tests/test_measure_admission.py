"""Measure admission, the one horizon rule and the one enumeration path of sum and history rules.

A measure is admitted once per call of a measures entry point: the family
must be valid, n positive, the measure's horizon long enough and its
member count the family's.  A wrong member count is reported with the
engine's own weight-shape message, whichever entry point sees it first.
Every entry point that takes a horizon, sample count, seed, member index or
state cap takes a Python or numpy integer and no bool, and hands it on as a
Python int, so a numpy integer gives the bits of the equal Python int.
"""

import math
import pickle
import re

import numpy as np
import pytest

from sublln.ambiguity import AmbiguityFamily, FamilyInvalid
from sublln.engine import (
    NonPositiveN,
    PolicyIncomplete,
    SelectionPolicy,
    build_support,
    expectation_under_policy,
    extract_argmax_policy,
    iid_sum_expectation,
    lower_iid_sum_expectation,
    payoff_expectations,
    value_table,
)
from sublln.lln_rates import abs_dev, distance_sq_moment, rate_sweep
from sublln.measures import (
    PathMeasure,
    chatterji_check,
    conditional_means,
    construct_pstar,
    history_parity_measure,
    lower_bound_check,
    lower_bound_checks,
    prop2_check,
    sample_paths,
    sample_sum_counts,
    uniform_mixture,
)

INVALID = AmbiguityFamily.build(0, 1, [[(0.5, 1.0)]])

# Each key is its case's test id.  The cases keyed "expectations_under_policy" and "iid_sum_expectations"
# are payoff_expectations with and without a measure; their keys keep these cases' existing test ids.
ENTRY_POINTS = {
    "conditional_means": lambda family, measure, n: conditional_means(family, measure, n),
    "prop2_check": lambda family, measure, n: prop2_check(conditional_means(family, measure, n)),
    "chatterji_check": lambda family, measure, n: chatterji_check(conditional_means(family, measure, n), 1.5),
    "sample_paths": lambda family, measure, n: sample_paths(family, measure, n, 10, 3),
    "sample_sum_counts": lambda family, measure, n: sample_sum_counts(family, measure, n, 10, 3),
    "expectations_under_policy": lambda family, measure, n: payoff_expectations(family, [abs], [n], measure=measure),
}


def _on_a_two_member_measure(call):
    return lambda family, n: call(family, PathMeasure.constant([0.5, 0.5], 4), n)


# Every entry point that takes a horizon, called on (family, n); results are compared by their pickles.
HORIZON_ENTRY_POINTS = {
    **{name: _on_a_two_member_measure(call) for name, call in ENTRY_POINTS.items()},
    "build_support": lambda family, n: build_support(family, n),
    "value_table": lambda family, n: value_table(family, n, abs),
    "extract_argmax_policy": lambda family, n: extract_argmax_policy(family, n, abs),
    "SelectionPolicy.constant": lambda family, n: SelectionPolicy.constant(family, n, 1),
    "iid_sum_expectations": lambda family, n: payoff_expectations(family, [abs], [n, 1]),
    "rate_sweep": lambda family, n: rate_sweep(family, abs_dev(0.25), [n]),
    "lower_bound_checks": lambda family, n: lower_bound_checks(family, abs_dev(0.25), [1, n]),
}

# The PathMeasure constructors, called on (family, horizon); each keeps the horizon.
MEASURE_CONSTRUCTORS = {
    "PathMeasure.constant": lambda family, n: PathMeasure.constant([0.5, 0.5], n),
    "PathMeasure.from_sum_rule": lambda family, n: PathMeasure.from_sum_rule(lambda k, t: [1.0, 0.0], n, 2),
    "PathMeasure.from_history_rule": lambda family, n: PathMeasure.from_history_rule(lambda k, h: [1.0, 0.0], n, 2),
    "construct_pstar": lambda family, n: construct_pstar(family, 0.5, n),
    "uniform_mixture": lambda family, n: uniform_mixture(family, n),
    "history_parity_measure": lambda family, n: history_parity_measure(family, n),
}

# Every public entry point that takes a state cap, called on (family, state_cap).
CAP_ENTRY_POINTS = {
    "payoff_expectations": lambda family, cap: payoff_expectations(family, [abs, abs_dev(0.5)], [4, 2], cap),
    "iid_sum_expectations": lambda family, cap: payoff_expectations(family, [abs], [4, 2], cap),
    "iid_sum_expectation": lambda family, cap: iid_sum_expectation(family, 4, abs_dev(0.0), cap),
    "lower_iid_sum_expectation": lambda family, cap: lower_iid_sum_expectation(family, 4, abs_dev(0.0), cap),
    "build_support": lambda family, cap: build_support(family, 4, cap),
    "value_table": lambda family, cap: value_table(family, 4, abs, cap),
    "extract_argmax_policy": lambda family, cap: extract_argmax_policy(family, 4, abs, cap),
    "SelectionPolicy.constant": lambda family, cap: SelectionPolicy.constant(family, 4, 1, cap),
    "expectations_under_policy": lambda family, cap: payoff_expectations(
        family, [abs], [4, 2], cap, uniform_mixture(family, 4)
    ),
    "expectation_under_policy": lambda family, cap: expectation_under_policy(
        family, 4, abs, history_parity_measure(family, 4), cap
    ),
    "conditional_means": lambda family, cap: conditional_means(family, uniform_mixture(family, 4), 4, cap),
    "prop2_check": lambda family, cap: prop2_check(conditional_means(family, uniform_mixture(family, 4), 4, cap)),
    "chatterji_check": lambda family, cap: chatterji_check(
        conditional_means(family, uniform_mixture(family, 4), 4, cap), 1.5
    ),
    "lower_bound_checks": lambda family, cap: lower_bound_checks(family, abs_dev(0.0), [2, 4], state_cap=cap),
    "lower_bound_check": lambda family, cap: lower_bound_check(family, abs_dev(0.0), 4, state_cap=cap),
    "distance_sq_moment": lambda family, cap: distance_sq_moment(family, 4, cap),
    "rate_sweep": lambda family, cap: rate_sweep(family, abs_dev(0.0), [2, 4], state_cap=cap),
}

TWO_MEMBER_MEASURES = {
    "constant": PathMeasure.constant([0.5, 0.5], 4),
    "sum": PathMeasure.from_sum_rule(lambda step, total: np.array([0.25, 0.75]), 4, 2),
    "history": PathMeasure.from_history_rule(lambda step, hist: np.array([1.0, 0.0]), 4, 2),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", TWO_MEMBER_MEASURES)
def test_member_count_mismatch_raises_the_engine_message(families, entry, kind):
    message = "mixture weights have shape (2,), expected (3,)"
    assert issubclass(PolicyIncomplete, ValueError)  # callers catching numpy's ValueError still catch it
    with pytest.raises(PolicyIncomplete, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](families["three_atom"], TWO_MEMBER_MEASURES[kind], 3)
    # the engine's exact evaluation says the same for the same input
    with pytest.raises(PolicyIncomplete, match=f"^{re.escape(message)}$"):
        expectation_under_policy(families["three_atom"], 3, lambda x: x, TWO_MEMBER_MEASURES[kind])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_admission_messages(families, entry):
    family = families["delta_pair"]
    call = ENTRY_POINTS[entry]
    with pytest.raises(FamilyInvalid):
        call(INVALID, PathMeasure.constant([1.0], 4), 3)
    with pytest.raises(ValueError, match="^n must be a positive integer, got 0$"):
        call(family, PathMeasure.constant([0.5, 0.5], 4), 0)
    with pytest.raises(PolicyIncomplete, match="^measure horizon 2 is shorter than n=3$"):
        call(family, PathMeasure.constant([0.5, 0.5], 2), 3)


@pytest.mark.parametrize("entry", [*HORIZON_ENTRY_POINTS, *MEASURE_CONSTRUCTORS])
@pytest.mark.parametrize("n", [True, 2.5, 0])
def test_the_horizon_rule_rejects(families, entry, n):
    call = {**HORIZON_ENTRY_POINTS, **MEASURE_CONSTRUCTORS}[entry]
    with pytest.raises(NonPositiveN, match=f"^n must be a positive integer, got {re.escape(repr(n))}$"):
        call(families["delta_pair"], n)


@pytest.mark.parametrize("entry", HORIZON_ENTRY_POINTS)
def test_a_numpy_horizon_gives_the_bits_of_the_int(families, entry):
    call = HORIZON_ENTRY_POINTS[entry]
    assert pickle.dumps(call(families["delta_pair"], np.int64(3))) == pickle.dumps(call(families["delta_pair"], 3))


@pytest.mark.parametrize("entry", MEASURE_CONSTRUCTORS)
def test_a_numpy_horizon_is_kept_as_an_int(families, entry):
    measure = MEASURE_CONSTRUCTORS[entry](families["delta_pair"], np.int64(3))
    assert type(measure.horizon) is int and measure.horizon == 3


@pytest.mark.parametrize("entry", CAP_ENTRY_POINTS)
@pytest.mark.parametrize("cap", [None, True, 2.5, "100", 0, -1], ids=repr)
def test_the_cap_rule_rejects(families, entry, cap):
    with pytest.raises(ValueError, match=f"^state_cap must be a positive integer, got {re.escape(repr(cap))}$"):
        CAP_ENTRY_POINTS[entry](families["three_atom"], cap)


@pytest.mark.parametrize("entry", CAP_ENTRY_POINTS)
def test_a_numpy_cap_gives_the_bits_of_the_int(families, entry):
    call, family = CAP_ENTRY_POINTS[entry], families["three_atom"]
    assert pickle.dumps(call(family, np.int64(10**7))) == pickle.dumps(call(family, 10**7))


@pytest.mark.parametrize("sample", [sample_paths, sample_sum_counts])
def test_sample_count_and_seed_follow_the_integer_rule(families, sample):
    family, measure = families["three_atom"], PathMeasure.constant([0.2, 0.3, 0.5], 4)
    want = sample(family, measure, 4, 9, 2**64 - 1).tobytes()
    assert sample(family, measure, np.int32(4), np.int64(9), np.uint64(2**64 - 1)).tobytes() == want
    for count in (True, 2.5, -1):
        with pytest.raises(ValueError, match=f"^count must be an integer >= 0, got {re.escape(repr(count))}$"):
            sample(family, measure, 4, count, 7)
    for seed in (True, 2.5, -1, 2**64):
        with pytest.raises(ValueError, match=f"^seed must be an unsigned 64-bit integer, got {re.escape(repr(seed))}$"):
            sample(family, measure, 4, 9, seed)


def test_member_index_follows_the_integer_rule(families):
    family = families["three_atom"]
    assert pickle.dumps(SelectionPolicy.constant(family, 3, np.int64(2))) == pickle.dumps(
        SelectionPolicy.constant(family, 3, 2)
    )
    for index in (True, 1.0, -1, 3):
        with pytest.raises(PolicyIncomplete, match=f"^member index {re.escape(repr(index))} out of range$"):
            SelectionPolicy.constant(family, 3, index)


def test_member_count_follows_the_integer_rule(families):
    rule = lambda step, total: [0.2, 0.3, 0.5]
    measure = PathMeasure.from_sum_rule(rule, 3, np.int64(3))
    assert type(measure.member_count) is int and measure.member_count == 3
    assert expectation_under_policy(families["three_atom"], 3, abs, measure) == expectation_under_policy(
        families["three_atom"], 3, abs, PathMeasure.from_sum_rule(rule, 3, 3)
    )
    for count in (2.5, True, "2", 0, -1):
        message = f"^member count must be a positive integer, got {re.escape(repr(count))}$"
        with pytest.raises(PolicyIncomplete, match=message):
            PathMeasure.from_sum_rule(rule, 3, count)
    with pytest.raises(ValueError, match="^member count must be a positive integer, got 0$"):
        PathMeasure.constant([], 3)


def test_expectation_under_policy_admission_messages(families):
    measure = PathMeasure.constant([0.5, 0.5], 4)
    with pytest.raises(FamilyInvalid, match="^member 0 atom 0: value 0.5 is not on the lattice$"):
        expectation_under_policy(INVALID, 3, lambda x: x, measure)
    with pytest.raises(ValueError, match="^n must be a positive integer, got 0$"):
        expectation_under_policy(families["delta_pair"], 0, lambda x: x, measure)


def _cosine_rule(members):
    def rule(step, total):
        w = np.array([1.0 + 0.5 * math.cos(3.0 * total + step + j) for j in range(members)])
        return w / w.sum()

    return rule


def _as_history_rule(measure):
    """The same measure written as a rule of the realized history, whose total is its fsum."""
    return PathMeasure.from_history_rule(
        lambda step, hist: measure.mixture_weights(step, total=math.fsum(hist)),
        measure.horizon,
        measure.member_count,
        name=measure.name,
    )


def _sum_rule_measures(family, n):
    members = len(family.members)
    policy = extract_argmax_policy(family, n, abs_dev(0.1))
    return [
        PathMeasure.from_sum_rule(_cosine_rule(members), n, members, name="cosine"),
        PathMeasure.from_policy(policy, members, name="argmax"),
    ]


def assert_same_decomposition(a, b):
    assert a.measure_name == b.measure_name and a.family == b.family
    for field in ("paths", "path_probs", "cond_means"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), field


@pytest.mark.parametrize("name", ["three_atom", "skewed_pair", "bernoulli_pair"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_sum_rule_decomposition_is_its_history_form(families, name, n):
    family = families[name]
    for measure in _sum_rule_measures(family, n):
        assert_same_decomposition(
            conditional_means(family, measure, n), conditional_means(family, _as_history_rule(measure), n)
        )


@pytest.mark.parametrize("name", ["three_atom", "skewed_pair", "bernoulli_pair"])
def test_sum_rule_sees_the_fsum_of_each_prefix(families, name):
    family = families[name]
    seen = []
    members = len(family.members)
    cosine = _cosine_rule(members)

    def rule(step, total):
        seen.append((step, total))
        return cosine(step, total)

    dec = conditional_means(family, PathMeasure.from_sum_rule(rule, 4, members), 4)
    expected = {(k, math.fsum(path[:k])) for path in dec.paths.tolist() for k in range(4)}
    assert set(seen) == expected
    assert all(type(total) is float for _, total in seen)
