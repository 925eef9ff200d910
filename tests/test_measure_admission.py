"""Measure admission and the one enumeration path of sum and history rules.

A measure is admitted once per call of a measures entry point: the family
must be valid, n positive, the measure's horizon long enough and its
member count the family's.  A wrong member count is reported with the
engine's own weight-shape message, whichever entry point sees it first.
"""

import math
import re

import numpy as np
import pytest

from sublln.ambiguity import AmbiguityFamily, FamilyInvalid
from sublln.engine import PolicyIncomplete, expectation_under_policy, extract_argmax_policy
from sublln.lln_rates import abs_dev
from sublln.measures import (
    PathMeasure,
    chatterji_check,
    conditional_means,
    prop2_check,
    sample_path_sums,
    sample_paths,
)

INVALID = AmbiguityFamily.build(0, 1, [[(0.5, 1.0)]])

ENTRY_POINTS = {
    "conditional_means": lambda family, measure, n: conditional_means(family, measure, n),
    "prop2_check": lambda family, measure, n: prop2_check(family, measure, n),
    "chatterji_check": lambda family, measure, n: chatterji_check(family, measure, n, 1.5),
    "sample_paths": lambda family, measure, n: sample_paths(family, measure, n, 10, 3),
    "sample_path_sums": lambda family, measure, n: sample_path_sums(family, measure, n, 10, 3),
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
    # the engine's forward pass says the same for the same input
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
    assert a.measure_name == b.measure_name
    for field in ("atom_values", "paths", "path_probs", "cond_means"):
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
