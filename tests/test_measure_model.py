"""One measure model: one `PathMeasure`, one sum-rule meaning, one sampling kernel.

A sum rule reads the lattice value ``k*origin + coord*step`` of the running
sum, the value ``SumSupport.values(k)`` holds, in every evaluator: exact
exact evaluation, path enumeration and Monte Carlo.  On a step-0.1
lattice that value differs in its last bits from a float sum of the
realized atoms, so a threshold rule exposes any evaluator that sums the
atoms itself.
"""

import numpy as np
import pytest

import sublln
from _oracles import per_step_sampler, reduced_sum_counts
from sublln import engine, measures
from sublln.ambiguity import AmbiguityFamily
from sublln.engine import PathMeasure, PolicyIncomplete, build_support, expectation_under_policy
from sublln.measures import conditional_means, history_parity_measure, sample_paths, sample_sum_counts

TENTH = AmbiguityFamily.build(0.0, 0.1, [[(0.0, 0.5), (0.1, 0.25), (0.3, 0.25)], [(0.1, 0.5), (0.2, 0.5)]])
THREE_ATOM = AmbiguityFamily.build(
    0, 1, [[(-1, 0.25), (0, 0.5), (1, 0.25)], [(-1, 0.5), (1, 0.5)], [(0, 0.3), (1, 0.7)]]
)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def recording_threshold_rule(seen, threshold=0.3):
    """Member 1 once the running sum passes ``threshold``, member 0 before; logs each call."""

    def rule(step, total):
        seen.append((step, total))
        return np.array([0.0, 1.0]) if total > threshold else np.array([1.0, 0.0])

    return rule


def test_one_class_owned_by_the_engine():
    assert measures.PathMeasure is engine.PathMeasure is sublln.PathMeasure
    assert measures._admit is engine._admit


def test_forward_and_enumeration_agree_on_a_step_tenth_lattice():
    n = 6
    phi = lambda x: np.abs(x - 0.1)
    measure = PathMeasure.from_sum_rule(recording_threshold_rule([]), n, 2)
    exact = expectation_under_policy(TENTH, n, phi, measure)
    dec = conditional_means(TENTH, measure, n)
    enumerated = float(dec.path_probs @ phi(dec.paths.sum(axis=1) / n))
    assert abs(exact - enumerated) <= 1e-15


def test_every_evaluator_hands_the_rule_the_lattice_sum():
    n = 5
    forward, enumerated, sampled = [], [], []
    expectation_under_policy(TENTH, n, lambda x: x, PathMeasure.from_sum_rule(recording_threshold_rule(forward), n, 2))
    conditional_means(TENTH, PathMeasure.from_sum_rule(recording_threshold_rule(enumerated), n, 2), n)
    sample_paths(TENTH, PathMeasure.from_sum_rule(recording_threshold_rule(sampled), n, 2), n, 200, seed=11)
    support = build_support(TENTH, n)
    lattice = {(k, v) for k in range(n) for v in support.reachable_values(k).tolist()}
    assert set(forward) == lattice
    assert set(enumerated) == lattice
    assert set(sampled) <= lattice and len(sampled) == 200 * n
    assert all(type(total) is float for _, total in forward + enumerated + sampled)


def test_monte_carlo_estimates_the_forward_value():
    n, count = 6, 20_000
    phi = lambda x: np.abs(x - 0.1)
    measure = PathMeasure.from_sum_rule(recording_threshold_rule([]), n, 2)
    exact = expectation_under_policy(TENTH, n, phi, measure)
    counts = sample_sum_counts(TENTH, measure, n, count, seed=5)
    values = np.repeat(phi(build_support(TENTH, n).values(n) / n), counts)
    assert abs(float(values.mean()) - exact) <= 4.0 * float(values.std(ddof=1)) / count**0.5


def sum_rule_measure(n):
    def rule(step, total):
        return np.array([1.0, 0.0, 0.0]) if total < 0 else np.array([0.0, 0.5, 0.5])

    return PathMeasure.from_sum_rule(rule, n, 3)


@pytest.mark.parametrize("block", [1, 9, 50, 64])
@pytest.mark.parametrize(
    "make",
    [
        lambda n: (THREE_ATOM, sum_rule_measure(n)),
        lambda n: (THREE_ATOM, history_parity_measure(THREE_ATOM, n)),
        lambda n: (TENTH, PathMeasure.from_sum_rule(recording_threshold_rule([]), n, 2)),
    ],
    ids=["sum", "history", "tenth-sum"],
)
def test_rule_sampling_over_several_blocks(make, block):
    n, count, seed = 9, 61, 8
    family, measure = make(n)
    want = per_step_sampler(family, measure, n, count, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_UNIFORMS", block)
        assert -(-count // max(1, block // n)) > 1  # more than one block
        paths = sample_paths(family, measure, n, count, seed)
        counts = sample_sum_counts(family, measure, n, count, seed)
    assert np.array_equal(bits(paths), bits(want))
    assert np.array_equal(counts, reduced_sum_counts(family, want)[0])


def test_history_rules_see_python_floats():
    n = 4
    forward, enumerated, sampled = [], [], []

    def recording_history_rule(seen):
        def rule(step, history):
            seen.extend(type(h) for h in history)
            return np.array([0.0, 1.0]) if sum(history) > 0.3 else np.array([1.0, 0.0])

        return rule

    expectation_under_policy(TENTH, n, lambda x: x, PathMeasure.from_history_rule(recording_history_rule(forward), n, 2))
    conditional_means(TENTH, PathMeasure.from_history_rule(recording_history_rule(enumerated), n, 2), n)
    sample_paths(TENTH, PathMeasure.from_history_rule(recording_history_rule(sampled), n, 2), n, 50, seed=3)
    for seen in (forward, enumerated, sampled):
        assert seen and all(t is float for t in seen)


def test_sum_rule_sampling_never_builds_every_path(monkeypatch):
    # sample_sum_counts draws block by block for every measure
    monkeypatch.setattr(measures, "sample_paths", None)
    counts = sample_sum_counts(THREE_ATOM, sum_rule_measure(4), 4, 10, seed=1)
    assert counts.shape == (9,) and counts.sum() == 10


def test_measure_like_object_is_rejected():
    class MeasureLike:
        depends_on, horizon, member_count = "none", 3, 2

        def mixture_weights(self, step, total=None, history=None):
            return np.array([1.0, 0.0])

    family = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])
    with pytest.raises(TypeError, match="^unsupported policy object"):
        expectation_under_policy(family, 3, lambda x: x, MeasureLike())


def test_unknown_dependence_tag_message():
    with pytest.raises(ValueError, match="^unknown dependence tag 'path'$"):
        PathMeasure(3, 2, lambda step: [1.0, 0.0], "path", "bad")


def test_rules_need_what_they_read():
    sum_measure = PathMeasure.from_sum_rule(lambda step, total: [1.0, 0.0], 3, 2, name="s")
    history_measure = PathMeasure.from_history_rule(lambda step, history: [1.0, 0.0], 3, 2, name="h")
    with pytest.raises(PolicyIncomplete, match=r"^measure 's' needs the running sum$"):
        sum_measure.mixture_weights(1, history=(0.0,))
    with pytest.raises(PolicyIncomplete, match=r"^measure 'h' needs the realized history$"):
        history_measure.mixture_weights(1, total=0.0)
