"""Policies as selections, one history walker, and weights checked once.

A ``PathMeasure.from_policy`` measure carries its policy: every evaluator
reads the selections at each window index, never through
``member_at`` or ``dense_index``, and checks the policy's lattice on
admission.  The history forward and ``conditional_means`` are the one
level-by-level walk of the history tree; the forward drops zero-probability
children and caps the live ones.
"""

import numpy as np
import pytest

from sublln import engine
from sublln.ambiguity import AmbiguityFamily
from sublln.corpus import catalog_for, corpus_families
from sublln.engine import (
    PolicyIncomplete,
    SelectionPolicy,
    SumSupport,
    SupportOverflow,
    build_support,
    expectation_under_policy,
    extract_argmax_policy,
    pairwise_total,
    payoff_expectations,
)
from sublln.lln_rates import abs_dev
from sublln.measures import (
    PathMeasure,
    conditional_means,
    construct_pstar,
    history_parity_measure,
    sample_paths,
    sample_sum_counts,
)

from _oracles import eval_history_policy, history_nodes

DELTA_PAIR = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])


def as_sum_rule(measure):
    """The same measure as a plain sum rule, answered through ``mixture_weights`` and so ``member_at``."""
    return PathMeasure.from_sum_rule(
        lambda step, total: measure.mixture_weights(step, total=total),
        measure.horizon,
        measure.member_count,
        name=measure.name,
    )


def raise_if_called(*args, **kwargs):
    raise AssertionError("an evaluator looked a state up")


@pytest.mark.parametrize("name", ["three_atom", "skewed_pair", "bernoulli_pair"])
def test_policy_measures_read_selections_without_lookups(families, monkeypatch, name):
    family = families[name]
    n = 5
    phi = abs_dev(0.1)
    policy = extract_argmax_policy(family, n, phi)
    measure = PathMeasure.from_policy(policy, len(family.members), name="argmax")
    rule = as_sum_rule(measure)
    want_value = expectation_under_policy(family, n, phi, policy)
    want_dec = conditional_means(family, rule, n)
    want_paths = sample_paths(family, rule, n, 40, 5)
    want_counts = sample_sum_counts(family, rule, n, 40, 5)
    monkeypatch.setattr(SumSupport, "dense_index", raise_if_called)
    monkeypatch.setattr(SelectionPolicy, "member_at", raise_if_called)
    assert expectation_under_policy(family, n, phi, measure) == want_value
    dec = conditional_means(family, measure, n)
    for field in ("paths", "path_probs", "cond_means"):
        assert getattr(dec, field).tobytes() == getattr(want_dec, field).tobytes(), field
    assert sample_paths(family, measure, n, 40, 5).tobytes() == want_paths.tobytes()
    assert sample_sum_counts(family, measure, n, 40, 5).tobytes() == want_counts.tobytes()


def test_policy_from_another_grid_rejected_by_every_evaluator():
    even = AmbiguityFamily.build(0, 1, [[(0, 0.5), (2, 0.5)]])
    dense = AmbiguityFamily.build(0, 1, [[(0, 0.25), (1, 0.5), (2, 0.25)]])
    measure = PathMeasure.from_policy(extract_argmax_policy(even, 3, lambda x: x), 1)
    message = "^policy was extracted for a different lattice grid$"
    with pytest.raises(PolicyIncomplete, match=message):
        conditional_means(dense, measure, 3)
    with pytest.raises(PolicyIncomplete, match=message):
        sample_paths(dense, measure, 3, 10, 1)
    with pytest.raises(PolicyIncomplete, match=message):
        sample_sum_counts(dense, measure, 3, 10, 1)
    with pytest.raises(PolicyIncomplete, match=message):
        expectation_under_policy(dense, 3, lambda x: x, measure)


def test_holed_policy_raises_in_every_evaluator():
    # member 0 always: every reachable sum is 0.0, so each evaluator names the same state
    policy = SelectionPolicy.constant(DELTA_PAIR, 3, 0)
    holed = SelectionPolicy(
        policy.support,
        (policy.selections[0], np.full_like(policy.selections[1], -1), policy.selections[2]),
    )
    measure = PathMeasure.from_policy(holed, 2)
    message = r"^no selection at step 1, sum 0\.0$"
    for evaluate in (
        lambda: expectation_under_policy(DELTA_PAIR, 3, lambda x: x, holed),
        lambda: expectation_under_policy(DELTA_PAIR, 3, lambda x: x, measure),
        lambda: conditional_means(DELTA_PAIR, measure, 3),
        lambda: sample_paths(DELTA_PAIR, measure, 3, 10, 1),
        lambda: sample_sum_counts(DELTA_PAIR, measure, 3, 10, 1),
    ):
        with pytest.raises(PolicyIncomplete, match=message):
            evaluate()


def parity_assignment(family, n):
    lat, m = family.lattice, len(family.members)
    return {h: (lat.coord(h[-1]) % m if h else 0) for h in history_nodes(family, n)}


@pytest.mark.parametrize("name", list(corpus_families()))
def test_history_forward_matches_the_tree_oracle(families, name):
    family = families[name]
    for n in range(1, 8):
        measure = history_parity_measure(family, n)
        assignment = parity_assignment(family, n)
        for i, phi in enumerate(catalog_for(family)):
            got = expectation_under_policy(family, n, phi, measure)
            want = eval_history_policy(family, n, lambda x: float(phi(x)), assignment)
            assert abs(got - want) <= 1e-14, (n, i)


def depth_first_mass(family, n, support, assignment):
    """Leaf probabilities added into the reduced window in the order of a node-by-node depth-first walk."""
    lat = family.lattice
    members = [list(m.atoms) for m in family.members]
    mass = np.zeros(support.size(n))
    stack = [((), 0, 1.0)]
    while stack:
        h, coord, pr = stack.pop()
        if len(h) == n:
            mass[(coord - n * support.k_min) // support.gcd] += pr
            continue
        for v, w in members[assignment[h]]:
            if w:
                stack.append((h + (v,), coord + lat.coord(v), pr * w))
    return mass


@pytest.mark.parametrize("name", list(corpus_families()))
def test_history_forward_adds_leaves_depth_first(families, name):
    # a one-hot rule makes every child probability exact, so only the order of the additions can differ
    family = families[name]
    for n in range(1, 7):
        support = build_support(family, n)
        mass = depth_first_mass(family, n, support, parity_assignment(family, n))
        measure = history_parity_measure(family, n)
        for i, phi in enumerate(catalog_for(family)):
            want = pairwise_total(mass[support.masks[n]] * phi(support.reachable_values(n) / n))
            assert expectation_under_policy(family, n, phi, measure) == want, (n, i)


def live_nodes(family, n, assignment):
    """Histories of nonzero probability below the root, counted node by node."""
    members = [list(m.atoms) for m in family.members]
    count, stack = 0, [()]
    while stack:
        h = stack.pop()
        if len(h) == n:
            continue
        for v, w in members[assignment[h]]:
            if w:
                count += 1
                stack.append(h + (v,))
    return count


@pytest.mark.parametrize("name", ["three_atom", "skewed_pair", "bernoulli_pair"])
def test_history_forward_cap_boundary(families, name):
    family = families[name]
    n = 6
    live = live_nodes(family, n, parity_assignment(family, n))
    measure = history_parity_measure(family, n)
    phi = catalog_for(family)[0]
    expectation_under_policy(family, n, phi, measure, state_cap=live)
    message = f"^history-dependent forward pass exceeds the cap of {live - 1} paths$"
    with pytest.raises(SupportOverflow, match=message):
        expectation_under_policy(family, n, phi, measure, state_cap=live - 1)


def test_constant_weights_checked_once_per_step(families, monkeypatch):
    family = families["three_atom"]
    n = 6
    calls = []
    check = engine._check_weights
    monkeypatch.setattr(engine, "_check_weights", lambda w, m: calls.append(1) or check(w, m))
    measure = construct_pstar(family, 0.0, n)
    for _ in range(2):
        expectation_under_policy(family, n, abs_dev(0.1), measure)
        conditional_means(family, measure, 4)
        sample_sum_counts(family, measure, n, 20, 3)
    assert len(calls) == n
    w = measure.mixture_weights(0)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.5
    # a rule's output is checked on every call
    calls.clear()
    rule = PathMeasure.from_sum_rule(lambda step, total: np.array([0.25, 0.25, 0.5]), n, 3)
    rule.mixture_weights(0, total=0.0)
    rule.mixture_weights(0, total=0.0)
    assert len(calls) == 2


def test_invalid_constant_weights_raise_on_every_call():
    bad = PathMeasure.constant([0.7, 0.7], 2)
    for _ in range(2):
        with pytest.raises(PolicyIncomplete, match="do not sum to one"):
            bad.mixture_weights(0)


def test_member_weights_drift_is_not_compounded():
    # validation accepts the first member although its weights sum to 1 + 9e-13
    family = AmbiguityFamily.build(0, 1, [[(0, 0.5 + 9e-13), (1, 0.5)], [(0, 0.25), (1, 0.75)]])
    ns = (1024, 4096)
    for n, value in zip(ns, payoff_expectations(family, [lambda x: np.ones_like(x)], ns)[0]):
        assert abs(value - 1.0) <= n * 2.0**-53, n
