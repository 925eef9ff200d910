"""Monte Carlo as counts of path sums: ``sample_sum_counts`` and the ``mc`` check that reads it.

The counts are checked against the paths themselves (their coordinate sums,
binned on the gcd-reduced window by ``reduced_sum_counts``), pinned by hash at
two shipped configs, and the ``mc`` check's memory is checked not to grow with
the sample size.
"""

import dataclasses
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import reduced_sum_counts
from sublln import cli, measures
from sublln.ambiguity import mean_bounds
from sublln.config import parse_config
from sublln.corpus import catalog_for, corpus_families
from sublln.engine import extract_argmax_policy
from sublln.measures import (
    PathMeasure,
    construct_pstar,
    history_parity_measure,
    sample_paths,
    sample_sum_counts,
    uniform_mixture,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FAMILIES = corpus_families()
N = 5
ROWS = 8  # paths per block while the tests below run


def sum_rule(family, n):
    m = len(family.members)

    def rule(step, total):
        w = np.zeros(m)
        w[0 if total < 0 else m - 1] = 1.0
        return w

    return PathMeasure.from_sum_rule(rule, n, m, name="sign-rule")


def argmax_measure(family, n):
    policy = extract_argmax_policy(family, n, catalog_for(family)[0])
    return PathMeasure.from_policy(policy, len(family.members), name="argmax-policy")


MEASURES = {
    "pstar": lambda family, n: construct_pstar(family, sum(mean_bounds(family)) / 2, n),
    "uniform": uniform_mixture,
    "sum-rule": sum_rule,
    "argmax": argmax_measure,
    "parity": history_parity_measure,
}


@pytest.mark.parametrize("count", [0, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
@pytest.mark.parametrize("kind", sorted(MEASURES))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_counts_bin_the_sampled_paths(name, kind, count, monkeypatch):
    family = FAMILIES[name]
    measure = MEASURES[kind](family, N)
    monkeypatch.setattr(measures, "_BLOCK_UNIFORMS", ROWS * N)
    seed = 11
    counts = sample_sum_counts(family, measure, N, count, seed)
    paths = sample_paths(family, measure, N, count, seed)
    want, sums = reduced_sum_counts(family, paths)
    assert counts.dtype == np.int64 and counts.sum() == count
    assert np.array_equal(counts, want)
    # the float sums of the paths, as a multiset, are the lattice sums the counts index
    assert np.array_equal(np.repeat(sums, counts), np.sort(paths.sum(axis=1)))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_counts_at_the_real_block_size(offset):
    config = parse_config((CONFIGS / "three_atom.json").read_bytes())
    n = config.mc_horizon
    pstar = cli._RunPlan(config, ["mc"]).pstar
    count = measures._BLOCK_UNIFORMS // n + offset
    counts = sample_sum_counts(config.family, pstar, n, count, config.seed)
    assert np.array_equal(counts, reduced_sum_counts(config.family, sample_paths(config.family, pstar, n, count, config.seed))[0])


def test_no_boundary_left_counts_every_path_at_one_sum(monkeypatch):
    config = parse_config((CONFIGS / "two_point_masses.json").read_bytes())
    pstar = cli._RunPlan(config, ["mc"]).pstar
    monkeypatch.setattr(measures, "mantissas", None)  # a draw would fail
    for count in (0, 10**9):
        counts = sample_sum_counts(config.family, pstar, config.mc_horizon, count, config.seed)
        assert counts.sum() == count and np.count_nonzero(counts) == (count > 0)


# The histograms of two shipped configs at their own seeds, on the gcd-reduced window (51 entries on
# bernoulli_pair, whose atom coordinates are 2 apart), pinned to the bit:
# a change to the stream, the inverse-CDF lookup or the sums shows up here.
COUNT_SHA256 = {
    "three_atom": "50117f1501119cdeca228eac3b07ad1ebd2a1567d2b24142c803aa73ab9274ae",
    "bernoulli_pair": "9765da932bef1a2047c60770a01b44518bedbe09d949b0b011ed71f53aef2714",
}


@pytest.mark.parametrize("stem", sorted(COUNT_SHA256))
def test_count_histograms_pinned(stem):
    config = parse_config((CONFIGS / f"{stem}.json").read_bytes())
    pstar = cli._RunPlan(config, ["mc"]).pstar
    counts = sample_sum_counts(config.family, pstar, config.mc_horizon, config.mc_samples, config.seed)
    assert hashlib.sha256(counts.tobytes()).hexdigest() == COUNT_SHA256[stem]


def traced_peak(config) -> int:
    plan = cli._RunPlan(config, ["mc"])
    plan.e_pstars  # the exact value's sweep is not the sampler's memory
    tracemalloc.start()
    try:
        cli._check_mc(config, plan)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_memory_does_not_grow_with_the_sample_size():
    config = parse_config((CONFIGS / "three_atom.json").read_bytes())
    small = traced_peak(dataclasses.replace(config, mc_samples=10**4))
    large = traced_peak(dataclasses.replace(config, mc_samples=10**6))
    assert large - small <= 0.5 * 2**20, (small, large)
