"""Degenerate inputs that the general code paths must serve exactly.

A zero Lipschitz constant gives the one-interval grid ``[lo, hi]`` and a
zero error bound; a degenerate mean interval gives the upper variance at
its single point.  Each expected value below is exact.
"""

import numpy as np
import pytest

from sublln.ambiguity import AmbiguityFamily, upper_variance
from sublln.lln_rates import IntervalMaxResult, LipschitzFunction, interval_max, linear


@pytest.mark.parametrize(
    "phi, lo, hi, expected",
    [
        (linear(0.0, 0.75), -1.0, 2.0, IntervalMaxResult(-1.0, 0.75, 0.0)),
        (linear(-0.0, -3.5), 0.1, 0.3, IntervalMaxResult(0.1, -3.5, 0.0)),
        # a declared constant of zero is trusted: only the endpoints are evaluated
        (LipschitzFunction(lambda x: x, 0.0, "rising"), 0.1, 0.3, IntervalMaxResult(0.3, 0.3, 0.0)),
        (LipschitzFunction(lambda x: -x, 0.0, "falling"), -2.0, 5.0, IntervalMaxResult(-2.0, 2.0, 0.0)),
        (LipschitzFunction(lambda x: np.cos(x), 0.0, "cos"), 0.0, 1e-300, IntervalMaxResult(0.0, 1.0, 0.0)),
        (LipschitzFunction(lambda x: np.abs(x), 0.0, "abs"), -1e300, 1e300, IntervalMaxResult(-1e300, 1e300, 0.0)),
    ],
    ids=["constant", "negzero", "rising", "falling", "tiny-span", "huge-span"],
)
def test_interval_max_zero_lipschitz(phi, lo, hi, expected):
    res = interval_max(phi, lo, hi)
    assert res == expected
    assert type(res.argmax_r) is float and type(res.max_value) is float


@pytest.mark.parametrize(
    "members, expected",
    [
        ([[(-1.0, 0.5), (1.0, 0.5)]], (1.0, 0.0)),
        ([[(0.5, 1.0)]], (0.0, 0.5)),
        ([[(-1.0, 0.5), (1.0, 0.5)], [(-2.0, 0.5), (2.0, 0.5)]], (4.0, 0.0)),
        ([[(0.0, 0.5), (1.0, 0.5)], [(0.5, 1.0)]], (0.25, 0.5)),
        ([[(-1.5, 0.25), (0.5, 0.75)], [(0.0, 1.0)]], (0.75, 0.0)),
    ],
)
def test_upper_variance_degenerate_mean_interval(members, expected):
    family = AmbiguityFamily.build(0.0, 0.5, members)
    assert upper_variance(family) == expected
