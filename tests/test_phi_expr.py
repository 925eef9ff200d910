import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublln.phi_expr import PhiSyntaxError, parse_phi


class TestParsing:
    def test_abs_shift(self):
        expr = parse_phi("abs(x-0.5)")
        assert expr(0.0) == 0.5
        assert expr(1.25) == 0.75

    def test_syntax_error_offset(self):
        with pytest.raises(PhiSyntaxError) as exc:
            parse_phi("1+*2")
        assert exc.value.offset == 2

    def test_max_min_equals_abs_on_grid(self):
        expr = parse_phi("max(x,0)-min(x,0)")
        xs = np.linspace(-10.0, 10.0, 10_001)
        assert np.max(np.abs(expr(xs) - np.abs(xs))) <= 1e-12

    def test_precedence(self):
        assert parse_phi("1+2*3").evaluate(0.0) == 7.0
        assert parse_phi("-x*3").evaluate(2.0) == -6.0  # unary binds tighter than *
        assert parse_phi("2-1-1").evaluate(0.0) == 0.0  # left associative
        assert parse_phi("6/2/3").evaluate(0.0) == 1.0
        assert parse_phi("-(x+1)").evaluate(1.0) == -2.0

    def test_numbers(self):
        assert parse_phi("1.5e2").evaluate(0.0) == 150.0
        assert parse_phi(".25").evaluate(0.0) == 0.25
        assert parse_phi("2.").evaluate(0.0) == 2.0

    def test_nested_functions(self):
        expr = parse_phi("min(abs(x-1),max(x,0.5))")
        assert expr(0.0) == 0.5
        assert expr(2.0) == 1.0

    def test_whitespace(self):
        assert parse_phi(" abs( x - 0.5 ) ").evaluate(1.0) == 0.5

    def test_vectorized_constant(self):
        expr = parse_phi("3.5")
        out = expr(np.zeros(4))
        assert out.shape == (4,)
        assert np.all(out == 3.5)


class TestDivision:
    def test_constant_divisor_ok(self):
        assert parse_phi("x/4").evaluate(2.0) == 0.5
        assert parse_phi("x/(1+1)").evaluate(4.0) == 2.0

    def test_variable_divisor_rejected(self):
        with pytest.raises(PhiSyntaxError) as exc:
            parse_phi("x/(x-1)")
        assert "constant" in str(exc.value)
        assert exc.value.offset == 1

    def test_zero_constant_divisor_rejected(self):
        with pytest.raises(PhiSyntaxError):
            parse_phi("x/(2-2)")
        with pytest.raises(PhiSyntaxError):
            parse_phi("1/0")


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "(", "abs(x", "min(x)", "max(x,0", "1 2", "x x", "foo(3)", "x+", "*", "1..2"],
    )
    def test_rejected(self, text):
        with pytest.raises(PhiSyntaxError):
            parse_phi(text)

    def test_offsets_point_at_problem(self):
        with pytest.raises(PhiSyntaxError) as exc:
            parse_phi("abs(x)+bogus")
        assert exc.value.offset == 7

    @pytest.mark.parametrize("text, offset", [("x*0+1e309", 4), ("max(x, 2e400)", 7)])
    def test_overflowing_literal_rejected_at_its_offset(self, text, offset):
        with pytest.raises(PhiSyntaxError) as exc:
            parse_phi(text)
        assert exc.value.offset == offset
        assert "overflows to inf" in str(exc.value)


@st.composite
def expression_trees(draw, depth=0):
    """Random expression source text with a reference evaluator."""
    leaf = draw(st.sampled_from(["x", "num"])) if depth >= 3 else None
    kind = leaf or draw(
        st.sampled_from(["x", "num", "neg", "add", "sub", "mul", "div", "abs", "min", "max"])
    )
    if kind == "x":
        return "x", lambda x: x
    if kind == "num":
        v = draw(st.floats(-8, 8).map(lambda f: round(f, 3)))
        return repr(v), lambda x, v=v: v
    if kind == "neg":
        s, f = draw(expression_trees(depth=depth + 1))
        return f"-({s})", lambda x, f=f: -f(x)
    a_s, a_f = draw(expression_trees(depth=depth + 1))
    if kind == "abs":
        return f"abs({a_s})", lambda x, f=a_f: abs(f(x))
    b_s, b_f = draw(expression_trees(depth=depth + 1))
    if kind == "add":
        return f"({a_s})+({b_s})", lambda x: a_f(x) + b_f(x)
    if kind == "sub":
        return f"({a_s})-({b_s})", lambda x: a_f(x) - b_f(x)
    if kind == "mul":
        return f"({a_s})*({b_s})", lambda x: a_f(x) * b_f(x)
    if kind == "div":
        d = draw(st.floats(0.5, 4.0).map(lambda f: round(f, 3)))
        return f"({a_s})/{d!r}", lambda x, d=d: a_f(x) / d
    if kind == "min":
        return f"min({a_s},{b_s})", lambda x: min(a_f(x), b_f(x))
    return f"max({a_s},{b_s})", lambda x: max(a_f(x), b_f(x))


@settings(max_examples=150, deadline=None)
@given(expression_trees(), st.floats(-5, 5))
def test_random_trees_match_reference(tree, x):
    source, reference = tree
    expr = parse_phi(source)
    assert float(expr(x)) == pytest.approx(reference(x), rel=1e-12, abs=1e-12)
