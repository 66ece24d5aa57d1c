"""Expression language: parsing, evaluation, differentiation, printing."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ulamstab import exprlang
from ulamstab.exprlang import (
    DomainError,
    ExprSyntaxError,
    NotDifferentiableError,
    UnboundParameterError,
    UnknownFunctionError,
    compile_expr,
    differentiate,
    evaluate,
    free_params,
    parse,
    to_string,
)


# -- parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text, t, expected",
    [
        ("-1/t", 2.0, -0.5),
        ("t*(1 - t)", 0.5, 0.25),
        ("2+3*4^2", 0.0, 50.0),
        ("2^3^2", 0.0, 512.0),  # right-associative
        ("-2^2", 0.0, -4.0),  # ^ binds tighter than unary minus
        ("t^-2", 2.0, 0.25),  # signed exponent
        ("exp(t)", 0.0, 1.0),
        ("abs(t*(1 - t))", 0.5, 0.25),
        ("1e2 + .5", 0.0, 100.5),
    ],
)
def test_eval_examples(text, t, expected):
    assert evaluate(parse(text), t) == pytest.approx(expected)


def test_tan_example():
    v = evaluate(parse("-tan(t) - 1/t"), 0.5)
    assert v.real == pytest.approx(-math.tan(0.5) - 2.0)
    assert v.imag == 0.0


def test_param_binding():
    e = parse("t^(1 - a)")
    assert evaluate(e, 2.0, {"a": 1.0}) == pytest.approx(1.0)
    assert free_params(e) == {"a"}
    with pytest.raises(UnboundParameterError):
        evaluate(e, 2.0)


def test_imaginary_unit():
    assert evaluate(parse("i*i"), 0.0) == pytest.approx(-1.0)
    assert evaluate(parse("re(2 + 3*i)"), 0.0) == 2.0
    assert evaluate(parse("im(2 + 3*i)"), 0.0) == 3.0


@pytest.mark.parametrize("bad", ["", "   ", "2t", "1 +", "(t", "t @ 2", "2..5"])
def test_syntax_errors(bad):
    with pytest.raises(ExprSyntaxError):
        parse(bad)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("1 + )")
    assert ei.value.offset == 4


def test_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse("foo(t)")


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("1/t"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("log(t)"), 0.0)


# -- differentiation -------------------------------------------------------


def test_diff_examples():
    assert evaluate(differentiate(parse("-1/t")), 2.0) == pytest.approx(0.25)
    d = evaluate(differentiate(parse("-tan(t) - 1/t")), 1.0)
    assert d.real == pytest.approx(-1.0 / math.cos(1.0) ** 2 + 1.0)
    assert evaluate(differentiate(parse("3.5")), 1.0) == 0.0


@pytest.mark.parametrize("fn", ["abs", "re", "im"])
def test_diff_rejects_nondifferentiable(fn):
    with pytest.raises(NotDifferentiableError):
        differentiate(parse(f"{fn}(t)"))


# -- random ASTs -----------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(exprlang.Num),
    st.just(exprlang.Var()),
    st.just(exprlang.Param("a")),
)


def _combine(children):
    ops = st.sampled_from("+-*/^")
    return st.one_of(
        st.tuples(ops, children, children).map(lambda x: exprlang.BinOp(*x)),
        children.map(exprlang.Neg),
        st.tuples(st.sampled_from(("sin", "cos", "exp", "sqrt", "log")), children).map(
            lambda x: exprlang.Call(*x)
        ),
    )


_ast = st.recursive(_leaf, _combine, max_leaves=12)
_params = {"a": 1.25}


@given(e=_ast, t=st.floats(min_value=0.3, max_value=2.7))
@settings(max_examples=150, deadline=None)
def test_print_parse_roundtrip(e, t):
    try:
        want = evaluate(e, t, _params)
    except DomainError:
        assume(False)
    assume(abs(want) < 1e6)
    got = evaluate(parse(to_string(e)), t, _params)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _mp_eval(e, t):
    """``evaluate`` in mpmath arithmetic: the same branches, at high precision."""
    if isinstance(e, exprlang.Num):
        return mpmath.mpc(e.value)
    if isinstance(e, exprlang.Var):
        return mpmath.mpc(t)
    if isinstance(e, exprlang.Param):
        return mpmath.mpc(_params[e.name])
    if isinstance(e, exprlang.Neg):
        return -_mp_eval(e.operand, t)
    if isinstance(e, exprlang.BinOp):
        a, b = _mp_eval(e.left, t), _mp_eval(e.right, t)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        if a == 0 and (b.real < 0 or b.imag != 0):
            raise DomainError("zero base with nonpositive exponent")
        # real positive base, or real base and integer exponent: real branch
        if a.imag == 0 and b.imag == 0 and (a.real > 0 or b.real == int(b.real)):
            return mpmath.mpc(mpmath.power(a.real, b.real))
        return mpmath.power(a, b)
    a = _mp_eval(e.arg, t)
    if e.func == "log" and a == 0:
        raise DomainError("log(0)")
    return getattr(mpmath, e.func)(a)


def _mp_derivative(e, t):
    """d/dt of ``e`` at ``t``: mpmath's central difference at 40 digits.

    mpmath sizes the step to its working precision and adds guard digits,
    so the difference resolves terms that a fixed double-precision step
    cannot, such as cos(t/1e-6).
    """
    with mpmath.workdps(40):
        return complex(mpmath.diff(lambda x: _mp_eval(e, x), mpmath.mpf(t)))


@given(e=_ast, t=st.floats(min_value=0.3, max_value=2.7))
@settings(max_examples=100, deadline=None)
def test_derivative_matches_central_difference(e, t):
    try:
        d = differentiate(e)
    except NotDifferentiableError:
        assume(False)
    try:
        ref = _mp_derivative(e, t)
        sym = evaluate(d, t, _params)
    except DomainError:
        assume(False)
    assume(np.isfinite(abs(ref)) and np.isfinite(abs(sym)) and abs(ref) < 1e5)
    assert abs(sym - ref) <= 1e-5 * (1.0 + abs(ref))


@given(e=_ast, t=st.floats(min_value=0.3, max_value=2.7))
@settings(max_examples=100, deadline=None)
def test_compiled_matches_interpreter(e, t):
    try:
        want = evaluate(e, t, _params)
    except DomainError:
        assume(False)
    assume(abs(want) < 1e8)
    fn = compile_expr(e, _params)
    got = fn(np.array([t]))[0]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_compiled_is_vectorized():
    fn = compile_expr(parse("t^2 - sin(t)"))
    ts = np.linspace(0.1, 2.0, 7)
    vals = fn(ts)
    assert vals.shape == ts.shape
    assert vals[3] == pytest.approx(ts[3] ** 2 - math.sin(ts[3]))


def test_complex_power_overflow_is_infinite():
    # a tiny negative base to a negative non-integer power overflows on the
    # complex branch; both evaluators give infinity instead of raising
    e = parse("(-1.0346814016171131e-196)^(-t)")
    t = 1.6563756637409774
    assert evaluate(e, t) == complex(math.inf, math.inf)
    with np.errstate(over="ignore"):
        assert compile_expr(e)(np.array([t]))[0] == complex(math.inf, math.inf)


def test_real_inputs_stay_real():
    for text in ("sqrt(t)", "log(t)", "t^0.5", "(-t)^2"):
        v = evaluate(parse(text), 1.7)
        assert v.imag == 0.0, text
