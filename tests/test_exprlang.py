"""Expression language: parsing, compilation, differentiation, printing."""

import cmath
import json
import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expr_oracle import DomainError, evaluate, mp_eval, numpy_eval
from ulamstab import exprlang
from ulamstab.exprlang import (
    ExprSyntaxError,
    NotDifferentiableError,
    UnboundParameterError,
    UnknownFunctionError,
    compile_expr,
    differentiate,
    free_params,
    parse,
    to_string,
)


def _scalar_and_batch(e, t, params=None):
    """The compiled function at ``t``: a scalar input, then an array input."""
    fn = compile_expr(e, params)
    return fn(t), fn(np.array([t]))[0]


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
    for v in _scalar_and_batch(parse(text), t):
        assert v == pytest.approx(expected)


def test_tan_example():
    for v in _scalar_and_batch(parse("-tan(t) - 1/t"), 0.5):
        assert v.real == pytest.approx(-math.tan(0.5) - 2.0)
        assert v.imag == 0.0


def test_param_binding():
    e = parse("t^(1 - a)")
    assert _scalar_and_batch(e, 2.0, {"a": 1.0}) == (1.0, 1.0)
    assert free_params(e) == {"a"}
    with pytest.raises(UnboundParameterError):
        compile_expr(e)


def test_imaginary_unit():
    assert _scalar_and_batch(parse("i*i"), 0.0) == (-1.0, -1.0)
    assert _scalar_and_batch(parse("re(2 + 3*i)"), 0.0) == (2.0, 2.0)
    assert _scalar_and_batch(parse("im(2 + 3*i)"), 0.0) == (3.0, 3.0)


@pytest.mark.parametrize("bad", ["", "   ", "2t", "1 +", "(t", "t @ 2", "2..5", ".", "..5", "1+."])
def test_syntax_errors(bad):
    with pytest.raises(ExprSyntaxError):
        parse(bad)


@pytest.mark.parametrize("bad, offset", [(".", 0), ("..5", 0), ("1+.", 2)])
def test_bare_dot_error_carries_offset(bad, offset):
    with pytest.raises(ExprSyntaxError) as ei:
        parse(bad)
    assert ei.value.offset == offset


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("1 + )")
    assert ei.value.offset == 4


def test_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse("foo(t)")


def test_domain_errors():
    # the oracle raises; the compiled function gives inf/nan at a scalar t
    # and in an array, without an exception or a floating-point warning
    for text in ("1/t", "log(t)"):
        with pytest.raises(DomainError):
            evaluate(parse(text), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in _scalar_and_batch(parse(text), 0.0):
                assert not np.isfinite(v), text


# -- differentiation -------------------------------------------------------


def test_diff_examples():
    for v in _scalar_and_batch(differentiate(parse("-1/t")), 2.0):
        assert v == pytest.approx(0.25)
    for d in _scalar_and_batch(differentiate(parse("-tan(t) - 1/t")), 1.0):
        assert d.real == pytest.approx(-1.0 / math.cos(1.0) ** 2 + 1.0)
    assert _scalar_and_batch(differentiate(parse("3.5")), 1.0) == (0.0, 0.0)


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
@example(e=parse("exp(2/0.001953125)"), t=1.0)  # e^1024 outside the double range
# a negative base to an exponent that overflows to inf: 1, as in IEEE pow
@example(
    e=exprlang.BinOp("^", exprlang.Neg(exprlang.Var()), exprlang.BinOp("^", exprlang.Num(7.972540881530111e-255), exprlang.Num(-2.0))),
    t=1.0,
)
@settings(max_examples=150, deadline=None)
def test_print_parse_roundtrip(e, t):
    try:
        want = evaluate(e, t, _params)
    except DomainError:
        assume(False)
    assume(abs(want) < 1e6)
    got = evaluate(parse(to_string(e)), t, _params)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("t", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("exponent", ["7.972540881530111e-255^(-2)", "-7.972540881530111e-255^(-2)"], ids=["inf", "-inf"])
def test_infinite_exponent_is_even(t, exponent):
    # (-t)^(+-inf) is IEEE pow's 1, inf or 0, never the odd power's sign
    e = parse(f"(-t)^({exponent})")
    want = np.power(-t, evaluate(parse(exponent), t).real)
    assert evaluate(e, t) == want
    assert all(v == want and not np.signbit(v.real) for v in _scalar_and_batch(e, t))


def _subtrees(e):
    yield e
    for child in (getattr(e, name) for name in ("operand", "left", "right", "arg") if hasattr(e, name)):
        yield from _subtrees(child)


def _has_t(e):
    return any(isinstance(s, exprlang.Var) for s in _subtrees(e))


def _frozen(e):
    """``e`` with each subtree without t replaced by the double `evaluate` gives it.

    The program computes such a subtree in doubles; a/1e-14, say, is the
    double nearest to the double quotient, not the decimal 1.25e14.  Its
    derivative is the derivative of the tree with those doubles in it.  A
    subtree that `evaluate` rejects, or whose double is not finite, raises
    `DomainError`.
    """
    if not _has_t(e):
        value = evaluate(e, 0.0, _params)
        if not cmath.isfinite(value):
            raise DomainError(f"{to_string(e)} is {value}")
        return exprlang.Num(value)
    if isinstance(e, exprlang.Neg):
        return exprlang.Neg(_frozen(e.operand))
    if isinstance(e, exprlang.BinOp):
        return exprlang.BinOp(e.op, _frozen(e.left), _frozen(e.right))
    if isinstance(e, exprlang.Call):
        return exprlang.Call(e.func, _frozen(e.arg))
    return e


def _mp_derivative(e, t):
    """d/dt of ``e`` at ``t``: mpmath's central difference.

    mpmath sizes the step to its working precision and adds guard digits,
    so the difference resolves terms that a fixed double-precision step
    cannot, such as cos(t/1e-6).  A large term can still hide t: in
    t + a/6.3e-103 the difference comes out 0 below about 100 digits.  So
    the working precision starts at 40 digits plus the largest decimal
    exponent of any subexpression at t, and doubles until two precisions
    agree.  Exponents count up to the double range's (2^±1100): a larger
    term, such as exp(1/4e-67), would ask for more digits than mpmath can
    hold.  Each subtree without t enters at its double value (`_frozen`).
    """
    e = _frozen(e)
    mags = [min(abs(int(mpmath.mag(v))), 1100) for v in (mp_eval(s, t, _params) for s in _subtrees(e)) if v != 0]
    dps = 40 + math.ceil(0.302 * max(mags, default=0))
    prev = None
    for _ in range(4):
        with mpmath.workdps(dps):
            d = mpmath.diff(lambda x: mp_eval(e, x, _params), mpmath.mpf(t))
        if prev is not None and abs(d - prev) <= 1e-12 * abs(d):
            break
        prev, dps = d, 2 * dps
    return complex(d)


@given(e=_ast, t=st.floats(min_value=0.3, max_value=2.7))
@example(e=parse("-sin(t / 2.225073858507e-311)"), t=1.0)  # t/2.2e-311 overflows to inf
@example(e=parse("-(t + a/6.256086849589852e-103)"), t=1.0)  # t is lost against 2e102 at 40 digits
@example(e=parse("-exp(1/3.9792795715600237e-67)"), t=1.0)  # e^(2.5e66) outside the double range
@example(e=parse("t*(-sin(a/1e-14))"), t=1.0)  # a/1e-14 is a double 0.0156 from 1.25e14
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
@example(e=parse("-(-(0/2.2250738585e-313))"), t=1.0)  # 1/2.2e-313 overflows: numpy's a*(1/b) gives nan
@settings(max_examples=100, deadline=None)
def test_compiled_matches_interpreter(e, t):
    # a scalar t and an array of t against the oracle, and against each other
    try:
        want = evaluate(e, t, _params)
    except DomainError:
        assume(False)
    assume(abs(want) < 1e8)
    scalar, array = _scalar_and_batch(e, t, _params)
    assert array == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert scalar == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert scalar == pytest.approx(array, rel=1e-12, abs=1e-12)


def test_scalar_t_gives_complex_scalar():
    fn = compile_expr(parse("2/t + sin(t)"))
    for t in (0.7, np.float64(0.7), 1):
        v = fn(t)
        assert isinstance(v, complex) and np.ndim(v) == 0
        assert v == fn(np.array([float(t)]))[0]
    # a domain edge gives inf/nan, not an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(fn(0.0))


def test_point_alone_equals_point_in_batch():
    ts = np.random.default_rng(1).uniform(0.05, 3.0, 200)
    texts = (
        "2/t - 3/(t*t + 1)",
        "tan(t)*log(t)/sqrt(t)",
        "exp(-t)*cos(3*t) + sin(t)/t",
        "log(2 - t) + abs(1 - t)",
        "t^(-1.25) + (t + 1)^(t/3)",
    )
    for text in texts:
        fn = compile_expr(parse(text))
        assert [fn(t) for t in ts] == list(fn(ts)), text


def test_real_power_does_not_depend_on_the_batch():
    # one negative base in a batch sends only its own point to the complex power
    fn = compile_expr(parse("t^(1/3)"))
    ts = np.linspace(0.1, 3.0, 1002)[1:-1]
    alone = fn(ts)
    batch = fn(np.append(ts, -1.0))
    assert alone.tobytes() == batch[:-1].tobytes()
    assert batch[-1] == pytest.approx(complex(0.5, math.sqrt(3.0) / 2.0), rel=1e-15)


def test_tiny_real_divisor_divides_directly():
    # numpy's complex divide takes 1/b first, which overflows below |b| of
    # about 5.6e-309; those points divide directly, the others keep numpy's bits
    tiny = 2.2250738585e-313
    ts = np.array([0.7, tiny, 1.9, -tiny])
    for text, want in (("0/t", (0.0, 0.0, 0.0, -0.0)), ("1/t", (1 / 0.7, math.inf, 1 / 1.9, -math.inf))):
        got = compile_expr(parse(text))(ts)
        assert [complex(v) for v in got] == [complex(w, 0.0) for w in want]
        assert evaluate(parse(text), tiny) == complex(want[1], 0.0)
    # a zero divisor and a non-finite numerator keep numpy's quotient too
    num = np.array([2.0 + 3.0j, 5.0 - 1.0j, 0.25j, 1.0 + 1.0j, 1.0, complex(math.inf, 1.0)])
    den = np.append(ts, [0.0, 1.5]).astype(complex)
    with np.errstate(all="ignore"):
        got, ref = exprlang._quotient(num, den), num / den
    keep = np.array([True, False, True, False, True, True])
    assert got[keep].tobytes() == ref[keep].tobytes()
    assert got[1] == complex(math.inf, -math.inf) and got[3] == complex(-math.inf, -math.inf)


def test_compiled_is_vectorized():
    fn = compile_expr(parse("t^2 - sin(t)"))
    ts = np.linspace(0.1, 2.0, 7)
    vals = fn(ts)
    assert vals.shape == ts.shape
    assert vals[3] == pytest.approx(ts[3] ** 2 - math.sin(ts[3]))


def test_complex_power_overflow_is_infinite():
    # a tiny negative base to a negative non-integer power overflows on the
    # complex branch; the oracle and the compiled function give infinity
    # instead of raising
    e = parse("(-1.0346814016171131e-196)^(-t)")
    t = 1.6563756637409774
    assert evaluate(e, t) == complex(math.inf, math.inf)
    assert _scalar_and_batch(e, t) == (complex(math.inf, math.inf),) * 2


def test_real_inputs_stay_real():
    cases = (("sqrt(t)", math.sqrt(1.7)), ("log(t)", math.log(1.7)), ("t^0.5", 1.7**0.5), ("(-t)^2", 1.7**2))
    # beyond 100 Python's complex power leaves the real axis by rounding
    for text, want in cases + (("(-t)^101", -(1.7**101)),):
        for v in (evaluate(parse(text), 1.7), *_scalar_and_batch(parse(text), 1.7)):
            assert v.imag == 0.0, text
            assert v.real == pytest.approx(want, rel=1e-15), text


@pytest.mark.parametrize(
    "text, want",
    [
        ("sqrt(-t)", math.sqrt(2.0) * 1j),
        ("log(-t)", complex(math.log(2.0), math.pi)),
        ("(-t)^0.5", math.sqrt(2.0) * 1j),
    ],
)
def test_negative_zero_imaginary_part_takes_upper_branch(text, want):
    # -t is -2 - 0j; the compiled function reads the -0 as +0, as the oracle does
    for v in (evaluate(parse(text), 2.0), *_scalar_and_batch(parse(text), 2.0)):
        assert v == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert v.imag > 0


def test_generated_source_holds_no_document_text(monkeypatch):
    # parameters named like the generated code's own names still read as
    # their bound values, and neither a value nor the text reaches compile()
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(exprlang, "compile", spy, raising=False)
    exprlang._code.cache_clear()
    names = ("np", "math", "cmath", "exp", "t0", "_x0")
    params = {name: 271.828125 + 2.5 * k for k, name in enumerate(names)}
    for name in names:
        assert _scalar_and_batch(parse(name), 0.5, params) == (params[name], params[name])
    text = "np*t + exp(math/100) - cmath/t0 + _x0^2 - 3.0625"
    scalar, array = _scalar_and_batch(parse(text), 0.7, params)
    want = evaluate(parse(text), 0.7, params)
    assert scalar == pytest.approx(want, rel=1e-14) and array == pytest.approx(want, rel=1e-14)
    # a parameter compiles to the same source whatever its name
    assert len(sources) == 2
    for source in sources:
        assert text not in source and "3.0625" not in source
        for name, value in params.items():
            assert not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", source), name
            assert repr(value) not in source and str(value) not in source


# -- the generated code against the node-by-node evaluation ----------------

_bit_leaf = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0).map(exprlang.Num),
    st.sampled_from((0.0, -0.0, 1e-310, 1e308, math.inf, -math.inf, math.nan)).map(exprlang.Num),
    st.just(exprlang.Param("a")),
    st.just(exprlang.ImagUnit()),
    st.just(exprlang.Var()),
)
_ops = st.sampled_from("+-*/^")
_funcs = st.sampled_from(exprlang.FUNCTIONS)


def _combine_shared(children):
    # besides fresh subtrees, a subtree used twice under one node
    return st.one_of(
        st.tuples(_ops, children, children).map(lambda x: exprlang.BinOp(*x)),
        st.tuples(_ops, children).map(lambda x: exprlang.BinOp(x[0], x[1], x[1])),
        st.tuples(_ops, _funcs, children).map(lambda x: exprlang.BinOp(x[0], exprlang.Call(x[1], x[2]), x[2])),
        children.map(exprlang.Neg),
        st.tuples(_funcs, children).map(lambda x: exprlang.Call(*x)),
    )


_shared_ast = st.recursive(_bit_leaf, _combine_shared, max_leaves=16)


def _assert_same_bits(got, want):
    """Equal real and imaginary parts, NaN at the same places, zeros of the same sign."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert np.array_equal(g[~nan], w[~nan])
        assert np.array_equal(np.signbit(g[~nan]), np.signbit(w[~nan]))


@given(
    e=_shared_ast,
    ts=st.lists(st.floats(allow_subnormal=True) | st.sampled_from((0.0, -0.0, 0.5, 2.0)), min_size=1, max_size=9),
)
@example(e=parse("t + (-0) - (t + 0)"), ts=[-0.0, 1.0])  # -0 and 0 are two constants: -0 at t = -0
@example(e=parse("sin(t)*sin(t) + sqrt(-a)*log(-1) + i"), ts=[0.25, 3.0])
@settings(max_examples=300, deadline=None)
def test_compiled_is_node_by_node_evaluation_bit_for_bit(e, ts):
    fn = compile_expr(e, _params)
    ts = np.array(ts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_bits(fn(ts), numpy_eval(e, ts, _params))
        scalar = fn(ts[0])
        assert isinstance(scalar, complex)
        _assert_same_bits(scalar, numpy_eval(e, ts[0], _params))
        _assert_same_bits(fn(ts[:1]), numpy_eval(e, ts[:1], _params))


def _statements(e, params, monkeypatch):
    """The number of statements in the source that ``compile_expr(e, params)`` generates."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(exprlang, "compile", spy, raising=False)
    exprlang._code.cache_clear()
    compile_expr(e, params)
    (source,) = sources
    # a statement names its node's kind and a counter
    return sum(1 for line in source.splitlines() if re.match(r" {8}[a-z]+\d+ = ", line))


def test_witness_second_derivative_compiles_each_distinct_subtree_once(monkeypatch):
    # exeq05's witness: 241 nodes in its second derivative, one statement
    # each without sharing; 56 distinct subtrees with t, and a few constants
    doc = json.loads((Path(__file__).resolve().parent.parent / "problems" / "exeq05.json").read_text())
    d2 = differentiate(differentiate(parse(doc["witness"])))
    assert len(list(_subtrees(d2))) == 241
    assert _statements(d2, {"eps": 0.1}, monkeypatch) <= 64
    # a repeated subtree is one statement, and so is a folded constant
    assert _statements(parse("sin(t)*sin(t) + exp(2*a)"), _params, monkeypatch) == 5
