"""Reference evaluators of the expression language, for the tests only.

`evaluate` walks the tree in Python complex arithmetic and raises
`DomainError` at a division by zero, a log of zero, an infinite argument
that `cmath` rejects or a `cmath` result outside the double range, where
the compiled function gives inf/nan.  `mp_eval`
is the same walk in mpmath arithmetic.  Both keep the real branch of
`sqrt`, `log` and real powers, as `exprlang.compile_expr` does.
`numpy_eval` is the compiled function's arithmetic node by node, with no
sharing and no folding: its results are the compiled function's bits.
"""

import cmath
import math

import mpmath
import numpy as np

from ulamstab.exprlang import _RUNTIME, BinOp, Call, ExprError, ImagUnit, Neg, Num, Param, UnboundParameterError, Var


class DomainError(ExprError):
    pass


def evaluate(e, t, params=None) -> complex:
    """Evaluate ``e`` at scalar ``t`` with the given parameter bindings."""
    params = params or {}
    return _eval(e, complex(t), params)


def _eval(e, t, params):
    if isinstance(e, Num):
        return complex(e.value)
    if isinstance(e, ImagUnit):
        return 1j
    if isinstance(e, Var):
        return t
    if isinstance(e, Param):
        try:
            return complex(params[e.name])
        except KeyError:
            raise UnboundParameterError(e.name) from None
    if isinstance(e, Neg):
        return -_eval(e.operand, t, params)
    if isinstance(e, BinOp):
        a = _eval(e.left, t, params)
        b = _eval(e.right, t, params)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise DomainError(f"division by zero at t={t}")
            return a / b
        if e.op == "^":
            return _pow(a, b, t)
        raise AssertionError(e.op)
    if isinstance(e, Call):
        a = _eval(e.arg, t, params)
        return _call(e.func, a, t)
    raise AssertionError(type(e))


def _pow(a, b, t):
    if a == 0 and (b.real < 0 or b.imag != 0):
        raise DomainError(f"zero base with nonpositive exponent at t={t}")
    if a.imag == 0:
        a = complex(a.real)  # normalize -0j so branch cuts don't flip
    if b.imag == 0:
        b = complex(b.real)
    if a.imag == 0 and b.imag == 0 and math.isinf(b.real):
        # an infinite exponent is even: IEEE pow, which raises for none
        return complex(math.pow(a.real, b.real))
    # real base, real integer-ish exponent stays on the real branch
    try:
        if a.imag == 0 and b.imag == 0 and a.real > 0:
            return complex(math.pow(a.real, b.real)) if b.real == int(b.real) else complex(a.real**b.real)
        if a.imag == 0 and b.imag == 0 and b.real == int(b.real):
            return complex(a.real ** int(b.real))
    except OverflowError:
        sign = 1.0 if (a.real > 0 or int(b.real) % 2 == 0) else -1.0
        return complex(sign * math.inf)
    try:
        return a**b
    except OverflowError:
        return complex(math.inf, math.inf)  # what the compiled (numpy) power gives


def _call(func, a, t):
    if a.imag == 0:
        a = complex(a.real)  # normalize -0j so branch cuts don't flip
    if func == "abs":
        return complex(abs(a))
    if func == "re":
        return complex(a.real)
    if func == "im":
        return complex(a.imag)
    if func == "log" and a == 0:
        raise DomainError(f"log(0) at t={t}")
    if func == "sqrt" and a.imag == 0 and a.real >= 0:
        return complex(math.sqrt(a.real))
    if func == "log" and a.imag == 0 and a.real > 0:
        return complex(math.log(a.real))
    try:
        return getattr(cmath, func)(a)
    except ValueError:
        # cmath rejects some infinite arguments, e.g. sin(inf)
        raise DomainError(f"{func}({a}) at t={t}") from None
    except OverflowError:
        # cmath raises where the result leaves the double range, e.g. exp(1024)
        raise DomainError(f"{func}({a}) overflows at t={t}") from None


def mp_eval(e, t, params):
    """``evaluate`` in mpmath arithmetic: the same branches, at high precision."""
    if isinstance(e, Num):
        return mpmath.mpc(e.value)
    if isinstance(e, Var):
        return mpmath.mpc(t)
    if isinstance(e, Param):
        return mpmath.mpc(params[e.name])
    if isinstance(e, Neg):
        return -mp_eval(e.operand, t, params)
    if isinstance(e, BinOp):
        a, b = mp_eval(e.left, t, params), mp_eval(e.right, t, params)
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
    a = mp_eval(e.arg, t, params)
    if e.func == "log" and a == 0:
        raise DomainError("log(0)")
    return getattr(mpmath, e.func)(a)


def numpy_eval(e, t, params=None):
    """``e`` at a scalar or array ``t`` by one `_RUNTIME` call per node.

    Every node is evaluated on the whole ``t``, each time it occurs, as one
    statement of the generated function did before it shared repeated
    subtrees and folded those without t.  A scalar ``t`` is an array of one
    point, and gives a complex scalar.
    """
    params = params or {}
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    if scalar:
        t = t.reshape(1)
    with np.errstate(all="ignore"):
        out = np.asarray(_np_eval(e, t, params), dtype=complex)
    return out[0] if scalar else out


def _np_eval(e, t, params):
    if isinstance(e, (Num, ImagUnit, Param)):
        value = 1j if isinstance(e, ImagUnit) else e.value if isinstance(e, Num) else params[e.name]
        return np.full_like(t, complex(value), dtype=complex)
    if isinstance(e, Var):
        return np.asarray(t, dtype=complex)
    if isinstance(e, Neg):
        return -_np_eval(e.operand, t, params)
    if isinstance(e, BinOp):
        a, b = _np_eval(e.left, t, params), _np_eval(e.right, t, params)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return _RUNTIME["_quotient" if e.op == "/" else "_pow"](a, b)
    if isinstance(e, Call):
        return _RUNTIME[f"_{e.func}"](_np_eval(e.arg, t, params))
    raise AssertionError(type(e))
