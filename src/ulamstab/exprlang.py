"""Small expression language for time-dependent coefficient functions.

Expressions are functions of the free variable ``t`` plus named parameters
(``sigma``, ``a``, ...).  They are complex-valued end-to-end, support symbolic
differentiation with respect to ``t``, and can be compiled into vectorized
numpy callables for use inside quadrature loops.

The grammar (see GRAMMAR.md at the repository root) has precedence
``^`` > unary ``-`` > ``*``, ``/`` > ``+``, ``-``, with right-associative
``^`` and no implicit multiplication.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "ImagUnit",
    "Var",
    "Param",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "evaluate",
    "differentiate",
    "to_string",
    "compile_expr",
    "free_params",
    "ExprError",
    "ExprSyntaxError",
    "UnknownFunctionError",
    "UnboundParameterError",
    "DomainError",
    "NotDifferentiableError",
]

FUNCTIONS = (
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "abs",
    "re",
    "im",
)

# Functions without a derivative rule; `differentiate` rejects these.
NON_DIFFERENTIABLE = ("abs", "re", "im")


class ExprError(Exception):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}" + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class UnknownFunctionError(ExprError):
    def __init__(self, name, offset):
        super().__init__(f"unknown function {name!r} at offset {offset}")
        self.name = name
        self.offset = offset


class UnboundParameterError(ExprError):
    def __init__(self, name):
        super().__init__(f"parameter {name!r} is not bound")
        self.name = name


class DomainError(ExprError):
    pass


class NotDifferentiableError(ExprError):
    def __init__(self, kind):
        super().__init__(f"{kind!r} node has no derivative rule")
        self.kind = kind


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Immutable AST node.  Safe to share across threads."""

    __slots__ = ()

    def __call__(self, t, params=None):
        return evaluate(self, t, params)


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class ImagUnit(Expr):
    pass


@dataclass(frozen=True, slots=True)
class Var(Expr):
    pass


@dataclass(frozen=True, slots=True)
class Param(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# Tokenizer / parser


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # NUMBER NAME OP LPAREN RPAREN END
    text: str
    offset: int


_OPS = set("+-*/^")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(_Token("OP", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("LPAREN", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("RPAREN", c, i))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("NUMBER", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind, expected):
        if self.cur.kind != kind:
            raise ExprSyntaxError(f"unexpected token {self.cur.text!r}", self.cur.offset, expected)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.cur.kind == "OP" and self.cur.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.cur.kind == "OP" and self.cur.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.cur.kind == "OP" and self.cur.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        if self.cur.kind == "OP" and self.cur.text == "+":
            self.advance()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.cur.kind == "OP" and self.cur.text == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            return BinOp("^", base, self.parse_factor())
        return base

    def parse_atom(self):
        tok = self.cur
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "NAME":
            self.advance()
            if self.cur.kind == "LPAREN":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunctionError(tok.text, tok.offset)
                self.advance()
                arg = self.parse_expr()
                self.expect("RPAREN", (")",))
                return Call(tok.text, arg)
            if tok.text == "t":
                return Var()
            if tok.text == "i":
                return ImagUnit()
            return Param(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN", (")",))
            return node
        raise ExprSyntaxError(
            f"unexpected token {tok.text!r}" if tok.kind != "END" else "unexpected end of input",
            tok.offset,
            ("number", "name", "("),
        )


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression AST."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.cur.kind != "END":
        raise ExprSyntaxError(f"trailing input {parser.cur.text!r}", parser.cur.offset)
    return node


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(e: Expr, t, params=None) -> complex:
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
    if func in ("log", "sqrt") and a == 0 and func == "log":
        raise DomainError(f"log(0) at t={t}")
    if func == "sqrt" and a.imag == 0 and a.real >= 0:
        return complex(math.sqrt(a.real))
    if func == "log" and a.imag == 0 and a.real > 0:
        return complex(math.log(a.real))
    fn = getattr(cmath, func)
    return fn(a)


def free_params(e: Expr) -> set[str]:
    """Names of all parameters referenced by ``e``."""
    out = set()

    def walk(node):
        if isinstance(node, Param):
            out.add(node.name)
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(e)
    return out


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative of ``e`` with respect to ``t``."""
    return _diff(e)


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_zero(e):
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e):
    return isinstance(e, Num) and e.value == 1.0


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    return BinOp("/", a, b)


def _diff(e):
    if isinstance(e, (Num, ImagUnit, Param)):
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, Neg):
        d = _diff(e.operand)
        return _ZERO if _is_zero(d) else Neg(d)
    if isinstance(e, BinOp):
        u, v = e.left, e.right
        du, dv = None, None
        if e.op in "+-":
            du, dv = _diff(u), _diff(v)
            return _add(du, dv) if e.op == "+" else _sub(du, dv)
        if e.op == "*":
            return _add(_mul(_diff(u), v), _mul(u, _diff(v)))
        if e.op == "/":
            num = _sub(_mul(_diff(u), v), _mul(u, _diff(v)))
            return _div(num, BinOp("*", v, v))
        if e.op == "^":
            du, dv = _diff(u), _diff(v)
            if _is_zero(dv):
                # d(u^c) = c * u^(c-1) * u'
                cm1 = _sub(v, _ONE)
                return _mul(_mul(v, BinOp("^", u, cm1)), du)
            # general rule d(u^v) = u^v * (v' log u + v u'/u)
            inner = _add(_mul(dv, Call("log", u)), _mul(v, _div(du, u)))
            return _mul(e, inner)
        raise AssertionError(e.op)
    if isinstance(e, Call):
        if e.func in NON_DIFFERENTIABLE:
            raise NotDifferentiableError(e.func)
        da = _diff(e.arg)
        a = e.arg
        if e.func == "sin":
            outer = Call("cos", a)
        elif e.func == "cos":
            outer = Neg(Call("sin", a))
        elif e.func == "tan":
            outer = _div(_ONE, _mul(Call("cos", a), Call("cos", a)))
        elif e.func == "exp":
            outer = e
        elif e.func == "log":
            return _div(da, a)
        elif e.func == "sqrt":
            return _div(da, _mul(Num(2.0), e))
        else:
            raise AssertionError(e.func)
        return _mul(outer, da)
    raise AssertionError(type(e))


# ---------------------------------------------------------------------------
# Printing


def to_string(e: Expr) -> str:
    """Render ``e`` as a parseable string (round-trips through parse)."""
    return _fmt(e, 0)


# precedence levels for printing: + - (1), * / (2), unary - (3), ^ (4)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _fmt(e, parent_prec):
    if isinstance(e, Num):
        s = repr(e.value)
        # a negative literal reads as a unary minus; parenthesize accordingly
        if s.startswith("-") and parent_prec > 3:
            return f"({s})"
        return s
    if isinstance(e, ImagUnit):
        return "i"
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        s = "-" + _fmt(e.operand, 3)
        return f"({s})" if parent_prec > 3 else s
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        if e.op == "^":
            # right-associative: left operand needs strictly higher precedence
            s = _fmt(e.left, prec + 1) + "^" + _fmt(e.right, prec)
        else:
            s = _fmt(e.left, prec) + e.op + _fmt(e.right, prec + 1)
        return f"({s})" if parent_prec > prec else s
    if isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg, 0)})"
    raise AssertionError(type(e))


# ---------------------------------------------------------------------------
# Compilation to vectorized numpy callables


def compile_expr(e: Expr, params=None):
    """Compile ``e`` into a callable ``f(t)`` over numpy arrays.

    Parameter values are baked in at compile time.  Division by zero and
    domain edges produce inf/nan silently (callers evaluate on interior
    grids where the problem validator has already checked the expression).
    """
    params = params or {}
    missing = free_params(e) - set(params)
    if missing:
        raise UnboundParameterError(sorted(missing)[0])

    def build(node):
        if isinstance(node, Num):
            v = complex(node.value)
            return lambda t: np.full_like(t, v, dtype=complex) if isinstance(t, np.ndarray) else v
        if isinstance(node, ImagUnit):
            return lambda t: np.full_like(t, 1j, dtype=complex) if isinstance(t, np.ndarray) else 1j
        if isinstance(node, Var):
            return lambda t: np.asarray(t, dtype=complex) if isinstance(t, np.ndarray) else complex(t)
        if isinstance(node, Param):
            v = complex(params[node.name])
            return lambda t: np.full_like(t, v, dtype=complex) if isinstance(t, np.ndarray) else v
        if isinstance(node, Neg):
            f = build(node.operand)
            return lambda t: -f(t)
        if isinstance(node, BinOp):
            fa, fb = build(node.left), build(node.right)
            op = node.op
            if op == "+":
                return lambda t: fa(t) + fb(t)
            if op == "-":
                return lambda t: fa(t) - fb(t)
            if op == "*":
                return lambda t: fa(t) * fb(t)
            if op == "/":
                return lambda t: fa(t) / fb(t)
            if op == "^":
                return lambda t: _np_pow(fa(t), fb(t))
            raise AssertionError(op)
        if isinstance(node, Call):
            fa = build(node.arg)
            name = node.func
            if name == "abs":
                return lambda t: np.abs(fa(t)).astype(complex) if isinstance(t, np.ndarray) else complex(abs(fa(t)))
            if name == "re":
                return lambda t: np.real(fa(t)).astype(complex) if isinstance(t, np.ndarray) else complex(np.real(fa(t)))
            if name == "im":
                return lambda t: np.imag(fa(t)).astype(complex) if isinstance(t, np.ndarray) else complex(np.imag(fa(t)))
            fn = getattr(np, name)
            return lambda t: fn(_canon(fa(t)))
        raise AssertionError(type(node))

    body = build(e)

    def fn(t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        with np.errstate(all="ignore"):
            out = body(arr if not scalar else arr.reshape(1))
        out = np.asarray(out, dtype=complex)
        return out[0] if scalar else out

    return fn


def _canon(v):
    """Replace -0j imaginary parts so numpy branch cuts match the evaluator."""
    v = np.asarray(v, dtype=complex)
    if np.any(np.signbit(v.imag) & (v.imag == 0.0)):
        v = np.where(v.imag == 0.0, v.real.astype(complex), v)
    return v


def _np_pow(a, b):
    # keep real branches real where the scalar evaluator would
    if np.all(np.imag(a) == 0) and np.all(np.imag(b) == 0):
        ar = np.real(a)
        br = np.real(b)
        with np.errstate(all="ignore"):
            if np.all(ar >= 0):
                return np.asarray(ar**br, dtype=complex)
            if np.all(br == np.round(br)):
                sign = np.where((ar >= 0) | (np.round(br) % 2 == 0), 1.0, -1.0)
                return np.asarray(sign * np.abs(ar) ** br, dtype=complex)
    return _canon(a) ** _canon(b)
