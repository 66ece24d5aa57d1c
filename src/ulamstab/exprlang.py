"""Small expression language for time-dependent coefficient functions.

Expressions are functions of the free variable ``t`` plus named parameters
(``sigma``, ``a``, ...).  They are complex-valued end-to-end, support symbolic
differentiation with respect to ``t``, and compile into one generated Python
function of numpy array arithmetic.  It has one statement per distinct
subtree, and each subtree without ``t`` is folded to a constant at compile
time.  It takes an array of ``t`` (quadrature loops, collocation panels) or a
scalar ``t``, which it evaluates as an array of one point.

The grammar (see GRAMMAR.md at the repository root) has precedence
``^`` > unary ``-`` > ``*``, ``/`` > ``+``, ``-``, with right-associative
``^`` and no implicit multiplication.
"""

from __future__ import annotations

import functools
import operator
import struct
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
    "differentiate",
    "to_string",
    "compile_expr",
    "free_params",
    "ExprError",
    "ExprSyntaxError",
    "UnknownFunctionError",
    "UnboundParameterError",
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


class NotDifferentiableError(ExprError):
    def __init__(self, kind):
        super().__init__(f"{kind!r} node has no derivative rule")
        self.kind = kind


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Immutable AST node.  Safe to share across threads."""

    __slots__ = ()


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
            if text[i:j] == ".":
                raise ExprSyntaxError("number without digits", i, ("digit",))
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
# Compilation to one generated function
#
# One numpy statement per distinct subtree, calling the helpers of
# `_RUNTIME`.  A subtree without t is folded at compile time: its helpers run
# once on a one-point t, as the generated code would run them, and its value
# becomes one constant statement.  Identifiers come from the node kind and a
# counter; numbers and parameter values live in the namespace, so no text of
# the expression reaches `compile`.  A scalar t is evaluated as an array of
# one point.


def compile_expr(e: Expr, params=None):
    """Compile ``e`` into a callable ``f(t)`` of a real scalar or array ``t``.

    The generated function computes each distinct subtree once.  A subtree
    without ``t`` is evaluated at compile time, at a one-point ``t``, and
    enters as a constant.  Parameter values are baked in at compile time.
    Division by zero and domain edges produce inf/nan silently (callers
    evaluate on interior grids where the problem validator has already
    checked the expression).  An array gives a complex array of its shape; a
    scalar gives an ``np.complex128``, which is a ``complex``.
    """
    params = params or {}
    missing = free_params(e) - set(params)
    if missing:
        raise UnboundParameterError(sorted(missing)[0])
    namespace = dict(_RUNTIME)
    lines = []
    names = {}  # operator and operand names of a subtree, or a constant's bits -> its statement

    def statement(key, kind, stmt):
        name = names.get(key)
        if name is None:
            name = names[key] = f"{kind}{len(lines)}"
            lines.append(f"{name} = {stmt}")
        return name

    def constant(value):
        # keyed on the bits, so that 0.0 and -0.0 are two constants
        key = struct.pack("dd", value.real, value.imag)
        name = names.get(key)
        if name is None:
            name = names[key] = f"const{len(lines)}"
            namespace[f"_k{len(lines)}"] = value
            lines.append(f"{name} = _np.full_like(t, _k{len(lines)}, dtype=complex)")
        return name

    def fold(node):
        """The statement name of a subtree with t, else the complex value of one without."""
        kind = type(node)
        if kind is BinOp:
            a, b = fold(node.left), fold(node.right)
            if type(a) is str:
                if type(b) is not str:
                    b = constant(b)
            elif type(b) is str:
                a = constant(a)
            else:
                return _fold(node, (a, b))
            helper = _HELPERS.get(node.op)
            return statement((node.op, a, b), "binop", f"{helper}({a}, {b})" if helper else f"{a} {node.op} {b}")
        if kind is Num:
            return complex(node.value)
        if kind is Var:
            return statement("t", "var", "_np.asarray(t, dtype=complex)")
        if kind is Param:
            return complex(params[node.name])
        if kind is ImagUnit:
            return 1j
        if kind is Neg:
            a = fold(node.operand)
            return statement(("-", a), "neg", f"-{a}") if type(a) is str else _fold(node, (a,))
        if kind is Call:
            a = fold(node.arg)
            return statement((node.func, a), "call", f"_{node.func}({a})") if type(a) is str else _fold(node, (a,))
        raise AssertionError(kind)

    out = fold(e)
    if type(out) is not str:
        out = constant(out)
    source = _SOURCE.format(body="\n".join(" " * 8 + line for line in lines), out=out)
    exec(_code(source), namespace)
    return namespace["expr"]


def _fold(node, args):
    """The value of ``node`` without t from its operands' values, as the generated code computes it."""
    if type(node) is Neg:
        # numpy negates a complex array part by part, as Python negates a complex
        return -args[0]
    # the arrays of one point that the generated code holds at a scalar t
    args = [np.array([arg]) for arg in args]
    with np.errstate(all="ignore"):
        value = _BINARY[node.op](*args) if type(node) is BinOp else _RUNTIME[f"_{node.func}"](*args)
    return complex(value[0])


@functools.lru_cache(maxsize=1024)
def _code(source):
    # the source depends on the tree's shape only, and shapes repeat
    return compile(source, "<exprlang>", "exec")


_SOURCE = """\
def expr(t):
    t = _np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    if scalar:
        t = t.reshape(1)
    with _np.errstate(all="ignore"):
{body}
    out = _np.asarray({out}, dtype=complex)
    return out[0] if scalar else out
"""


def _canon(v):
    """Replace -0j imaginary parts so numpy branch cuts match the real branch."""
    v = np.asarray(v, dtype=complex)
    if np.any(np.signbit(v.imag) & (v.imag == 0.0)):
        v = np.where(v.imag == 0.0, v.real.astype(complex), v)
    return v


def _pow(a, b):
    # keep real branches real, point by point: a real base >= 0, or a real
    # integer exponent; only the other points take the complex power, so a
    # point's value does not depend on the rest of its batch
    if np.all(np.imag(a) == 0) and np.all(np.imag(b) == 0):
        ar = np.real(a)
        br = np.real(b)
        with np.errstate(all="ignore"):
            if np.all(ar >= 0):
                return np.asarray(ar**br, dtype=complex)
            whole = br == np.round(br)
            # an infinite exponent is even, as in IEEE pow (inf % 2 is nan)
            sign = np.where((ar >= 0) | np.isinf(br) | (np.round(br) % 2 == 0), 1.0, -1.0)
            real = sign * np.abs(ar) ** br
            if np.all(whole):
                return np.asarray(real, dtype=complex)
            return np.where((ar >= 0) | whole, real, _canon(a) ** _canon(b))
    return _canon(a) ** _canon(b)


def _quotient(a, b):
    # numpy divides by a real divisor as a * (1/b), which gives inf or nan
    # once 1/b overflows (|b| below about 5.6e-309); only those points, all
    # among the non-finite quotients, divide each part directly, so every
    # other point keeps numpy's quotient
    q = a / b
    # a sum is finite only when every term is (an overflow only costs the
    # slow path), and it allocates no mask
    if np.isfinite(q.sum()):
        return q
    bad = ~np.isfinite(q)
    num, den, fixed = a[bad], b[bad], q[bad]
    direct = (den.imag == 0) & (den.real != 0) & np.isinf(1.0 / den.real)
    fixed.real[direct] = num.real[direct] / den.real[direct]
    fixed.imag[direct] = num.imag[direct] / den.real[direct]
    q[bad] = fixed
    return q


_RUNTIME = {
    "_np": np,
    "_pow": _pow,
    "_quotient": _quotient,
    "_sin": lambda v: np.sin(_canon(v)),
    "_cos": lambda v: np.cos(_canon(v)),
    "_tan": lambda v: np.tan(_canon(v)),
    "_exp": lambda v: np.exp(_canon(v)),
    "_log": lambda v: np.log(_canon(v)),
    "_sqrt": lambda v: np.sqrt(_canon(v)),
    "_abs": lambda v: np.abs(v).astype(complex),
    "_re": lambda v: np.real(v).astype(complex),
    "_im": lambda v: np.imag(v).astype(complex),
}

# the binary operators as the generated code applies them, for folding, and
# the helpers it calls by name
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _quotient, "^": _pow}
_HELPERS = {"/": "_quotient", "^": "_pow"}
