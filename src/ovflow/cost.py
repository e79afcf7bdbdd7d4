"""Objective functions driving the flows.

Two families are supported. The built-in matrix cost

    f(W) = 0.5 * ||W - target||_F^2

is the workhorse for the factored-flow experiments; its target must be a
full-rank square matrix so that every minimizer of f is full rank. Scalar
costs f(w) of a single real variable are supplied as expression strings over
``w`` and are differentiated symbolically, which gives the scalar-network
experiments exact first and second derivatives.

Scalar expressions follow the grammar

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | 'w' | '(' expr ')' | '-' base

Division is accepted but makes properness and lower-boundedness the caller's
responsibility; costs built with '/' carry ``uses_division = True``.

Each expression compiles once, at parse time, to one closure taking a float
or a float array (``compile_expr``): a cost's ``value``, ``deriv`` and
``second`` are those closures, checked against a tree walk in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "ParseError",
    "ScalarCost",
    "ScalarMatrixCost",
    "QuadraticMatrixCost",
    "PdpliReport",
    "parse_scalar_cost",
    "pdpli_check",
]


class ParseError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# expression trees


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: Union[float, int]  # an int only where a power's derivative brings its exponent down


@dataclass(frozen=True)
class Var(Expr):
    """The single free variable w."""


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


def _div(num, den):
    if isinstance(num, np.ndarray) or isinstance(den, np.ndarray):
        quotient = np.divide(num, den)
        zero = den == 0.0
        if np.any(zero):
            return np.where(zero, np.where(num == 0.0, np.nan, np.copysign(np.inf, num)), quotient)
        return quotient
    if den == 0.0:
        return math.nan if num == 0.0 else math.copysign(math.inf, num)
    return num / den


def _pow(base, exponent: int):
    if isinstance(base, np.ndarray):
        # Python's ** per element: numpy's power, even x * x for a square,
        # differs from C pow in the last bit on some doubles
        values = base.ravel().tolist()
        try:
            powers = [b ** exponent for b in values]
        except (OverflowError, ZeroDivisionError):
            powers = [_pow(b, exponent) for b in values]
        return np.array(powers, dtype=float).reshape(base.shape)
    try:
        return base ** exponent
    except (OverflowError, ZeroDivisionError):
        return math.copysign(math.inf, base) if exponent % 2 else math.inf


def compile_expr(expr: Expr) -> Callable:
    """A closure computing expr at w, the tree walked once, at compile time.
    Overflow and division by zero give non-finite values, not errors
    (``_div``, ``_pow``): x / 0 is the infinity of x's sign, 0 / 0 is NaN,
    and a power that overflows or divides by zero gives the infinity of its
    true sign.

    w may also be a float array: the closure then returns a new array of
    w's shape whose entries are bit-identical to the closure at each entry,
    and it emits no warning, as the float route raises none."""
    run = _compile(expr)

    def compiled(w):
        if not isinstance(w, np.ndarray):
            return run(w)
        with np.errstate(all="ignore"):
            value = run(w)
        # a constant comes back as a float, and w alone as w itself
        return value if isinstance(value, np.ndarray) and value is not w else np.full(w.shape, value)

    return compiled


def _compile(expr: Expr) -> Callable:
    if isinstance(expr, Num):
        value = float(expr.value)
        return lambda w: value
    if isinstance(expr, Var):
        return lambda w: w
    if isinstance(expr, Neg):
        arg = _compile(expr.arg)
        return lambda w: -arg(w)
    if isinstance(expr, Pow):
        base, exponent = _compile(expr.base), expr.exponent
        return lambda w: _pow(base(w), exponent)
    left, right = _compile(expr.left), _compile(expr.right)
    if isinstance(expr, Add):
        return lambda w: left(w) + right(w)
    if isinstance(expr, Sub):
        return lambda w: left(w) - right(w)
    if isinstance(expr, Mul):
        return lambda w: left(w) * right(w)
    if isinstance(expr, Div):
        return lambda w: _div(left(w), right(w))
    raise TypeError(f"unknown node {expr!r}")


def differentiate(expr: Expr) -> Expr:
    """Symbolic derivative with respect to w (power, product, quotient rules)."""
    if isinstance(expr, Num):
        return Num(0.0)
    if isinstance(expr, Var):
        return Num(1.0)
    if isinstance(expr, Neg):
        return Neg(differentiate(expr.arg))
    if isinstance(expr, Add):
        return Add(differentiate(expr.left), differentiate(expr.right))
    if isinstance(expr, Sub):
        return Sub(differentiate(expr.left), differentiate(expr.right))
    if isinstance(expr, Mul):
        return Add(
            Mul(differentiate(expr.left), expr.right),
            Mul(expr.left, differentiate(expr.right)),
        )
    if isinstance(expr, Div):
        return Div(
            Sub(
                Mul(differentiate(expr.left), expr.right),
                Mul(expr.left, differentiate(expr.right)),
            ),
            Pow(expr.right, 2),
        )
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return Num(0.0)
        # the exponent itself, an int: as a float it would round past 2**53
        return Mul(
            Mul(Num(expr.exponent), Pow(expr.base, expr.exponent - 1)),
            differentiate(expr.base),
        )
    raise TypeError(f"unknown node {expr!r}")


def _const(expr: Expr) -> Optional[float]:
    # a fold is float arithmetic, as evaluation is, whatever the Num holds
    if isinstance(expr, Num):
        return float(expr.value)
    return None


def simplify(expr: Expr) -> Expr:
    """Bottom-up constant folding plus identity elimination.

    The goal is a readable canonical form for printed derivatives, not a full
    computer-algebra normal form.
    """
    if isinstance(expr, (Num, Var)):
        return expr
    if isinstance(expr, Neg):
        a = simplify(expr.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(expr, Pow):
        b = simplify(expr.base)
        if expr.exponent == 0:
            return Num(1.0)
        if expr.exponent == 1:
            return b
        if isinstance(b, Num):
            folded = _pow(float(b.value), expr.exponent)
            if math.isfinite(folded):
                return Num(folded)
        return Pow(b, expr.exponent)

    lhs = simplify(expr.left)
    rhs = simplify(expr.right)
    lc, rc = _const(lhs), _const(rhs)

    if isinstance(expr, Add):
        if lc == 0.0:
            return rhs
        if rc == 0.0:
            return lhs
        if lc is not None and rc is not None:
            return Num(lc + rc)
        return Add(lhs, rhs)
    if isinstance(expr, Sub):
        if rc == 0.0:
            return lhs
        if lc == 0.0:
            return simplify(Neg(rhs))
        if lc is not None and rc is not None:
            return Num(lc - rc)
        return Sub(lhs, rhs)
    if isinstance(expr, Mul):
        if lc == 0.0 or rc == 0.0:
            return Num(0.0)
        if lc == 1.0:
            return rhs
        if rc == 1.0:
            return lhs
        if lc is not None and rc is not None:
            return Num(lc * rc)
        # pull constants to the left, merge nested constant factors
        if rc is not None:
            lhs, rhs = rhs, lhs
            lc, rc = rc, None
        if lc is not None and isinstance(rhs, Mul):
            inner = _const(rhs.left)
            if inner is not None:
                return simplify(Mul(Num(lc * inner), rhs.right))
        if lc == -1.0:
            return simplify(Neg(rhs))
        return Mul(lhs, rhs)
    if isinstance(expr, Div):
        if lc == 0.0:
            return Num(0.0)
        if rc == 1.0:
            return lhs
        if lc is not None and rc is not None and rc != 0.0:
            return Num(lc / rc)
        return Div(lhs, rhs)
    raise TypeError(f"unknown node {expr!r}")


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5}


def _fmt_number(x: float) -> str:
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def to_string(expr: Expr) -> str:
    """Render an expression with minimal parentheses."""
    prec = _PREC[type(expr)]

    def wrap(child: Expr, need_higher: bool = False) -> str:
        cprec = _PREC[type(child)]
        text = to_string(child)
        if cprec < prec or (need_higher and cprec == prec):
            return f"({text})"
        return text

    if isinstance(expr, Num):
        return _fmt_number(expr.value)
    if isinstance(expr, Var):
        return "w"
    if isinstance(expr, Neg):
        return f"-{wrap(expr.arg)}"
    if isinstance(expr, Add):
        return f"{wrap(expr.left)} + {wrap(expr.right)}"
    if isinstance(expr, Sub):
        return f"{wrap(expr.left)} - {wrap(expr.right, need_higher=True)}"
    if isinstance(expr, Mul):
        return f"{wrap(expr.left)} * {wrap(expr.right)}"
    if isinstance(expr, Div):
        return f"{wrap(expr.left)} / {wrap(expr.right, need_higher=True)}"
    if isinstance(expr, Pow):
        base = to_string(expr.base)
        if _PREC[type(expr.base)] < 5:
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    raise TypeError(f"unknown node {expr!r}")


# ---------------------------------------------------------------------------
# tokenizer / parser


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                m = j + 1
                if m < n and text[m] in "+-":
                    m += 1
                if m < n and text[m].isdigit():
                    while m < n and text[m].isdigit():
                        m += 1
                    j = m
            try:
                value = float(text[i:j])
            except ValueError:
                value = math.inf
            if math.isinf(value):  # malformed, or past the float range
                raise ParseError(f"bad number literal {text[i:j]!r}", i)
            tokens.append(("num", text[i:j], i))  # the literal, so an exponent can be read exactly
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name != "w":
                raise ParseError(f"unknown symbol {name!r}; the only variable is w", i)
            tokens.append(("var", name, i))
            i = j
            continue
        raise ParseError(f"unsupported character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.saw_division = False

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, symbol: str):
        kind, value, at = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", at)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", at)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                if value == "*":
                    node = Mul(node, rhs)
                else:
                    node = Div(node, rhs)
                    self.saw_division = True
            else:
                return node

    def factor(self) -> Expr:
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        kind, value, at = self.peek()
        if kind == "op" and value in ("-", "+"):
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, at = self.peek()
        if kind != "num" or not float(value).is_integer():
            raise ParseError("exponent must be an integer", at)
        self.advance()
        # all digits: read exactly, where a float would round past 2**53
        return sign * (int(value) if value.isdigit() else int(float(value)))

    def base(self) -> Expr:
        kind, value, at = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "var":
            return Var()
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and value == "-":
            return Neg(self.base())
        raise ParseError(f"unexpected token {value!r}", at)


# ---------------------------------------------------------------------------
# cost objects


@dataclass(frozen=True)
class ScalarCost:
    """A scalar objective f(w) with exact symbolic first and second derivatives.

    ``min_value`` is the self-declared infimum of f when known; it stays None
    otherwise and routines that need it (the gradient-dominance check) fall
    back to a grid minimum. ``value``, ``deriv`` and ``second`` are the
    three expressions compiled to closures once, at construction; each
    takes a float or a float array (see ``compile_expr``).
    """

    text: str
    expression: Expr
    derivative: Expr
    second_derivative: Expr
    min_value: Optional[float] = None
    uses_division: bool = False
    value: Callable = field(init=False, repr=False, compare=False)
    deriv: Callable = field(init=False, repr=False, compare=False)
    second: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "value", compile_expr(self.expression))
        object.__setattr__(self, "deriv", compile_expr(self.derivative))
        object.__setattr__(self, "second", compile_expr(self.second_derivative))

    def __reduce__(self):
        # closures do not pickle; the unpickled cost compiles them afresh
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def sign_at_zero(self) -> int:
        """Sign of f'(0); raises when f'(0) = 0 because the anti-balanced
        construction needs a definite sign."""
        d0 = self.deriv(0.0)
        if d0 == 0.0 or not math.isfinite(d0):
            raise ValueError(f"f'(0) = {d0}; sign of f'(0) is undefined")
        return 1 if d0 > 0 else -1

    def as_matrix(self) -> "ScalarMatrixCost":
        return ScalarMatrixCost(self)


@dataclass(frozen=True)
class ScalarMatrixCost:
    """Adapter presenting a scalar cost as a cost on 1x1 matrices so the
    factored-flow machinery can run scalar networks unchanged."""

    scalar: ScalarCost

    @property
    def n(self) -> int:
        return 1

    def value(self, W: np.ndarray):
        """f(w) of a 1x1 matrix, or one value per matrix of a stack of shape
        (B, 1, 1), each bit for bit its matrix's own."""
        return self.scalar.value(W[:, 0, 0] if W.ndim == 3 else float(W[0, 0]))

    def gradient(self, W: np.ndarray) -> np.ndarray:
        """f'(w) per 1x1 matrix; W may be a stack of shape (B, 1, 1)."""
        return self.scalar.deriv(W.reshape(-1)).reshape(W.shape)

    def gradient_directional(self, W: np.ndarray, A: np.ndarray) -> np.ndarray:
        """f''(w) A: the derivative of the gradient at W along A, or along
        each matrix of a stack A of shape (B, 1, 1)."""
        return self.scalar.second(float(W[0, 0])) * np.asarray(A, dtype=float)


@dataclass(frozen=True)
class QuadraticMatrixCost:
    """f(W) = 0.5 * ||W - target||_F^2 with a full-rank square target.

    Rank is checked at construction: a rank-deficient target would put
    minimizers of f on the boundary of the rank-deficient set and break the
    convergence arguments downstream.
    """

    target: np.ndarray

    def __post_init__(self):
        target = np.array(self.target, dtype=float)
        if target.ndim != 2 or target.shape[0] != target.shape[1]:
            raise ValueError(f"target must be square, got shape {target.shape}")
        if not np.all(np.isfinite(target)):
            raise ValueError("target contains non-finite entries")
        smin = np.linalg.svd(target, compute_uv=False)[-1]
        if smin <= 1e-12 * max(1.0, float(np.abs(target).max())):
            raise ValueError("target is rank deficient; a full-rank target is required")
        target.flags.writeable = False
        object.__setattr__(self, "target", target)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    def _check(self, W: np.ndarray) -> np.ndarray:
        """W as floats; a stack of shape (B, n, n) passes too."""
        W = np.asarray(W, dtype=float)
        if W.shape[-2:] != self.target.shape:
            raise ValueError(f"expected shape {self.target.shape}, got {W.shape}")
        return W

    def value(self, W: np.ndarray):
        """0.5 ||W - target||_F^2 as an np.float64, or one value per matrix of
        a stack of shape (B, n, n), each bit for bit its matrix's own."""
        diff = self._check(W) - self.target
        return 0.5 * np.add.reduce(diff * diff, axis=(-2, -1))

    def gradient(self, W: np.ndarray) -> np.ndarray:
        return self._check(W) - self.target

    def gradient_directional(self, W: np.ndarray, A: np.ndarray) -> np.ndarray:
        """The derivative of the gradient at W along A, which is A itself;
        A may be a stack of shape (B, n, n)."""
        return self._check(A)


MatrixCost = Union[QuadraticMatrixCost, ScalarMatrixCost]


def parse_scalar_cost(text: str, min_value: Optional[float] = None) -> ScalarCost:
    """Parse an expression string over w into a ScalarCost.

    Raises ParseError (with position) on malformed input. The returned cost
    carries simplified symbolic first and second derivatives.
    """
    parser = _Parser(text)
    expression = simplify(parser.parse())
    derivative = simplify(differentiate(expression))
    second = simplify(differentiate(derivative))
    return ScalarCost(
        text=text,
        expression=expression,
        derivative=derivative,
        second_derivative=second,
        min_value=min_value,
        uses_division=parser.saw_division,
    )


@dataclass(frozen=True)
class PdpliReport:
    """Outcome of the pointwise gradient-dominance scan.

    alpha_scale is the largest kappa with |f'(w)| >= kappa * sqrt(f(w) - fmin)
    across the grid; witness is a grid point achieving the minimum ratio when
    the check fails; fmin is the value the scan measured against.
    """

    passed: bool
    witness: Optional[float]
    alpha_scale: float
    fmin: float


def _bisect_sign_change(fn: Callable[[float], float], a: float, b: float, a_negative: bool) -> float:
    """A point where fn changes sign between a and b, halved down to adjacent
    doubles; a_negative says on which side of zero fn(a) lies."""
    mid = 0.5 * (a + b)
    while a < mid < b:
        if (fn(mid) < 0.0) == a_negative:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return mid


def pdpli_check(cost: ScalarCost, interval: tuple[float, float]) -> PdpliReport:
    """Scan |f'| / sqrt(f - fmin) on a uniform 601-point grid over the interval.

    fmin is the cost's declared min_value, else the grid minimum.
    Points with f within 1e-12 of fmin are skipped: the ratio is 0/0 there.
    The check passes when the worst ratio stays above a small positive floor
    and no critical point lies above fmin + 1e-12. The grid seldom lands on
    a critical point, so each sign change of f' between adjacent grid points
    is located by bisection; a local minimum or maximum above fmin, where
    the ratio is 0, fails the check with that point as the witness. A
    critical point where f' touches 0 without changing sign is a minimum of
    |f'|, so each sign change of f'' is located the same way, and the ratio
    there must clear the floor too.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad interval ({lo}, {hi})")

    grid = np.linspace(lo, hi, 601)
    f, fp = cost.value(grid), cost.deriv(grid)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(fp))):
        raise ValueError("cost evaluates to non-finite values on the interval")

    fmin = float(f.min()) if cost.min_value is None else float(cost.min_value)
    if f.min() < fmin - 1e-9:
        raise ValueError(f"grid values drop below the declared minimum {fmin}")

    active = f > fmin + 1e-12
    if not np.any(active):
        return PdpliReport(passed=True, witness=None, alpha_scale=math.inf, fmin=fmin)

    ratios = np.abs(fp[active]) / np.sqrt(f[active] - fmin)
    worst = int(np.argmin(ratios))
    kappa = float(ratios[worst])
    if not kappa > 1e-8:
        return PdpliReport(passed=False, witness=float(grid[active][worst]), alpha_scale=kappa, fmin=fmin)
    fpp = cost.second(grid)
    # a sign change of f' is a critical point whatever the ratio; one of f''
    # is a minimum of |f'|, which fails only below the floor
    for fn, values, critical in ((cost.deriv, fp, True), (cost.second, fpp, False)):
        for i in np.flatnonzero((values[:-1] < 0.0) != (values[1:] < 0.0)):
            w = _bisect_sign_change(fn, float(grid[i]), float(grid[i + 1]), values[i] < 0.0)
            excess = cost.value(w) - fmin
            if excess > 1e-12:
                ratio = abs(cost.deriv(w)) / math.sqrt(excess)
                if critical or not ratio > 1e-8:
                    return PdpliReport(passed=False, witness=w, alpha_scale=min(kappa, ratio), fmin=fmin)
    return PdpliReport(passed=True, witness=None, alpha_scale=kappa, fmin=fmin)
