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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

__all__ = [
    "ParseError",
    "ScalarCost",
    "ScalarMatrixCost",
    "QuadraticMatrixCost",
    "PdpliReport",
    "parse_scalar_cost",
    "scalar_eval",
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
    value: float


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


def evaluate(expr: Expr, w: float) -> float:
    """Evaluate an expression tree at w. Overflow and division by zero are
    reported as non-finite values rather than raised."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return w
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, w)
    if isinstance(expr, Add):
        return evaluate(expr.left, w) + evaluate(expr.right, w)
    if isinstance(expr, Sub):
        return evaluate(expr.left, w) - evaluate(expr.right, w)
    if isinstance(expr, Mul):
        return evaluate(expr.left, w) * evaluate(expr.right, w)
    if isinstance(expr, Div):
        num = evaluate(expr.left, w)
        den = evaluate(expr.right, w)
        if den == 0.0:
            return math.nan if num == 0.0 else math.copysign(math.inf, num)
        return num / den
    if isinstance(expr, Pow):
        base = evaluate(expr.base, w)
        try:
            return base ** expr.exponent
        except (OverflowError, ZeroDivisionError):
            return math.inf if expr.exponent >= 0 else math.nan
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
        return Mul(
            Mul(Num(float(expr.exponent)), Pow(expr.base, expr.exponent - 1)),
            differentiate(expr.base),
        )
    raise TypeError(f"unknown node {expr!r}")


def _const(expr: Expr) -> Optional[float]:
    if isinstance(expr, Num):
        return expr.value
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
        if isinstance(b, Num) and math.isfinite(b.value**expr.exponent):
            return Num(float(b.value**expr.exponent))
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


def _tokenize(text: str) -> list[tuple[str, Union[float, str], int]]:
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
                raise ParseError(f"bad number literal {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
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
        self.text = text
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
        if kind != "num" or float(value) != int(float(value)):
            raise ParseError("exponent must be an integer", at)
        self.advance()
        return sign * int(float(value))

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
    back to a grid minimum.
    """

    text: str
    expression: Expr
    derivative: Expr
    second_derivative: Expr
    min_value: Optional[float] = None
    uses_division: bool = False

    kind: ClassVar[str] = "scalar_expr"

    def value(self, w: float) -> float:
        return evaluate(self.expression, w)

    def deriv(self, w: float) -> float:
        return evaluate(self.derivative, w)

    def second(self, w: float) -> float:
        return evaluate(self.second_derivative, w)

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

    kind: ClassVar[str] = "scalar_expr"
    rank_verified: ClassVar[bool] = False

    @property
    def n(self) -> int:
        return 1

    @property
    def min_value(self) -> Optional[float]:
        return self.scalar.min_value

    def value(self, W: np.ndarray) -> float:
        # W[..., 0, 0] makes a stack of several matrices fail loudly in float()
        return self.scalar.value(float(W[..., 0, 0]))

    def gradient(self, W: np.ndarray) -> np.ndarray:
        """f'(w) per 1x1 matrix; W may be a stack of shape (B, 1, 1)."""
        return np.array([self.scalar.deriv(w) for w in W.ravel().tolist()]).reshape(W.shape)

    def second_directional(self, W: np.ndarray, A: np.ndarray) -> float:
        # second-order Taylor coefficient: f(w + a) = f + f' a + (f''/2) a^2
        return 0.5 * self.scalar.second(float(W[0, 0])) * float(A[0, 0]) ** 2


@dataclass(frozen=True)
class QuadraticMatrixCost:
    """f(W) = 0.5 * ||W - target||_F^2 with a full-rank square target.

    Rank is checked at construction: a rank-deficient target would put
    minimizers of f on the boundary of the rank-deficient set and break the
    convergence arguments downstream.
    """

    target: np.ndarray

    kind: ClassVar[str] = "matrix_quadratic"
    min_value: ClassVar[float] = 0.0
    rank_verified: ClassVar[bool] = True
    domain_note: ClassVar[str] = "defined and real-analytic on all of R^{n x n}"

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

    def value(self, W: np.ndarray) -> float:
        diff = self._check(W) - self.target
        # summing over the matrix axes only makes a stack fail loudly in float()
        return 0.5 * float(np.sum(diff * diff, axis=(-2, -1)))

    def gradient(self, W: np.ndarray) -> np.ndarray:
        return self._check(W) - self.target

    def second_directional(self, W: np.ndarray, A: np.ndarray) -> float:
        # exact for a quadratic: f(W + A) = f(W) + <grad, A> + 0.5 ||A||^2
        return 0.5 * float(np.sum(np.asarray(A, dtype=float) ** 2))


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


def scalar_eval(cost: ScalarCost, w: float) -> tuple[float, float, float]:
    """(f(w), f'(w), f''(w)); non-finite entries signal overflow at w."""
    return cost.value(w), cost.deriv(w), cost.second(w)


@dataclass(frozen=True)
class PdpliReport:
    """Outcome of the pointwise gradient-dominance scan.

    alpha_scale is the largest kappa with |f'(w)| >= kappa * sqrt(f(w) - fmin)
    across the grid; witness is a grid point achieving the minimum ratio when
    the check fails.
    """

    passed: bool
    witness: Optional[float]
    alpha_scale: float


def pdpli_check(
    cost: ScalarCost,
    interval: tuple[float, float],
    grid_points: int = 601,
    min_value: Optional[float] = None,
) -> PdpliReport:
    """Scan |f'| / sqrt(f - fmin) on a uniform grid over the interval.

    fmin defaults to the cost's declared min_value, else the grid minimum.
    Points with f within 1e-12 of fmin are skipped: the ratio is 0/0 there.
    The check passes when the worst ratio stays above a small positive floor.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad interval ({lo}, {hi})")
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")

    grid = np.linspace(lo, hi, grid_points)
    f = np.array([cost.value(w) for w in grid])
    fp = np.array([cost.deriv(w) for w in grid])
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(fp))):
        raise ValueError("cost evaluates to non-finite values on the interval")

    if min_value is not None:
        fmin = float(min_value)
    elif cost.min_value is not None:
        fmin = float(cost.min_value)
    else:
        fmin = float(f.min())
    if f.min() < fmin - 1e-9:
        raise ValueError(f"grid values drop below the declared minimum {fmin}")

    active = f > fmin + 1e-12
    if not np.any(active):
        return PdpliReport(passed=True, witness=None, alpha_scale=math.inf)

    ratios = np.abs(fp[active]) / np.sqrt(f[active] - fmin)
    worst = int(np.argmin(ratios))
    kappa = float(ratios[worst])
    passed = kappa > 1e-8
    witness = None if passed else float(grid[active][worst])
    return PdpliReport(passed=passed, witness=witness, alpha_scale=kappa)
