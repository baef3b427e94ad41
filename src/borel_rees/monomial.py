"""Exponent-vector monomials, the graded revlex order, and one-step Borel moves.

Monomials live in a fixed ambient polynomial ring K[x1..xn] and are stored as
dense exponent tuples (n stays small, <= 12 in every instance this library
targets). Variable indices in the public API are 1-based to match the usual
x1, x2, ... naming.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import le
from typing import Iterable, Sequence

from .records import Frozen


class DimensionMismatch(ValueError):
    """Two monomials from rings with different variable counts were combined."""


class NotDivisible(ArithmeticError):
    """Exact monomial quotient requested for a non-divisor."""


class MonomialParseError(ValueError):
    """Monomial text could not be parsed; carries the offending position."""

    def __init__(self, text: str, pos: int, reason: str):
        super().__init__(f"cannot parse monomial {text!r} at position {pos}: {reason}")
        self.text = text
        self.pos = pos


def kind_mismatch(a, b) -> TypeError:
    """The error of an operation on monomials of two different kinds
    (Monomial, PresMonomial, MixedMonomial)."""
    return TypeError(f"monomial kinds differ: {type(a).__name__} and "
                     f"{type(b).__name__}")


class Monomial(Frozen):
    """An immutable monomial, identified with its exponent vector: a Frozen
    on exps, equal and hashed as that tuple, with the short repr
    Monomial(exps)."""

    __slots__ = _fields = ("exps",)

    def __init__(self, exps: Iterable[int]):
        t = tuple(int(e) for e in exps)
        if any(e < 0 for e in t):
            raise ValueError(f"negative exponent in {t}")
        object.__setattr__(self, "exps", t)

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, i: int, n: int) -> "Monomial":
        """x_i in an n-variable ring (i is 1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
        return cls(tuple(1 if k == i - 1 else 0 for k in range(n)))

    @property
    def n(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def exponent(self, i: int) -> int:
        """Exponent of x_i (1-based)."""
        return self.exps[i - 1]

    def support(self) -> tuple[int, ...]:
        """1-based indices of variables that divide this monomial."""
        return tuple(i + 1 for i, e in enumerate(self.exps) if e > 0)

    def variables_with_multiplicity(self) -> tuple[int, ...]:
        """1-based variable indices, each repeated by its exponent."""
        out: list[int] = []
        for i, e in enumerate(self.exps):
            out.extend([i + 1] * e)
        return tuple(out)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n} variables")
        return Monomial(a + b for a, b in zip(self.exps, other.exps))

    def divides(self, other: "Monomial") -> bool:
        if other.__class__ is not Monomial:
            raise kind_mismatch(self, other)
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n} variables")
        return all(map(le, self.exps, other.exps))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other, requiring exact divisibility."""
        if not other.divides(self):
            raise NotDivisible(f"{other} does not divide {self}")
        return Monomial(a - b for a, b in zip(self.exps, other.exps))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return f"Monomial({self.exps})"

    def __str__(self) -> str:
        return format_monomial(self)

    def label(self, r: int | None = None) -> str:
        """Display label, the same for every r: the presentation monomial
        kinds take r for their T../Z.. aliases."""
        return str(self)


def format_monomial(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m.exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse 'x2*x5' / 'x4^2' / '1' into a Monomial in n variables."""
    s = text.strip()
    if s == "1" or s == "":
        return Monomial.one(n)
    exps = [0] * n
    pos = 0
    for k, chunk in enumerate(s.split("*")):
        piece = chunk.strip()
        m = _FACTOR_RE.fullmatch(piece)
        if not m:
            raise MonomialParseError(text, pos, f"bad factor {piece!r}")
        idx = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) else 1
        if not 1 <= idx <= n:
            raise MonomialParseError(text, pos, f"variable x{idx} outside 1..{n}")
        if exp <= 0:
            raise MonomialParseError(text, pos, "exponent must be positive")
        exps[idx - 1] += exp
        pos += len(chunk) + 1
    return Monomial(exps)


def product(monomials: Sequence[Monomial], n: int) -> Monomial:
    return reduce(Monomial.__mul__, monomials, Monomial.one(n))


def rlex_compare(a: Monomial, b: Monomial) -> int:
    """Graded reverse lexicographic comparison with x1 > x2 > ... > xn.

    Returns 1 if a comes before b (a is larger), -1 if after, 0 on equality.
    Degrees compare first; for equal degrees a > b iff the last nonzero entry
    of exps(a) - exps(b) is negative, and equal degrees are the only case the
    Borel constructions ever need.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} vs {b.n} variables")
    if a.degree != b.degree:
        return 1 if a.degree > b.degree else -1
    for x, y in zip(reversed(a.exps), reversed(b.exps)):
        if x != y:
            return 1 if x < y else -1
    return 0


def rlex_sort_key(m: Monomial):
    """Sort key: ascending sort by this key lists monomials rlex-descending."""
    return (-m.degree, m.exps[::-1])


def one_step_reduction(m: Monomial, i: int, j: int) -> Monomial:
    """Replace one factor x_i of m by x_j, where j < i. Preserves degree."""
    if j >= i:
        raise ValueError(f"need j < i, got j={j}, i={i}")
    if m.exponent(i) == 0:
        raise NotDivisible(f"x{i} does not divide {m}")
    exps = list(m.exps)
    exps[i - 1] -= 1
    exps[j - 1] += 1
    return Monomial(exps)


def all_one_step_reductions(m: Monomial):
    """Yield (reduction, i, j) for every legal one-step move on m."""
    for i in m.support():
        for j in range(1, i):
            yield one_step_reduction(m, i, j), i, j


def strongly_stable_precedes(m1: Monomial, m2: Monomial) -> bool:
    """True iff m1 is reachable from m2 by a chain of one-step reductions.

    Uses the prefix-sum dominance criterion: m1 precedes m2 iff for every k
    the total exponent of x1..xk in m1 is at least that in m2. The test suite
    cross-checks this fast path against breadth-first closure of the moves.
    """
    if m1.n != m2.n:
        raise DimensionMismatch(f"{m1.n} vs {m2.n} variables")
    if m1.degree != m2.degree:
        raise ValueError(
            f"strongly stable order compares equal degrees only "
            f"({m1.degree} vs {m2.degree})"
        )
    s1 = s2 = 0
    for a, b in zip(m1.exps, m2.exps):
        s1 += a
        s2 += b
        if s1 < s2:
            return False
    return True
