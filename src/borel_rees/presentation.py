"""Presentation variables, the toric maps, multidegrees, and fiber enumeration.

The presentation ring has one variable per (ideal index, minimal generator)
pair. A PresMonomial is a multiset of those variables; the toric map phi sends
it to its multidegree: the product of the underlying generators together with
the vector counting factors per ideal. MixedMonomial adds an ambient x-part
and models monomials of the full multi-graded presentation ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .borel import StronglyStableIdeal
from .monomial import Monomial, format_monomial, product, rlex_sort_key


class PresVar:
    """Presentation variable for one minimal generator of one ideal (1-based).

    Immutable. The sort key (ideal index, then the generator rlex-descending)
    and the hash are computed once, at construction: variables are dict keys
    and sort keys on every rewrite step. Equality compares the keys.
    """

    __slots__ = ("ideal_index", "generator", "key", "_hash")

    def __init__(self, ideal_index: int, generator: Monomial):
        object.__setattr__(self, "ideal_index", ideal_index)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "key", (ideal_index, rlex_sort_key(generator)))
        object.__setattr__(self, "_hash", hash((ideal_index, generator)))

    def __setattr__(self, name, value):
        raise AttributeError("PresVar is immutable")

    def __delattr__(self, name):
        raise AttributeError("PresVar is immutable")

    def __reduce__(self):
        # worker pools pickle rules; rebuilding recomputes the key and hash
        return PresVar, (self.ideal_index, self.generator)

    def sort_key(self):
        return self.key

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PresVar):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"PresVar(ideal_index={self.ideal_index!r}, "
            f"generator={self.generator!r})"
        )

    def label(self, style: str = "auto", r: int | None = None) -> str:
        """Display label; two-ideal quadric runs get the compact T../Z.. aliases."""
        if (
            style in ("auto", "legacy")
            and self.generator.degree == 2
            and self.ideal_index <= 2
            and (r is None or r <= 2)
        ):
            idx = self.generator.variables_with_multiplicity()
            if max(idx) <= 9:
                letter = "T" if self.ideal_index == 1 else "Z"
                return f"{letter}{idx[0]}{idx[1]}"
        return f"T[{self.ideal_index}]{{{format_monomial(self.generator)}}}"

    def __str__(self) -> str:
        return self.label()


_BY_KEY = attrgetter("key")


class MultiDegree(NamedTuple):
    """Image of phi: ambient exponents plus the per-ideal t-grading."""

    x_exps: tuple[int, ...]
    t_exps: tuple[int, ...]

    @property
    def x_monomial(self) -> Monomial:
        return Monomial(self.x_exps)

    @property
    def total_t(self) -> int:
        return sum(self.t_exps)

    def display(self) -> str:
        xs = format_monomial(Monomial(self.x_exps))
        ts = "*".join(
            f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}"
            for i, e in enumerate(self.t_exps)
            if e > 0
        )
        return f"{xs};{ts}" if ts else xs


class PresMonomial:
    """A monomial in the presentation variables, stored canonically sorted.

    The storage order (ideal index ascending, generator rlex-descending) is
    only a canonical form for hashing and deduplication; the term orders in
    `orders` impose their own comparisons. The hash is computed on first use
    and kept, since normal-form memos look monomials up repeatedly.
    """

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: Iterable[PresVar]):
        object.__setattr__(self, "factors", tuple(sorted(factors, key=_BY_KEY)))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("PresMonomial is immutable")

    @classmethod
    def from_sorted(cls, factors: tuple[PresVar, ...]) -> "PresMonomial":
        """Wrap factors already in canonical (PresVar.sort_key) order."""
        v = object.__new__(cls)
        object.__setattr__(v, "factors", factors)
        object.__setattr__(v, "_hash", None)
        return v

    @classmethod
    def one(cls) -> "PresMonomial":
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.factors)

    def t_vector(self, r: int) -> tuple[int, ...]:
        counts = [0] * r
        for f in self.factors:
            counts[f.ideal_index - 1] += 1
        return tuple(counts)

    def __mul__(self, other: "PresMonomial") -> "PresMonomial":
        return PresMonomial(self.factors + other.factors)

    def divides(self, other: "PresMonomial") -> bool:
        """Multiset containment; factor tuples are sorted, so merge-scan."""
        it = iter(other.factors)
        for f in self.factors:
            for g in it:
                if g == f:
                    break
            else:
                return False
        return True

    def quotient(self, other: "PresMonomial") -> "PresMonomial":
        remaining = list(self.factors)
        for f in other.factors:
            remaining.remove(f)  # raises ValueError on non-divisor
        return PresMonomial(remaining)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, PresMonomial) and self.factors == other.factors
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.factors)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"PresMonomial({self.factors!r})"

    def label(self, style: str = "auto", r: int | None = None) -> str:
        if not self.factors:
            return "1"
        parts = []
        for var, group in itertools.groupby(self.factors):
            k = len(list(group))
            base = var.label(style, r)
            parts.append(base if k == 1 else f"{base}^{k}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.label()

    def __getstate__(self):
        return self.factors

    def __setstate__(self, state):
        object.__setattr__(self, "factors", tuple(state))
        object.__setattr__(self, "_hash", None)


@dataclass(frozen=True)
class MixedMonomial:
    """x-monomial times presentation monomial: a monomial of the big ring."""

    x_part: Monomial
    t_part: PresMonomial

    @property
    def degree(self) -> int:
        return self.x_part.degree + self.t_part.degree

    def __mul__(self, other: "MixedMonomial") -> "MixedMonomial":
        return MixedMonomial(self.x_part * other.x_part, self.t_part * other.t_part)

    def divides(self, other: "MixedMonomial") -> bool:
        return self.x_part.divides(other.x_part) and self.t_part.divides(other.t_part)

    def quotient(self, other: "MixedMonomial") -> "MixedMonomial":
        return MixedMonomial(
            self.x_part.quotient(other.x_part), self.t_part.quotient(other.t_part)
        )

    def label(self, style: str = "auto", r: int | None = None) -> str:
        xs = format_monomial(self.x_part)
        ts = self.t_part.label(style, r)
        if ts == "1":
            return xs
        if xs == "1":
            return ts
        return f"{xs}*{ts}"

    def __str__(self) -> str:
        return self.label()


def content(u: PresMonomial, n: int) -> Monomial:
    """Product of the underlying generator monomials (t-grading forgotten)."""
    return product([f.generator for f in u.factors], n)


def phi(
    v: PresMonomial | MixedMonomial,
    ideals: Sequence[StronglyStableIdeal],
) -> MultiDegree:
    """The toric map: T_{i,j} -> u_{i,j} t_i, extended multiplicatively."""
    n = ideals[0].n
    r = len(ideals)
    if isinstance(v, MixedMonomial):
        x = v.x_part * content(v.t_part, n)
        return MultiDegree(x.exps, v.t_part.t_vector(r))
    return MultiDegree(content(v, n).exps, v.t_vector(r))


def _generator_multisets(
    gens: Sequence[Monomial], count: int, budget: Monomial | None
) -> Iterator[tuple[Monomial, ...]]:
    """All non-increasing choices of `count` generators, optionally pruned so
    the running product divides `budget`. Non-increasing index choice kills
    permutation duplicates."""
    n = gens[0].n if gens else 0

    def rec(start: int, left: int, remaining: Monomial):
        if left == 0:
            yield ()
            return
        for k in range(start, len(gens)):
            g = gens[k]
            if budget is not None and not g.divides(remaining):
                continue
            rest = remaining.quotient(g) if budget is not None else remaining
            for tail in rec(k, left - 1, rest):
                yield (g,) + tail

    if count == 0:
        yield ()
        return
    if not gens:
        return
    start_budget = budget if budget is not None else Monomial.one(n)
    yield from rec(0, count, start_budget)


def enumerate_fiber(
    mu: MultiDegree, ideals: Sequence[StronglyStableIdeal]
) -> list[PresMonomial]:
    """All presentation monomials mapping onto mu under phi, canonically sorted.

    Exact backtracking: per ideal, place t_exps[i] generators in non-increasing
    order with divisibility pruning against the remaining x-budget; at the end
    the budget must be used up exactly.
    """
    n = ideals[0].n
    r = len(ideals)
    if len(mu.t_exps) != r:
        raise ValueError(f"t-vector length {len(mu.t_exps)} != r={r}")
    target = Monomial(mu.x_exps)
    if target.degree != sum(
        a * ideal.degree for a, ideal in zip(mu.t_exps, ideals)
    ):
        return []

    results: list[PresMonomial] = []

    def per_ideal(i: int, remaining: Monomial, chosen: list[PresVar]):
        if i == r:
            if remaining.degree == 0:
                results.append(PresMonomial(chosen))
            return
        ideal = ideals[i]
        count = mu.t_exps[i]
        for ms in _generator_multisets(ideal.minimal_generators, count, remaining):
            used = product(ms, n)
            per_ideal(
                i + 1,
                remaining.quotient(used),
                chosen + [PresVar(i + 1, g) for g in ms],
            )

    per_ideal(0, target, [])
    return sorted(results, key=lambda v: tuple(f.sort_key() for f in v.factors))


def enumerate_mixed_fiber(
    mu: MultiDegree, ideals: Sequence[StronglyStableIdeal]
) -> list[MixedMonomial]:
    """All monomials m*u of the full presentation ring with phi(m*u) = mu."""
    n = ideals[0].n
    target = Monomial(mu.x_exps)
    out: list[MixedMonomial] = []
    for t_part in pres_monomials_with_t(ideals, mu.t_exps, budget=target):
        c = content(t_part, n)
        out.append(MixedMonomial(target.quotient(c), t_part))
    return out


def pres_monomials_with_t(
    ideals: Sequence[StronglyStableIdeal],
    t_exps: Sequence[int],
    budget: Monomial | None = None,
) -> Iterator[PresMonomial]:
    """All presentation monomials with the exact t-vector, content | budget."""
    per_ideal_choices = []
    for i, ideal in enumerate(ideals):
        choices = list(
            _generator_multisets(ideal.minimal_generators, t_exps[i], budget)
        )
        per_ideal_choices.append(choices)
    for combo in itertools.product(*per_ideal_choices):
        factors = [
            PresVar(i + 1, g) for i, ms in enumerate(combo) for g in ms
        ]
        u = PresMonomial(factors)
        if budget is not None and not content(u, ideals[0].n).divides(budget):
            continue
        yield u


def t_vectors(t_budget: Sequence[int]) -> Iterator[tuple[int, ...]]:
    yield from itertools.product(*(range(b + 1) for b in t_budget))


def presentation_variables(
    ideals: Sequence[StronglyStableIdeal],
) -> tuple[PresVar, ...]:
    """Every presentation variable ranked by PresVar.sort_key; a variable's
    position is its index in fibers_by_multidegree's forbidden pairs."""
    return tuple(
        sorted(
            (
                PresVar(i, g)
                for i, ideal in enumerate(ideals, start=1)
                for g in ideal.minimal_generators
            ),
            key=_BY_KEY,
        )
    )


def fibers_by_multidegree(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    forbidden_pairs: Iterable[tuple[int, int]] = (),
) -> Iterator[tuple[MultiDegree, list[PresMonomial]]]:
    """Group every presentation monomial with t <= budget by its multidegree.

    Yields (multidegree, fiber) pairs in a deterministic order: t-vectors
    lexicographically, x-exponents ascending within each t-slice, each fiber
    canonically sorted. Building the fibers by grouping is equivalent to
    calling enumerate_fiber per multidegree and is what the exhaustive
    verifier iterates.

    Monomials are built by backtracking over non-decreasing tuples of
    variable indexes (positions in presentation_variables), accumulating the
    content exponents on the way; lexicographic tuple order is the canonical
    fiber order, so no fiber needs sorting. forbidden_pairs lists index pairs
    (i, j) no yielded monomial may contain both factors of (twice the factor
    when i == j). With the lead pairs of a quadratic marking this lists
    exactly the standard monomials, and multidegrees without one are skipped.
    """
    if len(t_budget) != len(ideals):
        raise ValueError(
            f"t budget needs {len(ideals)} entries, got {len(t_budget)}"
        )
    variables = presentation_variables(ideals)
    exps = [v.generator.exps for v in variables]
    block: list[tuple[int, int]] = []  # index range of each ideal's variables
    offset = 0
    for ideal in ideals:
        block.append((offset, offset + len(ideal.minimal_generators)))
        offset += len(ideal.minimal_generators)
    bans: list[list[int]] = [[] for _ in variables]
    for i, j in forbidden_pairs:
        bans[min(i, j)].append(max(i, j))
    banned = [0] * len(variables)
    chosen: list[int] = []

    def extend(slots, pos, lo, x, groups):
        if pos == len(slots):
            groups.setdefault(x, []).append(tuple(chosen))
            return
        start, stop = block[slots[pos]]
        for k in range(max(lo, start), stop):
            if banned[k]:
                continue
            chosen.append(k)
            for j in bans[k]:
                banned[j] += 1
            extend(slots, pos + 1, k, tuple(map(add, x, exps[k])), groups)
            for j in bans[k]:
                banned[j] -= 1
            chosen.pop()

    zero = (0,) * ideals[0].n
    for tv in t_vectors(t_budget):
        slots = [i for i, count in enumerate(tv) for _ in range(count)]
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        extend(slots, 0, 0, zero, groups)
        for x in sorted(groups):
            fiber = [
                PresMonomial.from_sorted(tuple(variables[k] for k in ranks))
                for ranks in groups[x]
            ]
            yield MultiDegree(x, tv), fiber

