"""Presentation variables, the toric maps, multidegrees, and fiber enumeration.

The presentation ring has one variable per (ideal index, minimal generator)
pair. A PresMonomial is a multiset of those variables; the toric map phi sends
it to its multidegree: the product of the underlying generators together with
the vector counting factors per ideal. MixedMonomial adds an ambient x-part
and models monomials of the full multi-graded presentation ring.

One backtracking enumerator lists the fibers of phi, a t-slice at a time.
enumerate_fiber (one fiber), enumerate_mixed_fiber (one fiber of the full
presentation map) and rank_slices (each t-slice's monomials as rank tuples,
grouped by content) are thin wrappers around it. rank_fibers yields every
fiber within a t-budget from rank_slices, as rank tuples, or with an
x-degree bound every fiber of the full presentation map as atom tuples;
fibers_by_multidegree builds PresMonomials from rank_fibers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, attrgetter, gt, sub
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

    def label(self, r: int | None = None) -> str:
        """Display label; two-ideal quadric runs get the compact T../Z.. aliases."""
        if (
            self.generator.degree == 2
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
        """Multiset containment; factor tuples are sorted by key, so
        merge-scan the keys and stop at the first one past a factor."""
        it = iter(other.factors)
        for f in self.factors:
            key = f.key
            for g in it:
                if g.key == key:
                    break
                if g.key > key:
                    return False
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

    def label(self, r: int | None = None) -> str:
        if not self.factors:
            return "1"
        parts = []
        for var, group in itertools.groupby(self.factors):
            k = len(list(group))
            base = var.label(r)
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

    def label(self, r: int | None = None) -> str:
        xs = format_monomial(self.x_part)
        ts = self.t_part.label(r)
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


def content_degree(ideals: Sequence[StronglyStableIdeal], tv) -> int:
    """The degree of content(u) for every u with t-vector tv: each ideal's
    generators share one degree."""
    return sum(a * ideal.degree for a, ideal in zip(tv, ideals))


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


def check_t_budget(
    ideals: Sequence[StronglyStableIdeal], t_budget: Sequence[int]
) -> None:
    """Raise ValueError unless t_budget has one entry per ideal."""
    if len(t_budget) != len(ideals):
        raise ValueError(
            f"t budget needs {len(ideals)} entries, got {len(t_budget)}"
        )


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


def _slice_ranks(
    variables: Sequence[PresVar],
    ideals: Sequence[StronglyStableIdeal],
    tv: Sequence[int],
    target: Sequence[int] | None = None,
    forbidden_pairs: Sequence[tuple[int, int]] = (),
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(content exponents, rank tuple) of each presentation monomial with
    t-vector tv, in canonical order: the one enumerator of this module.

    Backtracks over non-decreasing tuples of ranks (positions in variables,
    which is presentation_variables(ideals)), accumulating the content; rank
    order is the canonical order. Given a target x-vector, only variables
    whose generator divides what is left of it are tried. No monomial holds
    both factors of a forbidden rank pair (i, j) (twice it when i == j).
    Callers build a monomial from its ranks when they hand it out, so the
    objects of a large slice are never all alive at once.
    """
    if len(tv) != len(ideals):
        raise ValueError(f"t-vector length {len(tv)} != r={len(ideals)}")
    exps = [v.generator.exps for v in variables]
    slots: list[tuple[int, int]] = []  # rank range of each factor position
    offset = 0
    for ideal, count in zip(ideals, tv):
        stop = offset + len(ideal.minimal_generators)
        slots += [(offset, stop)] * count
        offset = stop
    bans: list[list[int]] = [[] for _ in variables]
    for i, j in forbidden_pairs:
        bans[min(i, j)].append(max(i, j))
    banned = [0] * len(variables)
    chosen: list[int] = []
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def extend(pos, lo, x):
        if pos == len(slots):
            out.append((x, tuple(chosen)))
            return
        start, stop = slots[pos]
        for k in range(max(lo, start), stop):
            if banned[k]:
                continue
            nx = tuple(map(add, x, exps[k]))
            if target is not None and any(map(gt, nx, target)):
                continue
            chosen.append(k)
            for j in bans[k]:
                banned[j] += 1
            extend(pos + 1, k, nx)
            for j in bans[k]:
                banned[j] -= 1
            chosen.pop()

    extend(0, 0, (0,) * ideals[0].n)
    return out


def enumerate_fiber(
    mu: MultiDegree, ideals: Sequence[StronglyStableIdeal]
) -> list[PresMonomial]:
    """All presentation monomials mapping onto mu under phi, canonically
    sorted. A wrong-length t-vector raises ValueError; an x-part of another
    degree than the t-vector's content degree has an empty fiber."""
    if len(mu.t_exps) != len(ideals):
        raise ValueError(f"t-vector length {len(mu.t_exps)} != r={len(ideals)}")
    target = tuple(mu.x_exps)
    if sum(target) != content_degree(ideals, mu.t_exps):
        return []
    variables = presentation_variables(ideals)
    return [
        PresMonomial.from_sorted(tuple(variables[k] for k in ranks))
        for x, ranks in _slice_ranks(variables, ideals, mu.t_exps, target)
        if x == target
    ]


def enumerate_mixed_fiber(
    mu: MultiDegree, ideals: Sequence[StronglyStableIdeal]
) -> list[MixedMonomial]:
    """All monomials m*u of the full presentation ring with phi(m*u) = mu:
    each slice monomial u whose content divides the x-part, with m the rest."""
    target = tuple(mu.x_exps)
    variables = presentation_variables(ideals)
    return [
        MixedMonomial(
            Monomial(map(sub, target, x)),
            PresMonomial.from_sorted(tuple(variables[k] for k in ranks)),
        )
        for x, ranks in _slice_ranks(variables, ideals, mu.t_exps, target)
    ]


def rank_slices(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    forbidden_pairs: Iterable[tuple[int, int]] = (),
) -> Iterator[
    tuple[tuple[int, ...], dict[tuple[int, ...], list[tuple[int, ...]]]]
]:
    """Every presentation monomial with t <= budget as its rank tuple, one
    t-slice at a time: (t-vector, {content exponents: rank tuples}).

    t-vectors come lexicographically; in a slice the contents come in the
    order of their first monomial, unsorted, and each content's monomials
    in rank order. A content is a multidegree of the slice, and its list is
    the multidegree's fiber (its monomials avoiding forbidden_pairs, as in
    fibers_by_multidegree). A t_budget without one entry per ideal raises
    ValueError.
    """
    check_t_budget(ideals, t_budget)
    variables = presentation_variables(ideals)
    forbidden_pairs = list(forbidden_pairs)
    for tv in t_vectors(t_budget):
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for x, ranks in _slice_ranks(variables, ideals, tv,
                                     forbidden_pairs=forbidden_pairs):
            groups.setdefault(x, []).append(ranks)
        yield tv, groups


def rank_fibers(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    forbidden_pairs: Iterable[tuple[int, int]] = (),
    x_degree: int | None = None,
) -> Iterator[tuple[MultiDegree, list[tuple[int, ...]]]]:
    """fibers_by_multidegree with each monomial as its rank tuple (positions
    in presentation_variables, non-decreasing), building no objects: the
    slices of rank_slices, contents ascending.

    With x_degree, the fibers of the full presentation map instead, up to
    that x-degree, each member m*u as its sorted atom tuple: x_i is atom
    i - 1 and rank k is atom n + k. They come t-slice by t-slice, then by
    x-degree, then in combinations_with_replacement order of the x-atoms;
    a fiber holds the slice monomials u whose content divides its x-part,
    contents in the order of their first monomial and each content's
    monomials in rank order, with m the rest of the x-part.
    """
    n = ideals[0].n
    for tv, groups in rank_slices(ideals, t_budget, forbidden_pairs):
        if x_degree is None:
            for x in sorted(groups):
                yield MultiDegree(x, tv), groups[x]
            continue
        # a content c and an x-monomial w of the rest make the fiber of c*w
        members = [
            (tuple(i for i, e in enumerate(x) for _ in range(e)),
             [tuple([n + k for k in ranks]) for ranks in group])
            for x, group in groups.items()
        ]
        low = content_degree(ideals, tv)
        for d in range(low, x_degree + 1):
            fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for c, us in members:
                for w in itertools.combinations_with_replacement(
                        range(n), d - low):
                    fibers.setdefault(tuple(sorted(c + w)), []).extend(
                        w + u for u in us)
            for xs in sorted(fibers):
                exps = [0] * n
                for i in xs:
                    exps[i] += 1
                yield MultiDegree(tuple(exps), tv), fibers[xs]


def fibers_by_multidegree(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    forbidden_pairs: Iterable[tuple[int, int]] = (),
) -> Iterator[tuple[MultiDegree, list[PresMonomial]]]:
    """Group every presentation monomial with t <= budget by its multidegree.

    Yields (multidegree, fiber) pairs in a deterministic order: t-vectors
    lexicographically, x-exponents ascending within each t-slice, each fiber
    canonically sorted. This is what the exhaustive verifier iterates; each
    fiber is the one enumerate_fiber lists for its multidegree, built from
    the rank tuples of rank_fibers.

    forbidden_pairs lists index pairs (i, j) of presentation_variables no
    yielded monomial may contain both factors of (twice the factor when
    i == j). With the lead pairs of a quadratic marking this lists exactly
    the standard monomials, and multidegrees without one are skipped.
    """
    variables = presentation_variables(ideals)
    for mu, group in rank_fibers(ideals, t_budget, forbidden_pairs):
        yield mu, [
            PresMonomial.from_sorted(tuple(variables[k] for k in ranks))
            for ranks in group
        ]
