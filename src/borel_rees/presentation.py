"""Presentation variables, the toric maps, multidegrees, and fiber enumeration.

The presentation ring has one variable per (ideal index, minimal generator)
pair; ideal_variables builds them once per ideal and index, so a collection
shares one PresVar per variable. A PresMonomial is a multiset of those
variables; the toric map phi sends it to its multidegree: the product of the
underlying generators together with the vector counting factors per ideal.
MixedMonomial adds an ambient x-part and models monomials of the full
multi-graded presentation ring.

One enumerator lists the fibers of phi: _Expansion grows presentation
monomials a factor at a time, a whole t-slice (level) at once, each
monomial a rank tuple with its content packed into an int (Digits) and the
ranks still allowed beside it as a bitmask. Each t-slice grows from its
parent slice (_level_slices), so every monomial within a t-budget is built
once, and a slice with no x-degree left under a walk's bound is not built
at all. A pure fiber is a fiber of the full presentation map whose x-part is
all content, of rest degree 0, so each point query and each walk serves
both presentations: enumerate_mixed_fiber (one fiber of the full map)
grows one slice pruned against the target x-part, and enumerate_fiber
takes its t-parts. _fiber_groups groups every fiber within a t-budget by
packed x-part, one group per t-slice and x-degree, a pure walk taking each
slice at its content degree alone, each member of a mixed fiber u*m as an
atom tuple: u's rank tuple followed by m's x-atoms, x_i being atom
size + i - 1 after the size presentation variables, so a rank tuple is
its own atom tuple. It is the one source of both walks over a budget: its
counts count the members of each group without listing one (their levels
map each enumerator state to the packed contents of the nodes in it), and
its groups list them from any group on, on one expansion, so a run can
count some groups and list the rest.
rank_fibers flattens the listed groups into sorted fibers with decoded
keys, and fibers_by_multidegree decodes PresMonomials from rank_fibers.

Alphabet owns that atom numbering: Alphabet.of(ideals) encodes a monomial
into its atom tuple and decodes an atom tuple into a Monomial, PresMonomial
or MixedMonomial, and every atom tuple of the package becomes an object
through one (reduction.RankRules compiles a rule list onto one).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import reduce
from math import comb, prod
from operator import attrgetter, or_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .borel import StronglyStableIdeal
from .monomial import (Monomial, format_monomial, kind_mismatch, product,
                       rlex_sort_key)
from .records import Frozen


class PresVar(Frozen):
    """Presentation variable for one minimal generator of one ideal (1-based).

    A Frozen on (ideal_index, generator). The sort key (ideal index, then
    the generator rlex-descending), the hash and the two labels are
    computed once, at construction: variables are dict keys and sort keys
    on every rewrite step, and a refuted run labels thousands of monomials.
    Equality compares the keys.
    """

    __slots__ = ("ideal_index", "generator", "key", "_hash", "_alias",
                 "_full")
    _fields = ("ideal_index", "generator")

    def __init__(self, ideal_index: int, generator: Monomial):
        object.__setattr__(self, "ideal_index", ideal_index)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "key", (ideal_index, rlex_sort_key(generator)))
        object.__setattr__(self, "_hash", hash((ideal_index, generator)))
        alias = full = f"T[{ideal_index}]{{{format_monomial(generator)}}}"
        if generator.degree == 2 and ideal_index <= 2:
            i, j = generator.variables_with_multiplicity()
            if j <= 9:
                alias = f"{'TZ'[ideal_index - 1]}{i}{j}"
        object.__setattr__(self, "_alias", alias)
        object.__setattr__(self, "_full", full)

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

    def label(self, r: int | None = None) -> str:
        """Display label; two-ideal quadric runs get the compact T../Z.. aliases."""
        return self._alias if r is None or r <= 2 else self._full

    def __str__(self) -> str:
        return self.label()


_BY_KEY = attrgetter("key")


class MultiDegree(NamedTuple):
    """Image of phi: ambient exponents plus the per-ideal t-grading."""

    x_exps: tuple[int, ...]
    t_exps: tuple[int, ...]

    def display(self) -> str:
        xs = format_monomial(Monomial(self.x_exps))
        ts = "*".join(
            f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}"
            for i, e in enumerate(self.t_exps)
            if e > 0
        )
        return f"{xs};{ts}" if ts else xs


class PresMonomial(Frozen):
    """A monomial in the presentation variables, stored canonically sorted.

    A Frozen on factors. The storage order (ideal index ascending,
    generator rlex-descending) is only a canonical form for hashing and
    deduplication; the term orders in `orders` impose their own
    comparisons. The hash is computed on first use and kept, since
    normal-form memos look monomials up repeatedly.
    """

    __slots__ = ("factors", "_hash")
    _fields = ("factors",)

    def __init__(self, factors: Iterable[PresVar]):
        _set_factors(self, tuple(sorted(factors, key=_BY_KEY)))
        _set_hash(self, None)

    @classmethod
    def from_sorted(cls, factors: tuple[PresVar, ...]) -> "PresMonomial":
        """Wrap factors already in canonical (PresVar.sort_key) order."""
        v = _new(cls)
        _set_factors(v, factors)
        _set_hash(v, None)
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
        if other.__class__ is not PresMonomial:
            raise kind_mismatch(self, other)
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
            _set_hash(self, h)
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


# the slots written past the immutability guard: a slot's own setter is the
# cheapest write there is, and monomials are built on every rewrite step
_new = object.__new__
_set_factors = PresMonomial.factors.__set__
_set_hash = PresMonomial._hash.__set__


class MixedMonomial(Frozen):
    """x-monomial times presentation monomial: a monomial of the big ring,
    a Frozen on its two slots (x_part, t_part)."""

    __slots__ = ("x_part", "t_part")
    _fields = __slots__

    def __init__(self, x_part: Monomial, t_part: PresMonomial):
        _set_x_part(self, x_part)
        _set_t_part(self, t_part)

    @property
    def degree(self) -> int:
        return self.x_part.degree + self.t_part.degree

    def __mul__(self, other: "MixedMonomial") -> "MixedMonomial":
        return MixedMonomial(self.x_part * other.x_part, self.t_part * other.t_part)

    def divides(self, other: "MixedMonomial") -> bool:
        if other.__class__ is not MixedMonomial:
            raise kind_mismatch(self, other)
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


_set_x_part = MixedMonomial.x_part.__set__
_set_t_part = MixedMonomial.t_part.__set__


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
    """Raise ValueError unless t_budget has one entry per ideal, none of
    them negative."""
    if len(t_budget) != len(ideals):
        raise ValueError(
            f"t budget needs {len(ideals)} entries, got {len(t_budget)}"
        )
    if min(t_budget, default=0) < 0:
        raise ValueError(f"t budget entries must be >= 0, got {min(t_budget)}")


def t_vectors(t_budget: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every t-vector within t_budget, lexicographically: the order of
    itertools.product over the ranges, which would first copy each range
    into a tuple, however large its entry."""
    if not t_budget:
        yield ()
        return
    for a in range(t_budget[0] + 1):
        for rest in t_vectors(t_budget[1:]):
            yield (a, *rest)


def _reached_budget(ideals: Sequence[StronglyStableIdeal],
                    t_budget: Sequence[int],
                    x_degree: int | None = None) -> tuple[int, ...]:
    """The box of t-vectors a walk up to x_degree reaches, t_budget with
    each entry t_i clipped to x_degree // d_i (d_i the degree of ideal i):
    content degree grows with every entry, so a slice past that box has
    content degree above x_degree and no group. A pure walk (no x_degree)
    reaches the whole budget."""
    if x_degree is None:
        return tuple(t_budget)
    return tuple([min(b, x_degree // ideal.degree)
                  for b, ideal in zip(t_budget, ideals)])


def _rest_degrees(ideals: Sequence[StronglyStableIdeal], tv,
                  x_degree: int | None = None) -> range:
    """The rest degrees of a t-slice's groups: e for its group of x-degree
    content degree + e, up to x_degree. A pure walk (no x_degree) takes
    the slice at its content degree alone, range(1); the range is empty
    when the slice's content degree is above x_degree."""
    if x_degree is None:
        return range(1)
    return range(x_degree - content_degree(ideals, tv) + 1)


def monomial_count(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int | None = None,
) -> int:
    """The number of monomials in the fibers of rank_fibers, in closed
    form: a t-slice holds prod C(g_i + t_i - 1, t_i) presentation
    monomials, g_i the number of variables of ideal i, each of them times
    the C(n + e, e) x-monomials of degree at most e, the last of the
    slice's rest degrees (_rest_degrees; none when they are empty).
    Without x_degree e is 0: a pure fiber is a fiber of rest degree 0.
    Only the slices x_degree reaches are summed (_reached_budget), however
    far the budget goes past them."""
    total = 0
    for tv in t_vectors(_reached_budget(ideals, t_budget, x_degree)):
        rests = _rest_degrees(ideals, tv, x_degree)
        if rests:
            total += comb(ideals[0].n + rests[-1], rests[-1]) * prod(
                [comb(len(ideal.minimal_generators) + t - 1, t)
                 for ideal, t in zip(ideals, tv)])
    return total


def ideal_variables(
    ideal: StronglyStableIdeal, ideal_index: int
) -> tuple[PresVar, ...]:
    """The presentation variables of one ideal at a 1-based index, one per
    minimal generator, in the order of minimal_generators: rlex-descending,
    which is PresVar.key order.

    They are built once per ideal and index and kept on the ideal, so every
    order, rule set and variable list of a collection shares one PresVar
    per variable, and dict lookups among them hit on identity.
    """
    kept = ideal._presentation_variables
    variables = kept.get(ideal_index)
    if variables is None:
        variables = kept[ideal_index] = tuple(
            PresVar(ideal_index, g) for g in ideal.minimal_generators)
    return variables


def presentation_variables(
    ideals: Sequence[StronglyStableIdeal],
) -> tuple[PresVar, ...]:
    """Every presentation variable ranked by PresVar.sort_key; a variable's
    position is its rank, its atom in Alphabet.of(ideals)."""
    return tuple(sorted(
        itertools.chain.from_iterable(
            ideal_variables(ideal, i) for i, ideal in enumerate(ideals, 1)),
        key=_BY_KEY,
    ))


class Alphabet:
    """The atoms of a collection with n ambient variables and presentation
    variables `variables`, ranked by PresVar.sort_key.

    The presentation variable of rank k (its position in variables) is atom
    k and x_i is atom size + i - 1, where size is the number of
    presentation variables, so ambient, pure and mixed monomials are all
    sorted int tuples, ranks first, and a rank tuple of the enumerator is
    its own atom tuple. index maps each variable to its rank. Every atom
    tuple becomes a monomial here (decode, label), and every monomial an
    atom tuple (encode).
    """

    __slots__ = ("variables", "n", "index")

    def __init__(self, variables: Sequence[PresVar], n: int):
        self.variables = tuple(variables)
        self.n = n
        self.index = {v: k for k, v in enumerate(self.variables)}

    @classmethod
    def of(cls, ideals: Sequence[StronglyStableIdeal]) -> "Alphabet":
        """The alphabet of a collection: presentation_variables(ideals) and
        the ambient variable count of its ring."""
        return cls(presentation_variables(ideals), ideals[0].n)

    def encode(self, v: Monomial | PresMonomial | MixedMonomial) -> tuple[int, ...]:
        """The sorted atom tuple of a monomial; an ambient Monomial has
        x-atoms only. A presentation variable outside the alphabet raises
        ValueError."""
        size = len(self.variables)
        if isinstance(v, Monomial):
            return tuple(size + i for i, e in enumerate(v.exps)
                         for _ in range(e))
        xs: list[int] = []
        if isinstance(v, MixedMonomial):
            xs = [size + i for i, e in enumerate(v.x_part.exps)
                  for _ in range(e)]
            v = v.t_part
        try:
            return tuple([self.index[f] for f in v.factors] + xs)
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not a variable of this "
                             "collection") from None

    def decode(self, atoms: Sequence[int], kind: type = MixedMonomial):
        """The monomial of the given kind (Monomial, PresMonomial or
        MixedMonomial) that the atoms encode."""
        size = len(self.variables)
        split = bisect_left(atoms, size)
        exps = [0] * self.n
        for a in atoms[split:]:
            exps[a - size] += 1
        if kind is Monomial:
            return Monomial(exps)
        t_part = PresMonomial.from_sorted(
            tuple([self.variables[k] for k in atoms[:split]]))
        if kind is PresMonomial:
            return t_part
        return MixedMonomial(Monomial(exps), t_part)

    def label(self, atoms: Sequence[int]) -> str:
        """The label str() gives the monomial the atoms encode."""
        return self.decode(atoms).label()


class Digits:
    """Exponent tuples of n variables packed into ints: one fixed-width digit
    per variable, big-endian, so x_1's exponent is the most significant.

    A digit is one byte while degree (the largest digit to hold) is below
    256, and a byte wider at each further power of 256; pack and unpack
    write and read width bytes per digit, at any width. Adding two packed
    tuples adds their exponents while no digit overflows, and packed ints
    compare as their exponent tuples do, so sorting packed contents sorts
    the tuples.
    """

    __slots__ = ("n", "width", "bits")

    def __init__(self, n: int, degree: int):
        width = 1
        while degree >> (8 * width):
            width += 1
        self.n, self.width, self.bits = n, width, 8 * width

    def pack(self, exps: Iterable[int]) -> int:
        width = self.width
        return int.from_bytes(
            b"".join([e.to_bytes(width, "big") for e in exps]), "big")

    def unpack(self, x: int) -> tuple[int, ...]:
        width = self.width
        raw = x.to_bytes(self.n * width, "big")
        return tuple([int.from_bytes(raw[i:i + width], "big")
                      for i in range(0, len(raw), width)])


class _Steps(dict):
    """mask -> the steps of the ranks in it, ascending; a step of rank k is
    (packed generator, ok[k], (k,)), what appending k adds to a node."""

    def __init__(self, steps: Iterable[tuple[int, int, tuple[int]]]):
        super().__init__()
        self.by_rank = tuple(steps)

    def __missing__(self, mask: int) -> tuple:
        by_rank = self.by_rank
        found = []
        rest = mask
        while rest:  # the set bits, lowest first
            low = rest & -rest
            found.append(by_rank[low.bit_length() - 1])
            rest ^= low
        steps = self[mask] = tuple(found)
        return steps


class _Expansion:
    """The one enumerator of this module: presentation monomials grown a
    factor at a time, a whole level (one t-slice) at once, in one of two
    ways that share the steps and blocks tables.

    grow keeps members, with one loop for every caller: a node is (packed
    content, allowed, rank tuple); a point query (enumerate_mixed_fiber)
    filters the children it returns.
    Ranks are positions in presentation_variables(ideals), non-decreasing
    along a tuple; allowed is the bitmask of the ranks that may come next:
    none below the last rank, and none that would complete a forbidden pair
    (i, j) (twice i when i == j). Appending rank k to a node leaves
    allowed & ok[k], and the ranks of ideal i are the bits of blocks[i], so
    a banned rank is never visited. A level in rank-tuple order, each node
    extended in rank order, gives the next level in rank-tuple order too.

    grow_states keeps counts: a level is {state: packed contents}, with the
    content of every node that reaches the state, in no set order. A state
    is allowed, ORed with the x-atom bans of the node's ranks: a forbidden
    pair (k, a) of a rank and an x-atom (a >= size) sets bit a in bans[k].
    Nodes of one state grow alike, so a step extends a whole list at once
    and no rank tuple is built. The steps' ok[k] keeps every banned x-atom
    bit, which a node's allowed never has and a state keeps once set.
    """

    def __init__(
        self,
        ideals: Sequence[StronglyStableIdeal],
        digits: Digits,
        forbidden_pairs: Iterable[tuple[int, int]] = (),
    ):
        variables = presentation_variables(ideals)
        self.size = size = len(variables)
        self.digits = digits
        ok = [(1 << size) - (1 << k) for k in range(size)]
        self.bans: dict[int, int] = {}
        for pair in forbidden_pairs:
            i, j = sorted(pair)
            if j < size:
                ok[i] &= ~(1 << j)
            else:
                self.bans[i] = self.bans.get(i, 0) | 1 << j
        keep = reduce(or_, self.bans.values(), 0)
        self.blocks = []
        start = 0
        for ideal in ideals:
            stop = start + len(ideal.minimal_generators)
            self.blocks.append((1 << stop) - (1 << start))
            start = stop
        self.steps = _Steps(
            (digits.pack(v.generator.exps), ok[k] | keep, (k,))
            for k, v in enumerate(variables)
        )
        self.root = [(0, (1 << size) - 1, ())]
        self.states = {(1 << size) - 1: [0]}

    def grow(self, level: list, i: int) -> list:
        """The level of each node of level times one factor of ideal i
        (0-based) allowed beside it, in rank-tuple order."""
        block = self.blocks[i]
        steps = self.steps
        out: list = []
        append = out.append
        for x, allowed, ranks in level:
            for p, ok, k in steps[allowed & block]:
                append((x + p, allowed & ok, ranks + k))
        return out

    def grow_states(self, level: dict, i: int) -> dict:
        """grow on a level of states: the contents of the nodes of level
        times one factor of ideal i (0-based), by the state they reach."""
        block = self.blocks[i]
        steps = self.steps
        bans = self.bans
        out: dict[int, list[int]] = {}
        for state, xs in level.items():
            for p, ok, (k,) in steps[state & block]:
                s = state & ok
                if bans:
                    s |= bans.get(k, 0)
                ys = [x + p for x in xs]
                have = out.get(s)
                if have is None:
                    out[s] = ys
                else:
                    have += ys
        return out


def _check_lengths(
    mu: MultiDegree, ideals: Sequence[StronglyStableIdeal]
) -> None:
    """Raise ValueError unless mu has one t-entry per ideal and one x-entry
    per ambient variable."""
    if len(mu.t_exps) != len(ideals):
        raise ValueError(f"t-vector length {len(mu.t_exps)} != r={len(ideals)}")
    if len(mu.x_exps) != ideals[0].n:
        raise ValueError(f"x-part length {len(mu.x_exps)} != n={ideals[0].n}")


def enumerate_fiber(
    mu: MultiDegree, ideals: Sequence[StronglyStableIdeal]
) -> list[PresMonomial]:
    """All presentation monomials mapping onto mu under phi, canonically
    sorted: the t-parts of enumerate_mixed_fiber, whose members all have
    x-part 1 when mu's x-part has the t-vector's content degree. A
    wrong-length t-vector or x-part raises ValueError; an x-part of another
    degree has an empty fiber."""
    _check_lengths(mu, ideals)
    if sum(mu.x_exps) != content_degree(ideals, mu.t_exps):
        return []
    return [v.t_part for v in enumerate_mixed_fiber(mu, ideals)]


def enumerate_mixed_fiber(
    mu: MultiDegree, ideals: Sequence[StronglyStableIdeal]
) -> list[MixedMonomial]:
    """All monomials m*u of the full presentation ring with phi(m*u) = mu:
    each monomial u of mu's t-slice whose content divides the x-part, with m
    the rest, u in canonical order. The slice grows factor by factor from
    the empty monomial, pruned against the x-part at every step, and the
    first empty level ends it, however many factors remain. A
    wrong-length t-vector or x-part raises ValueError."""
    _check_lengths(mu, ideals)
    target = tuple(mu.x_exps)
    if min(target, default=0) < 0:
        return []
    n = ideals[0].n
    # a guard bit above each digit: targets and generators stay below it
    digits = Digits(n, 2 * max(sum(target), *(i.degree for i in ideals)))
    expansion = _Expansion(ideals, digits)
    g = digits.pack([1 << (digits.bits - 1)] * n)
    top = digits.pack(target) + g
    level = expansion.root
    for i, count in enumerate(mu.t_exps):
        for _ in range(count):
            # a child's content y is kept when (top - y) & g == g, that is
            # y <= target digitwise
            level = [node for node in expansion.grow(level, i)
                     if (top - node[0]) & g == g]
            if not level:
                return []
    decode = Alphabet.of(ideals).decode
    return [
        MixedMonomial(Monomial(map(sub, target, digits.unpack(x))),
                      decode(ranks, PresMonomial))
        for x, _, ranks in level
    ]


def _budget_expansion(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    forbidden_pairs: Iterable[tuple[int, int]],
    degree: int,
) -> _Expansion:
    """The _Expansion of a t-budget, its digits wide enough for the budget's
    content degree and for degree, the x-degree bound of every walk over
    the budget. A t_budget that check_t_budget refuses or a negative
    degree raises ValueError."""
    check_t_budget(ideals, t_budget)
    if degree < 0:
        raise ValueError(f"x-degree must be >= 0, got {degree}")
    digits = Digits(ideals[0].n, max(content_degree(ideals, t_budget), degree))
    return _Expansion(ideals, digits, forbidden_pairs)


def _level_slices(root, grow, ideals: Sequence[StronglyStableIdeal],
                  t_budget: Sequence[int], x_degree: int | None):
    """(t-vector, level, rest degrees) of every t-slice in the budget that
    a walk up to x_degree reaches (None: the pure walk, every slice),
    t-vectors lexicographically, each level grown by grow(parent level, j)
    from root.

    A slice's parent is its t-vector less one in its last nonzero coordinate
    j, so it grows by one factor of ideal j: every monomial in the box is
    built once, and only the levels a later slice still extends are kept
    (one per last nonzero coordinate, r + 1 at most). Only the box
    _reached_budget clips the budget to is walked, and in it only the
    slices whose rest degrees (_rest_degrees) are not empty: no level is
    grown for a slice with no group. Content degree grows with every
    entry, so the parent of a slice with rest degrees has them too.
    """
    # the latest level of each last nonzero coordinate (-1: the empty slice)
    kept = {-1: root}
    for tv in t_vectors(_reached_budget(ideals, t_budget, x_degree)):
        rests = _rest_degrees(ideals, tv, x_degree)
        if not rests:
            continue
        nonzero = [i for i, a in enumerate(tv) if a]
        if nonzero:
            j = nonzero[-1]
            parent = j if tv[j] > 1 else (nonzero[-2] if len(nonzero) > 1
                                          else -1)
            level = grow(kept[parent], j)
            # levels past j hold an older prefix: no later slice extends them
            for i in range(j + 1, len(tv)):
                kept.pop(i, None)
            kept[j] = level
        else:
            level = root
        yield tv, level, rests


class _RestLists(dict):
    """(e, ban) -> (packed m, x-atoms of m) of every x-monomial m of degree
    e avoiding the x-atoms banned in ban (bit size + i - 1 for x_i), in
    combinations_with_replacement order of the unbanned x-atoms: the rests
    of one walk over a budget, each list built on first use.

    Later slices read the low degrees again, so a list stays while its
    degree is at most kept, the highest degree a finished slice reached,
    which the walk raises as each slice ends. Above kept only the degree in
    use (top) stays: the first list of a new degree there drops the others
    above kept, so a slice whose rest degrees rise without bound holds one
    degree's lists at a time.
    """

    def __init__(self, digits: Digits, size: int):
        super().__init__()
        n = digits.n
        self.units = [digits.pack([int(i == j) for j in range(n)])
                      for i in range(n)]
        self.size, self.kept, self.top = size, -1, -1

    def __missing__(self, key: tuple[int, int]) -> list:
        e, ban = key
        if e > self.kept and e != self.top:
            for old in [k for k in self if k[0] > self.kept]:
                del self[old]
            self.top = e
        units, size = self.units, self.size
        free = [a for a in range(size, size + len(units)) if not ban >> a & 1]
        rests = self[key] = [
            (sum([units[a - size] for a in w]), w)
            for w in itertools.combinations_with_replacement(free, e)]
        return rests


def rank_fibers(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int | None = None,
) -> Iterator[tuple[MultiDegree, list[tuple[int, ...]]]]:
    """fibers_by_multidegree with each monomial as its rank tuple (positions
    in presentation_variables, non-decreasing), building no objects: the
    listed groups of _fiber_groups flattened, each key decoded. The walk
    sets the order, not the group: keys ascend in a pure walk and descend
    in a mixed one (at one x-degree, x-atom tuples ascend as exponent
    tuples descend), so a mixed walk yields the fibers of a slice's group
    of rest degree 0 in the reverse of the pure walk's order.

    With x_degree, the fibers of the full presentation map instead, up to
    that x-degree, each member u*m as its sorted atom tuple: rank k is atom
    k and x_i is atom size + i - 1, with size = len(presentation_variables),
    so a member is u's rank tuple followed by m's x-atoms. They come t-slice
    by t-slice, then by x-degree, then in combinations_with_replacement
    order of the x-atoms; a fiber holds the slice monomials u whose content
    divides its x-part, contents in the order of their first monomial and
    each content's monomials in rank order, with m the rest of the x-part. A
    fiber is keyed by its packed x-part, the packed content plus the packed
    m.
    """
    digits, _, groups = _fiber_groups(ideals, t_budget, x_degree=x_degree)
    for tv, group in groups():
        for key in sorted(group, reverse=x_degree is not None):
            yield MultiDegree(digits.unpack(key), tv), group[key]


def _fiber_groups(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    forbidden_pairs: Iterable[tuple[int, int]] = (),
    x_degree: int | None = None,
) -> tuple[Digits,
           Iterator[tuple[tuple[int, ...], int, int, int]],
           Callable[..., Iterator[tuple[tuple[int, ...],
                                        dict[int, list[tuple[int, ...]]]]]]]:
    """(digits, counts, groups) of the fibers of rank_fibers, one group per
    (t-slice, x-degree) pair, empty groups too: a group's keys are the
    x-parts of its x-degree d, each a content plus a rest of degree e = d
    less the slice's content degree. A slice's groups are one range of
    rest degrees, _rest_degrees: with x_degree every e from 0 up to
    x_degree less the content degree, none when that is negative; without,
    the pure walk, the one group of e = 0, whose rests are all 1. Only the
    slices x_degree reaches are walked (_level_slices): a slice past them
    has no group, and no level is grown for it. Both walk these groups on
    one _Expansion and one _RestLists, which keeps a degree's rests once a
    finished slice has reached it, and neither grows a level until it is
    iterated, so a run can count some groups and list the rest.

    counts yields (t-vector, x-degree, multidegrees, members), the number
    of a group's keys and of their members, listing none: slices grow by
    _Expansion.grow_states, and a key's rests are those its state's bans
    leave. groups(start=0) yields (t-vector, {packed x-part: members}) for
    every group from the start-th on, keys in no set order (digits.unpack
    decodes one), members as in rank_fibers; a group of rest degree 0,
    pure or mixed, is the slice's members by content. start is spent by
    range length: a slice with no more groups than are left to skip is
    passed over whole, and the first slice listed starts inside its range,
    so no list of a slice's degrees is built, however high x_degree. The
    levels before start are grown, since later slices grow from them, but
    no member of a group before start is listed. A t_budget or x_degree
    that _budget_expansion refuses raises ValueError at once.

    forbidden_pairs are pairs of atoms, each in either order. A pair of
    ranks (i, j) bans the two factors together: no member holds both (a
    factor twice when i == j). A pair (k, size + i - 1) of a rank and an
    x-atom bans x_i beside that factor: no member holds x_i in its rest
    with a factor of rank k. Banned members are left out of their group,
    and a key left with no member is neither listed nor counted. With the
    lead pairs of a quadratic marking the members are exactly its standard
    monomials.
    """
    expansion = _budget_expansion(ideals, t_budget, forbidden_pairs,
                                  x_degree or 0)
    digits, x_bans = expansion.digits, expansion.bans
    high = ((1 << digits.n) - 1) << expansion.size  # the x-atom bits
    rest_lists = _RestLists(digits, expansion.size)

    def counts():
        for tv, level, rests in _level_slices(
                expansion.states, expansion.grow_states, ideals, t_budget,
                x_degree):
            for e in rests:
                keys: set[int] = set()
                members = 0
                for state, xs in level.items():
                    for pw, _ in rest_lists[e, state & high]:
                        keys.update([x + pw for x in xs] if pw else xs)
                        members += len(xs)
                yield tv, content_degree(ideals, tv) + e, len(keys), members
            rest_lists.kept = max(rest_lists.kept, rests[-1])

    def groups(start=0):
        skip = start  # groups left to pass over, no member dict built
        for tv, level, rests in _level_slices(
                expansion.root, expansion.grow, ideals, t_budget, x_degree):
            # the slice is passed over whole when it holds skip groups or
            # fewer; a range is sliced and tested with no len(), which a
            # bound past sys.maxsize would overflow
            if not rests[skip:]:
                skip -= len(rests)
                continue
            rests, skip = rests[skip:], 0
            by_content: dict[int, list[tuple[int, ...]]] = {}
            for x, _, ranks in level:
                group = by_content.get(x)
                if group is None:
                    by_content[x] = [ranks]
                else:
                    group.append(ranks)
            for e in rests:
                if not e:
                    # the empty rest avoids every ban: the contents' members
                    yield tv, by_content
                    continue
                mixed: dict[int, list[tuple[int, ...]]] = {}
                # a content and a rest make one fiber, so members still
                # come by content, then in rank order
                for x, us in by_content.items():
                    for u in us:
                        ban = reduce(or_, [x_bans.get(k, 0) for k in u], 0)
                        for pw, w in rest_lists[e, ban]:
                            mixed.setdefault(x + pw, []).append(u + w)
                yield tv, mixed
            rest_lists.kept = max(rest_lists.kept, rests[-1])

    return digits, counts(), groups


def fibers_by_multidegree(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
) -> Iterator[tuple[MultiDegree, list[PresMonomial]]]:
    """Group every presentation monomial with t <= budget by its multidegree.

    Yields (multidegree, fiber) pairs in a deterministic order: t-vectors
    lexicographically, x-exponents ascending within each t-slice, each fiber
    canonically sorted. Each fiber is the one enumerate_fiber lists for its
    multidegree, built from the rank tuples of rank_fibers: the object-level
    listing, which toric_kernel_span pairs up, while the verifier, the
    kernel oracle and the obstruction scan read the rank tuples of
    _fiber_groups.
    """
    decode = Alphabet.of(ideals).decode
    for mu, group in rank_fibers(ideals, t_budget):
        yield mu, [decode(ranks, PresMonomial) for ranks in group]
