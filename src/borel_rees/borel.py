"""Strongly stable ideals from Borel generators and the two-quadric region split.

borel_closure runs on exponent tuples: it keeps only the minimal Borel
generators (no repeat, none inside another's closure), closes them under
the moves x_i -> x_(i-1), and builds one Monomial per minimal generator.
Each ideal keeps what is derived from it once per ideal object: its region
view (order_view) and, for presentation.ideal_variables, its presentation
variables. A failing region split is not kept, so it raises on every call.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .monomial import (
    DimensionMismatch,
    Monomial,
    parse_monomial,
    rlex_sort_key,
    strongly_stable_precedes,
)
from .records import Frozen


class InvalidIdeal(ValueError):
    pass


class StronglyStableIdeal(Frozen):
    """A strongly stable ideal generated in a single degree.

    borel_generators are minimal: none repeats and none lies in the Borel
    closure of another. minimal_generators is the full set of degree-d
    monomials in the ideal (equigenerated ideals have no divisibility among
    generators), closed under one-step reductions and stored rlex-descending
    whatever order they are given in, which the rule builders rely on.
    Immutable; equal and hashed as its four fields.
    """

    _fields = ("n", "degree", "borel_generators", "minimal_generators")

    def __init__(
        self,
        n: int,
        degree: int,
        borel_generators: tuple[Monomial, ...],
        minimal_generators: tuple[Monomial, ...],
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "borel_generators", borel_generators)
        object.__setattr__(self, "minimal_generators",
                           tuple(sorted(minimal_generators, key=rlex_sort_key)))

    @property
    def num_borel_generators(self) -> int:
        return len(self.borel_generators)

    @cached_property
    def _order_view(self) -> "TwoQuadricView":
        # a raising call stores nothing, so the next call raises again
        if self.num_borel_generators == 1:
            return principal_view(self)
        return region_partition(self)

    @cached_property
    def _presentation_variables(self) -> dict:
        # ideal index -> its PresVars, filled by presentation.ideal_variables
        return {}


def _minimal_borel_generators(
    gens: Sequence[Monomial],
) -> tuple[Monomial, ...]:
    """gens, all of one degree, without repeats and without any generator in
    the Borel closure of another one; otherwise in the given order."""
    unique = tuple(dict.fromkeys(gens))
    return tuple(
        g for g in unique
        if not any(h is not g and strongly_stable_precedes(g, h)
                   for h in unique)
    )


def _closure_exponents(gens: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every exponent tuple reached from gens by one-step reductions.

    A move x_i -> x_j with j < i is the chain of moves x_k -> x_(k-1) for
    k = i..j+1, each of which stays in the closure, so the adjacent moves
    reach the whole closure.
    """
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        e = frontier.pop()
        for i in range(1, len(e)):
            if e[i]:
                f = list(e)
                f[i] -= 1
                f[i - 1] += 1
                f = tuple(f)
                if f not in seen:
                    seen.add(f)
                    frontier.append(f)
    return seen


def borel_closure(gens: Sequence[Monomial], n: int) -> StronglyStableIdeal:
    """Smallest strongly stable ideal containing gens (all of one degree).

    The minimal Borel generators are closed under one-step reductions on
    exponent tuples; one Monomial is built per minimal generator.
    """
    gens = tuple(gens)
    if not gens:
        raise InvalidIdeal("empty Borel generator list")
    if any(g.n != n for g in gens):
        raise InvalidIdeal(f"generator ambient dimension differs from n={n}")
    degree = gens[0].degree
    if degree == 0:
        raise InvalidIdeal("Borel generators must have positive degree")
    if any(g.degree != degree for g in gens):
        raise InvalidIdeal(
            f"mixed generator degrees {sorted({g.degree for g in gens})}"
        )
    borel = _minimal_borel_generators(gens)
    return StronglyStableIdeal(
        n=n, degree=degree, borel_generators=borel,
        minimal_generators=tuple(map(Monomial, _closure_exponents(
            g.exps for g in borel))),
    )


class TwoQuadricView(Frozen):
    """Region data for I = B(M, N) with quadrics M = x_a*x_b, N = x_c*x_d.

    B_M lists the minimal generators of B(M); B_N those of B(M,N) outside
    B(M). Principal ideals degenerate to N = None with B_N empty, which is
    what the mixed order needs to coincide with plain rlex there. Immutable;
    equal and hashed as its nine fields.
    """

    _fields = ("ideal", "M", "N", "a", "b", "c", "d", "B_M", "B_N")

    def in_B_N(self, m: Monomial) -> bool:
        return m in self._bn_set

    @cached_property
    def _bn_set(self) -> frozenset:
        return frozenset(self.B_N)


def _quadric_indices(m: Monomial) -> tuple[int, int]:
    sup = m.variables_with_multiplicity()
    if len(sup) != 2:
        raise InvalidIdeal(f"{m} is not a quadric")
    return sup[0], sup[1]


def region_partition(ideal: StronglyStableIdeal) -> TwoQuadricView:
    """Split the minimal generators of a two-quadric-generator ideal.

    Requires exactly two Borel generators x_a*x_b and x_c*x_d in the
    incomparable shape c < a <= b < d (which generator is which is detected,
    not taken from input order).
    """
    if ideal.num_borel_generators != 2:
        raise InvalidIdeal(
            f"region partition needs exactly 2 Borel generators, "
            f"got {ideal.num_borel_generators}"
        )
    if ideal.degree != 2:
        raise InvalidIdeal(f"region partition needs quadrics, degree={ideal.degree}")
    g1, g2 = ideal.borel_generators
    p = _quadric_indices(g1)
    q = _quadric_indices(g2)
    # N is the generator reaching the later variable; shape: c < a <= b < d
    if q[1] > p[1]:
        (a, b), (c, d), M, N = p, q, g1, g2
    else:
        (a, b), (c, d), M, N = q, p, g2, g1
    if not (c < a <= b < d):
        raise InvalidIdeal(
            f"Borel generators {g1}, {g2} are not in the shape c < a <= b < d"
        )
    in_m = [strongly_stable_precedes(g, M) for g in ideal.minimal_generators]
    B_M = tuple(g for g, inside in zip(ideal.minimal_generators, in_m) if inside)
    B_N = tuple(g for g, inside in zip(ideal.minimal_generators, in_m)
                if not inside)
    return TwoQuadricView(
        ideal=ideal, M=M, N=N, a=a, b=b, c=c, d=d, B_M=B_M, B_N=B_N
    )


def principal_view(ideal: StronglyStableIdeal) -> TwoQuadricView:
    """Degenerate view for a principal ideal: everything is in the M region."""
    if ideal.num_borel_generators != 1:
        raise InvalidIdeal("principal view needs exactly one Borel generator")
    (g,) = ideal.borel_generators
    sup = g.support()
    return TwoQuadricView(
        ideal=ideal,
        M=g,
        N=None,
        a=sup[0],
        b=sup[-1],
        c=0,
        d=0,
        B_M=ideal.minimal_generators,
        B_N=(),
    )


def order_view(ideal: StronglyStableIdeal) -> TwoQuadricView:
    """View suitable for the region-aware orders: principal or two-quadric.

    Built once per ideal and kept on it; an ideal without a region split
    raises InvalidIdeal on every call."""
    return ideal._order_view


def validate_collection(
    ideals: Iterable[StronglyStableIdeal],
) -> tuple[StronglyStableIdeal, ...]:
    """Check the ideals share one ambient ring and order them by degree.

    Each ideal is generated in a single degree already: borel_closure, the
    only constructor, rejects mixed generator degrees. The reorder is a
    stable sort, so equal-degree collections keep their given order.
    """
    out = list(ideals)
    if not out:
        raise InvalidIdeal("empty ideal collection")
    if len({i.n for i in out}) != 1:
        raise InvalidIdeal("ideals live in different ambient rings")
    return tuple(sorted(out, key=lambda i: i.degree))


def load_collection(spec: dict) -> tuple[StronglyStableIdeal, ...]:
    """Build a validated collection from the JSON ideal spec.

    Expected shape:
        {"n": 6, "ideals": [{"borel_generators": ["x4*x5", "x2*x6"]}, ...]}

    A generator is monomial text (parse_monomial) or a list of n int
    exponents; a list of another length raises DimensionMismatch. Any other
    shape raises InvalidIdeal naming the offending field.
    """
    if not isinstance(spec, dict):
        raise InvalidIdeal("ideal spec must be a JSON object")
    for key in ("n", "ideals"):
        if key not in spec:
            raise InvalidIdeal(f"ideal spec missing field {key!r}")
    n = spec["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidIdeal(f"field 'n' must be a positive integer, got {n!r}")
    raw_ideals = spec["ideals"]
    if not isinstance(raw_ideals, list):
        raise InvalidIdeal("field 'ideals' must be a list")
    ideals = []
    for k, entry in enumerate(raw_ideals):
        if not isinstance(entry, dict):
            raise InvalidIdeal(f"field 'ideals[{k}]' must be an object")
        field = f"ideals[{k}].borel_generators"
        if "borel_generators" not in entry:
            raise InvalidIdeal(f"ideal spec missing field {field!r}")
        raw_gens = entry["borel_generators"]
        if not isinstance(raw_gens, list):
            raise InvalidIdeal(f"field {field!r} must be a list")
        gens = []
        for g in raw_gens:
            if isinstance(g, str):
                gens.append(parse_monomial(g, n))
            elif isinstance(g, list) and all(
                    isinstance(e, int) and not isinstance(e, bool) for e in g):
                if len(g) != n:
                    raise DimensionMismatch(
                        f"exponent vector length {len(g)} != n={n}")
                gens.append(Monomial(g))
            else:
                raise InvalidIdeal(
                    f"field {field!r}: {g!r} is neither monomial text nor "
                    "an exponent list"
                )
        ideals.append(borel_closure(gens, n))
    return validate_collection(ideals)


def collection_spec(ideals: Sequence[StronglyStableIdeal]) -> dict:
    """Inverse of load_collection, for report headers."""
    return {
        "n": ideals[0].n,
        "ideals": [
            {"borel_generators": [str(g) for g in ideal.borel_generators]}
            for ideal in ideals
        ],
    }
