"""Presentation-variable term orders and the marked binomial collections.

Three variable orders drive everything: plain rlex on one ideal's generators,
the mixed order that lifts the whole B_N region above B_M, and the two-ideal
head-and-tail order (first ideal block by rlex above second ideal block by
mrlex). Each induces a revlex order on presentation monomials; the G1/G2/G3
collections are the coincident-product quadratic binomials marked by the
matching induced order, and the syzygy set supplies the linear-in-T relations
of the full presentation.

Building a collection and checking a marking both run on ints: a variable
is named by its atom, its position in a list of variables, an order by
the rank of each atom (read off PresOrder.rank once per variable), and an
atom's image (x^u*t_k for a variable T_u of ideal k, x_i for an x-atom)
by one packed int (_packed_images), so a quadric's image is a sum of two
ints; of two quadrics the larger has the smaller pair of ranks sorted
descending. Each rule is read once. The builders list the variables as
ideal_variables does, in PresVar.key order, so the factor pairs they
enumerate, each once, are canonical, and a variable's position is its
atom in the presentation.Alphabet of those variables (for a collection's
ideals, Alphabet.of's atoms). So every builder, the fiber-type ones
included, writes each rule as a reduction.RankRules row (lead atoms,
trail atoms, source) and builds no object: the kernel oracle reads the
rows as they are, and a caller that reads the rules gets them decoded
once, with one monomial per atom tuple however many rules share it.
Each table carries the order its builder marked it by (RankRules.order),
and unoriented_rule checks the rows against that one order: a list that
carries none has no order, and is never searched for one.
The paper's sink inequalities for these orders, and the induced revlex
comparator on presentation monomials, are test references
(tests/reference.py): no command runs them.

Every order and rule set takes its variables from
presentation.ideal_variables and its region split from borel.order_view,
so a collection builds each PresVar and each view once, and the dicts
keyed by variables (PresOrder.rank, rule_indices, Alphabet.index) hit on
identity.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .borel import StronglyStableIdeal, TwoQuadricView
from .monomial import all_one_step_reductions
from .presentation import (
    Alphabet,
    Digits,
    MixedMonomial,
    PresMonomial,
    PresVar,
    ideal_variables,
)
from .records import Frozen
from .reduction import MarkedBinomial, RankRules, rank_rules


class PresOrder(Frozen):
    """A total order on a finite set of presentation variables.

    kind is one of "rlex", "mrlex", "ht". ranked lists the variables in
    descending order, and rank maps each to its position there; the order
    induces revlex on presentation monomials over that ranking (degree
    first, the smallest differing variable decides), which the builders
    and unoriented_rule compare on rank pairs. Immutable; equal and hashed
    as (kind, ranked).
    """

    _fields = ("kind", "ranked")

    @classmethod
    def rlex(cls, ideal: StronglyStableIdeal, ideal_index: int = 1) -> "PresOrder":
        return cls("rlex", ideal_variables(ideal, ideal_index))

    @classmethod
    def mrlex(cls, view: TwoQuadricView, ideal_index: int = 1) -> "PresOrder":
        """Mixed order: B_N block above B_M block, rlex inside each block."""
        return cls("mrlex", tuple(_mrlex_chain(view, ideal_index)))

    @classmethod
    def head_and_tail(
        cls, view1: TwoQuadricView, view2: TwoQuadricView
    ) -> "PresOrder":
        return cls("ht", ideal_variables(view1.ideal, 1)
                   + tuple(_mrlex_chain(view2, 2)))

    @cached_property
    def rank(self) -> dict[PresVar, int]:
        return {v: i for i, v in enumerate(self.ranked)}


def _mrlex_chain(view: TwoQuadricView, ideal_index: int) -> list[PresVar]:
    """The ideal's variables, the B_N block above the B_M block and each
    block rlex-descending as ideal_variables lists them."""
    chain = ideal_variables(view.ideal, ideal_index)
    top = [v for v in chain if view.in_B_N(v.generator)]
    bottom = [v for v in chain if not view.in_B_N(v.generator)]
    return top + bottom


def _packed_images(variables: Sequence[PresVar], n: int) -> list[int]:
    """The image of each atom of the alphabet of these variables and n
    x's, packed into one int with room for the sum of two: x^u*t_k for each
    variable T_u of ideal k, then x_i for each i. A quadric's image is the
    sum of its atoms' ints, equal sums are equal images, and sums of one
    t-part sort as their x-parts do."""
    r = max(v.ideal_index for v in variables)
    digits = Digits(n, 2 * max(v.generator.degree for v in variables))
    t = digits.bits
    return ([(digits.pack(v.generator.exps) << t * r)
             | (1 << t * (r - v.ideal_index)) for v in variables]
            + [1 << t * (r + n - i) for i in range(1, n + 1)])


def unoriented_rule(table: RankRules) -> int | None:
    """The position of the first row of a table that its order does not
    orient, or None when it orients them all.

    A row's two sides must have one image (_packed_images), and it must be
    a quadric (four variable atoms) or a syzygy x_i*T_u -> x_j*T_u' (each
    side one variable atom and one x-atom, i < j). The order orients a
    quadric when the lead's two ranks, sorted descending, form the smaller
    pair, and no quadric on a variable it does not rank. A table holding a
    syzygy is marked by the block order that compares x-parts first, with
    x_1 > ... > x_n, which orients every syzygy and leaves the quadrics to
    the table's order.
    """
    alphabet = table.alphabet
    variables = alphabet.variables
    size = len(variables)
    images = _packed_images(variables, alphabet.n)
    ranked = table.order.rank
    rank = [ranked.get(v, -1) for v in variables]
    for pos, ((a, b), (c, d), _) in enumerate(table.rows):
        if images[a] + images[b] != images[c] + images[d]:
            return pos
        if b >= size or d >= size:
            # a syzygy: a variable atom and an x-atom each side, and the
            # lead's x-atom is the smaller
            if not (a < size <= b and c < size <= d and b < d):
                return pos
            continue
        r, s, u, w = rank[a], rank[b], rank[c], rank[d]
        if (r | s | u | w) < 0 or (((r, s) if r > s else (s, r))
                                   >= ((u, w) if u > w else (w, u))):
            return pos
    return None


def _coincident_product_rows(
    rank: Sequence[int],
    images: Sequence[int],
    pairs: Iterable[tuple[int, int]],
    source: str,
) -> list[tuple[tuple[int, int], tuple[int, int], str]]:
    """Quadratic binomials among the given factor pairs, marked by an order,
    as RankRules rows (lead atoms, trail atoms, source).

    A presentation variable is named by its position in a list of them in
    PresVar.key order, which is its atom in the alphabet of that list:
    rank and images give each one's order rank and packed image
    (_packed_images), and pairs lists the candidate factor pairs (a, b),
    each once and with a <= b, so each is the atom tuple of its quadric and
    pairs sort as leads do. Within one ideal they are its positions
    i <= j, across two ideals every (first, second) pair.

    The pairs are grouped by the sum of their images, the product of their
    generators, and one row is written per unordered pair of distinct
    factorizations of one product, the lead being the larger quadric: the
    one whose two ranks, sorted descending, form the smaller pair.
    Distinct factorizations of one product never share a variable, so lead
    and trail always differ. Rows come by product, ascending, then sorted
    (stably) by lead. No object is built.
    """
    by_product: dict[int, list[tuple[int, int]]] = {}
    for pair in pairs:
        by_product.setdefault(images[pair[0]] + images[pair[1]],
                              []).append(pair)
    rows = []
    for product in sorted(by_product):
        group = by_product[product]
        if len(group) < 2:
            continue
        quadrics = []
        for pair in group:
            r, s = rank[pair[0]], rank[pair[1]]
            quadrics.append(((r, s) if r > s else (s, r), pair))
        for A, B in itertools.combinations(quadrics, 2):
            rows.append((A[1], B[1], source) if A[0] < B[0]
                        else (B[1], A[1], source))
    rows.sort(key=itemgetter(0))
    return rows


_QUADRICS = frozenset([PresMonomial])
_MIXED = frozenset([MixedMonomial])


def _table(variables: Sequence[PresVar], n: int, rows,
           order: PresOrder) -> RankRules:
    """The quadric builder's rows on the alphabet of its variables, which
    are listed in PresVar.key order, so each position is its atom, with
    the order they were marked by."""
    return RankRules(Alphabet(variables, n), rows, _QUADRICS, order=order)


def build_G1(ideal: StronglyStableIdeal, ideal_index: int = 1) -> RankRules:
    """All coincident-product quadratic binomials of one ideal, rlex-marked,
    as a RankRules on the alphabet of the ideal's variables."""
    order = PresOrder.rlex(ideal, ideal_index)
    variables = order.ranked
    positions = range(len(variables))  # rlex ranks them as listed
    return _table(variables, ideal.n, _coincident_product_rows(
        positions, _packed_images(variables, ideal.n),
        itertools.combinations_with_replacement(positions, 2), "G1"), order)


def build_G2(view: TwoQuadricView, ideal_index: int = 1) -> RankRules:
    """As build_G1 but marked by the mixed order of the given region
    split."""
    variables = ideal_variables(view.ideal, ideal_index)
    order = PresOrder.mrlex(view, ideal_index)
    return _table(variables, view.ideal.n, _coincident_product_rows(
        [order.rank[v] for v in variables],
        _packed_images(variables, view.ideal.n),
        itertools.combinations_with_replacement(range(len(variables)), 2),
        "G2"), order)


def _head_and_tail_positions(view1: TwoQuadricView, view2: TwoQuadricView):
    """(variables, ht order, its ranks, packed images, first ideal's
    positions, second ideal's positions) of a pair: restricted to one
    ideal, the ht ranks order it as rlex (the first) or the mixed order
    (the second) does."""
    first = ideal_variables(view1.ideal, 1)
    variables = first + ideal_variables(view2.ideal, 2)
    order = PresOrder.head_and_tail(view1, view2)
    return (variables, order, [order.rank[v] for v in variables],
            _packed_images(variables, view1.ideal.n),
            range(len(first)), range(len(first), len(variables)))


def build_G3(view1: TwoQuadricView, view2: TwoQuadricView) -> RankRules:
    """Cross binomials T_u Z_v - T_u' Z_v', marked by the larger mixed-order
    second-ideal part (equivalently, head-and-tail initial terms), on the
    alphabet of the pair."""
    variables, order, rank, images, first, second = _head_and_tail_positions(
        view1, view2)
    return _table(variables, view1.ideal.n, _coincident_product_rows(
        rank, images, itertools.product(first, second), "G3"), order)


def build_head_and_tail_basis(view1: TwoQuadricView,
                              view2: TwoQuadricView) -> RankRules:
    """G = G1 u G2 u G3 for a pair of two-quadric-generator ideals, the
    three written on one position table of the pair, on its alphabet."""
    variables, order, rank, images, first, second = _head_and_tail_positions(
        view1, view2)
    within = itertools.combinations_with_replacement
    return _table(
        variables, view1.ideal.n,
        _coincident_product_rows(rank, images, within(first, 2), "G1")
        + _coincident_product_rows(rank, images, within(second, 2), "G2")
        + _coincident_product_rows(
            rank, images, itertools.product(first, second), "G3"), order)


def build_syzygy_set(ideals: Sequence[StronglyStableIdeal]) -> RankRules:
    """Linear syzygy binomials x_i T_{l,k} - x_j T_{l,k'} with i < j, as a
    RankRules of MixedMonomial leads on Alphabet.of(ideals).

    One per (generator, variable swap) with both sides minimal generators;
    these are exactly the one-step reduction moves between generators of one
    ideal, lifted to the presentation ring. Each is the row ((atom of T_u,
    atom of x_i), (atom of T_u', atom of x_j), "SYZ"), and the rows are
    sorted (stably) by the lead's variable atom, then its x-atom
    descending. The table carries no order: its syzygies orient under the
    block order whatever order the quadrics beside them are marked by.
    """
    alphabet = Alphabet.of(ideals)
    x = len(alphabet.variables) - 1  # x_i is atom x + i
    rows = []
    for l, ideal in enumerate(ideals, start=1):
        atom_of = {g: alphabet.index[v] for g, v in zip(
            ideal.minimal_generators, ideal_variables(ideal, l))}
        for u in ideal.minimal_generators:
            # swapped = u * x_i / x_j, each j in u's support and each i < j
            for swapped, j, i in all_one_step_reductions(u):
                if swapped in atom_of:
                    rows.append(((atom_of[u], x + i), (atom_of[swapped], x + j),
                                 "SYZ"))
    rows.sort(key=lambda row: (row[0][0], -row[0][1]))
    return RankRules(alphabet, rows, _MIXED)


def build_fiber_type_basis(
    ideals: Sequence[StronglyStableIdeal],
    fiber_gb: Sequence[MarkedBinomial],
) -> RankRules:
    """Syzygies plus the fiber basis lifted to mixed monomials (x-part 1),
    as one RankRules of MixedMonomial leads on Alphabet.of(ideals): the
    syzygy rows, then the rows of rank_rules(fiber_gb, that alphabet),
    which for a builder's table are its own rows, an x-part 1 adding no
    atom. The table carries the fiber basis's order (None for a list with
    none); its mixed kind says x-parts compare first. A fiber basis
    rank_rules refuses raises ValueError."""
    syzygies = build_syzygy_set(ideals)
    alphabet = syzygies.alphabet
    fiber = rank_rules(fiber_gb, alphabet)
    return RankRules(alphabet, syzygies.rows + fiber.rows, _MIXED,
                     order=fiber.order)


def dump_basis(rules: Sequence[MarkedBinomial], r: int | None = None) -> str:
    """JSON-lines dump: one {"lead", "trail", "source"} object per rule."""
    lines = [
        json.dumps(
            {"lead": g.lead.label(r), "trail": g.trail.label(r),
             "source": g.source or "ADHOC"},
            sort_keys=True,
        )
        for g in rules
    ]
    return "\n".join(lines) + ("\n" if lines else "")
