"""Presentation-variable term orders and the marked binomial collections.

Three variable orders drive everything: plain rlex on one ideal's generators,
the mixed order that lifts the whole B_N region above B_M, and the two-ideal
head-and-tail order (first ideal block by rlex above second ideal block by
mrlex). Each induces a revlex order on presentation monomials; the G1/G2/G3
collections are the coincident-product quadratic binomials marked by the
matching induced order, and the syzygy set supplies the linear-in-T relations
of the full presentation.

Building a collection and checking a marking both run on ints: variables
become ids in PresVar.key order, an order becomes the rank of each id
(_order_ranks), a generator's exponents are one packed int (so a quadric's
image is a sum of two ints), and of two quadrics the larger has the smaller
pair of ranks sorted descending. Only the output rules are built as
objects, one PresMonomial per quadric however many rules share it.

Every order and rule set takes its variables from
presentation.ideal_variables and its region split from borel.order_view,
so a collection builds each PresVar and each view once, and the dicts
keyed by variables (order ranks, rule_indices, rank_rules) hit on
identity.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from operator import add, itemgetter
from typing import Sequence

from .borel import InvalidIdeal, StronglyStableIdeal, TwoQuadricView, order_view
from .monomial import Monomial, rlex_sort_key
from .presentation import (
    Digits,
    MixedMonomial,
    PresMonomial,
    PresVar,
    ideal_variables,
)
from .records import Frozen
from .reduction import (
    MarkedBinomial,
    lift_to_mixed,
    _set_lead,
    _set_source,
    _set_trail,
)

_new = object.__new__


class OrderDomainError(KeyError):
    """A presentation variable fell outside the order's declared context."""


class PresOrder(Frozen):
    """A total order on a finite set of presentation variables.

    kind is one of "rlex", "mrlex", "ht". ranked lists the variables in
    descending order; comparisons of presentation monomials are revlex over
    that ranking (degree first, the smallest differing variable decides).
    Immutable; equal and hashed as (kind, ranked).
    """

    _fields = ("kind", "ranked")

    def __init__(self, kind: str, ranked: tuple[PresVar, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ranked", ranked)

    @classmethod
    def rlex(cls, ideal: StronglyStableIdeal, ideal_index: int = 1) -> "PresOrder":
        return cls("rlex", tuple(_rlex_chain(ideal, ideal_index)))

    @classmethod
    def mrlex(cls, view: TwoQuadricView, ideal_index: int = 1) -> "PresOrder":
        """Mixed order: B_N block above B_M block, rlex inside each block."""
        return cls("mrlex", tuple(_mrlex_chain(view, ideal_index)))

    @classmethod
    def head_and_tail(
        cls, view1: TwoQuadricView, view2: TwoQuadricView
    ) -> "PresOrder":
        return cls("ht", tuple(_rlex_chain(view1.ideal, 1)
                               + _mrlex_chain(view2, 2)))

    @cached_property
    def rank(self) -> dict[PresVar, int]:
        return {v: i for i, v in enumerate(self.ranked)}

    def var_rank(self, p: PresVar) -> int:
        try:
            return self.rank[p]
        except KeyError:
            raise self._outside(p)

    def _outside(self, p: PresVar) -> OrderDomainError:
        return OrderDomainError(f"{p} outside the {self.kind} order's context")

    def compare_presvars(self, p: PresVar, q: PresVar) -> int:
        """1 if p > q, -1 if p < q, 0 if equal (lower rank is larger)."""
        rp, rq = self.var_rank(p), self.var_rank(q)
        if rp == rq:
            return 0
        return 1 if rp < rq else -1

    def compare_presmonomials(self, A: PresMonomial, B: PresMonomial) -> int:
        """Induced (graded) revlex: 1 if A > B, -1 if A < B, 0 if equal.

        Degrees compare first. For equal degrees the smallest variable whose
        exponents differ decides, and the side with fewer of it is larger:
        that is, A > B exactly when A's factor ranks, sorted descending, are
        the lexicographically smaller list.
        """
        if A.degree != B.degree:
            return 1 if A.degree > B.degree else -1
        ra = self._descending_ranks(A)
        rb = self._descending_ranks(B)
        if ra == rb:
            return 0
        return 1 if ra < rb else -1

    def _descending_ranks(self, A: PresMonomial) -> list[int]:
        try:
            return sorted(map(self.rank.__getitem__, A.factors), reverse=True)
        except KeyError as exc:
            raise self._outside(exc.args[0]) from None


def _rlex_chain(ideal: StronglyStableIdeal, ideal_index: int) -> list[PresVar]:
    """The ideal's variables, their generators rlex-descending."""
    return sorted(ideal_variables(ideal, ideal_index), key=PresVar.sort_key)


def _mrlex_chain(view: TwoQuadricView, ideal_index: int) -> list[PresVar]:
    """The ideal's variables, the B_N block above the B_M block and each
    block rlex-descending."""
    chain = _rlex_chain(view.ideal, ideal_index)
    top = [v for v in chain if view.in_B_N(v.generator)]
    bottom = [v for v in chain if not view.in_B_N(v.generator)]
    return top + bottom


def _packed_exponents(variables: Sequence[PresVar]) -> list[int]:
    """Each variable's generator exponents packed into one int, with room
    for the sum of two: equal sums are equal products, and sums sort as
    their exponent tuples do."""
    if not variables:
        return []
    digits = Digits(len(variables[0].generator.exps),
                    2 * max(v.generator.degree for v in variables))
    return [digits.pack(v.generator.exps) for v in variables]


def marking_order(
    rules: Sequence[MarkedBinomial], ideals: Sequence[StronglyStableIdeal]
) -> PresOrder | None:
    """A library term order under which the marking rewrites like a GB, or None.

    The candidates are the orders the constructions above mark by: rlex and
    (when the region split exists) mrlex for one ideal, head-and-tail for a
    pair. The first candidate is returned under which every quadric has
    lead > trail and phi(lead) = phi(trail). Rewriting then strictly descends
    a term order inside each fiber, so every fiber graph is acyclic and its
    sinks are the fiber's standard monomials.

    A quadric is a rule with a quadratic PresMonomial lead, or a mixed one
    with x-part 1 on both sides, checked on its t-parts. A mixed list may
    also hold syzygies (_is_syzygy); the candidate then stands for the block
    order that compares x-parts first, with x_1 > ... > x_n, which orients
    every syzygy and leaves the quadrics to the candidate. Any other rule
    means None.

    The checks run on ints. Each quadric is read once as four variable ids
    (lead factors, then trail factors, in canonical order). The image test
    does not depend on the order: the same ideal index per factor and the
    same sum of packed generator exponents. Each candidate is mapped onto
    ranks once (_order_ranks), and a rule is oriented when its lead's two
    ranks, sorted descending, form the smaller tuple. A variable outside a
    candidate's context, a syzygy's included, means that candidate orients
    nothing.
    """
    candidates = []
    try:
        if len(ideals) == 1:
            candidates.append(PresOrder.rlex(ideals[0]))
            candidates.append(PresOrder.mrlex(order_view(ideals[0])))
        elif len(ideals) == 2:
            candidates.append(
                PresOrder.head_and_tail(order_view(ideals[0]), order_view(ideals[1]))
            )
    except InvalidIdeal:
        pass  # no region split: keep the candidates built so far

    ids: dict[PresVar, int] = {}
    quads = []
    for g in rules:
        lead, trail = g.lead, g.trail
        if isinstance(lead, MixedMonomial):
            if _is_syzygy(lead, trail):
                # no quadric, but its factors too must lie in the context
                for v in lead.t_part.factors + trail.t_part.factors:
                    ids.setdefault(v, len(ids))
                continue
            if lead.x_part.degree or trail.x_part.degree:
                return None
            lead, trail = lead.t_part, trail.t_part
        if not (isinstance(lead, PresMonomial) and lead.degree == 2):
            return None
        quads.append(tuple([ids.setdefault(v, len(ids))
                            for v in lead.factors + trail.factors]))
    variables = list(ids)
    ideal_of = [v.ideal_index for v in variables]
    exps = _packed_exponents(variables)
    for a, b, c, d in quads:
        if not (ideal_of[a] == ideal_of[c] and ideal_of[b] == ideal_of[d]
                and exps[a] + exps[b] == exps[c] + exps[d]):
            return None
    for order in candidates:
        try:
            rank = _order_ranks(order, variables)
        except OrderDomainError:
            continue
        if all(_descending(rank[a], rank[b]) < _descending(rank[c], rank[d])
               for a, b, c, d in quads):
            return order
    return None


def _is_syzygy(lead: MixedMonomial, trail: MixedMonomial) -> bool:
    """Whether lead -> trail is x_i*T_u -> x_j*T_u' with T_u and T_u' of one
    ideal, i < j, and x_i*u = x_j*u' on exponent tuples."""
    xs, ys = lead.x_part.exps, trail.x_part.exps
    if not (sum(xs) == sum(ys) == 1
            and lead.t_part.degree == trail.t_part.degree == 1):
        return False
    (u,), (w,) = lead.t_part.factors, trail.t_part.factors
    return (xs.index(1) < ys.index(1) and u.ideal_index == w.ideal_index
            and list(map(add, xs, u.generator.exps))
            == list(map(add, ys, w.generator.exps)))


def _order_ranks(order: PresOrder, variables: Sequence[PresVar]) -> list[int]:
    """The order rank of each variable, in the given sequence (lower rank
    is larger); a variable outside the order raises OrderDomainError."""
    rank = order.rank
    try:
        return [rank[v] for v in variables]
    except KeyError as exc:
        raise order._outside(exc.args[0]) from None


def _descending(r: int, s: int) -> tuple[int, int]:
    """Two ranks sorted descending: of two quadrics, the one with the
    smaller such tuple is larger under the induced revlex order."""
    return (r, s) if r >= s else (s, r)


def _coincident_product_binomials(
    left: Sequence[PresVar],
    right: Sequence[PresVar],
    order: PresOrder,
    source: str,
    cross_only: bool,
) -> list[MarkedBinomial]:
    """Quadratic binomials among products of one left and one right variable.

    Groups unordered variable pairs by the product of their generators and
    emits one marked binomial per unordered pair of distinct factorizations,
    the lead being the larger monomial under the induced order. Distinct
    factorizations of one product never share a variable, so lead and trail
    are automatically different. Binomials come by product, ascending, then
    sorted (stably) by lead.

    Everything up to the output runs on ints. Each variable gets an id in
    PresVar.key order, so a pair (min id, max id) is the canonical factor
    pair of its quadric and pairs of ids sort as leads do; a product is the
    sum of two packed generators, which sort as the exponent tuples do; the
    order enters as the ranks of _order_ranks, sorted descending once per
    quadric. The PresMonomials (one per quadric of a product with two or
    more factorizations) and the MarkedBinomials are built only at the end,
    each rule written through its slot setters.
    """
    variables = sorted({*left, *right}, key=PresVar.sort_key)
    ids = {v: i for i, v in enumerate(variables)}
    rank = _order_ranks(order, variables)
    exps = _packed_exponents(variables)
    ideal_of = [v.ideal_index for v in variables]
    right_ids = [ids[q] for q in right]
    by_product: dict[int, list[tuple[int, int]]] = {}
    seen: set[tuple[int, int]] = set()
    for p in left:
        a = ids[p]
        for b in right_ids:
            if cross_only and ideal_of[a] == ideal_of[b]:
                continue
            pair = (a, b) if a <= b else (b, a)
            if pair in seen:
                continue
            seen.add(pair)
            by_product.setdefault(exps[a] + exps[b], []).append(pair)
    marked = []
    quadric = {}
    descending = {}
    for prod in sorted(by_product):
        pairs = by_product[prod]
        if len(pairs) < 2:
            continue
        for a, b in pairs:
            quadric[a, b] = PresMonomial.from_sorted((variables[a],
                                                      variables[b]))
            descending[a, b] = _descending(rank[a], rank[b])
        for A, B in itertools.combinations(pairs, 2):
            marked.append((A, B) if descending[A] < descending[B] else (B, A))
    marked.sort(key=itemgetter(0))
    rules = []
    for A, B in marked:
        # MarkedBinomial.__init__'s checks: one kind and one degree hold by
        # construction, and lead != trail is checked on the id pairs
        if A == B:
            raise ValueError("lead equals trail")
        g = _new(MarkedBinomial)
        _set_lead(g, quadric[A])
        _set_trail(g, quadric[B])
        _set_source(g, source)
        rules.append(g)
    return rules


def build_G1(
    ideal: StronglyStableIdeal, ideal_index: int = 1
) -> list[MarkedBinomial]:
    """All coincident-product quadratic binomials of one ideal, rlex-marked."""
    order = PresOrder.rlex(ideal, ideal_index)
    vars_ = ideal_variables(ideal, ideal_index)
    return _coincident_product_binomials(vars_, vars_, order, "G1", False)


def build_G2(view: TwoQuadricView, ideal_index: int = 1) -> list[MarkedBinomial]:
    """As build_G1 but marked by the mixed order of the given region split."""
    order = PresOrder.mrlex(view, ideal_index)
    vars_ = ideal_variables(view.ideal, ideal_index)
    return _coincident_product_binomials(vars_, vars_, order, "G2", False)


def build_G3(view1: TwoQuadricView, view2: TwoQuadricView) -> list[MarkedBinomial]:
    """Cross binomials T_u Z_v - T_u' Z_v', marked by the larger mixed-order
    second-ideal part (equivalently, head-and-tail initial terms)."""
    order = PresOrder.head_and_tail(view1, view2)
    first = ideal_variables(view1.ideal, 1)
    second = ideal_variables(view2.ideal, 2)
    return _coincident_product_binomials(first, second, order, "G3", True)


def build_head_and_tail_basis(
    view1: TwoQuadricView, view2: TwoQuadricView
) -> list[MarkedBinomial]:
    """G = G1 u G2 u G3 for a pair of two-quadric-generator ideals."""
    return (
        build_G1(view1.ideal, 1)
        + build_G2(view2, 2)
        + build_G3(view1, view2)
    )


def build_syzygy_set(
    ideals: Sequence[StronglyStableIdeal],
) -> list[MarkedBinomial]:
    """Linear syzygy binomials x_i T_{l,k} - x_j T_{l,k'} with i < j.

    One per (generator, variable swap) with both sides minimal generators;
    these are exactly the one-step reduction moves between generators of one
    ideal, lifted to the presentation ring.
    """
    out = []
    n = ideals[0].n
    for l, ideal in enumerate(ideals, start=1):
        var_of = dict(zip(ideal.minimal_generators, ideal_variables(ideal, l)))
        for u in ideal.minimal_generators:
            for j in u.support():
                for i in range(1, j):
                    swapped = Monomial(
                        tuple(
                            e + (1 if k == i - 1 else 0) - (1 if k == j - 1 else 0)
                            for k, e in enumerate(u.exps)
                        )
                    )
                    if swapped in var_of:
                        lead = MixedMonomial(
                            Monomial.variable(i, n),
                            PresMonomial([var_of[u]]),
                        )
                        trail = MixedMonomial(
                            Monomial.variable(j, n),
                            PresMonomial([var_of[swapped]]),
                        )
                        out.append(MarkedBinomial(lead, trail, "SYZ"))
    out.sort(
        key=lambda g: (
            g.lead.t_part.factors[0].sort_key(),
            g.lead.x_part.exps,
        )
    )
    return out


def build_fiber_type_basis(
    ideals: Sequence[StronglyStableIdeal],
    fiber_gb: Sequence[MarkedBinomial],
) -> list[MarkedBinomial]:
    """Syzygies plus the fiber basis lifted to mixed monomials (x-part 1)."""
    n = ideals[0].n
    return build_syzygy_set(ideals) + lift_to_mixed(fiber_gb, n)


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


def _rlex_sorted(T: PresMonomial) -> tuple[PresVar, ...]:
    return tuple(sorted(T.factors, key=lambda f: rlex_sort_key(f.generator)))


def _mrlex_sorted(T: PresMonomial, view: TwoQuadricView) -> tuple[PresVar, ...]:
    return tuple(
        sorted(
            T.factors,
            key=lambda f: (
                0 if view.in_B_N(f.generator) else 1,
                rlex_sort_key(f.generator),
            ),
        )
    )


def sink_violations_rlex(T: PresMonomial, view: TwoQuadricView) -> list[str]:
    """Index inequalities every rlex-basis sink must satisfy, as violations.

    Factors are taken in rlex standard factorization order; for k < l with
    indices (i, j) and (i', j'): same-region pairs need i <= i' and j <= j';
    a B_M factor before a B_N factor needs i <= i' or c < i, and when i = i'
    additionally i = j or c < j.
    """
    return _pair_violations(_rlex_sorted(T), view, mixed_order=False)


def sink_violations_mrlex(T: PresMonomial, view: TwoQuadricView) -> list[str]:
    """Mixed-order analogue: same-region pairs monotone; B_N before B_M needs
    i <= i'."""
    return _pair_violations(_mrlex_sorted(T, view), view, mixed_order=True)


def _pair_violations(factors, view, mixed_order: bool) -> list[str]:
    bad = []
    idx = [f.generator.variables_with_multiplicity() for f in factors]
    regions = [view.in_B_N(f.generator) for f in factors]
    for k in range(len(factors)):
        for l in range(k + 1, len(factors)):
            (i, j), (i2, j2) = idx[k], idx[l]
            same = regions[k] == regions[l]
            if same:
                if not (i <= i2 and j <= j2):
                    bad.append(f"{factors[k]},{factors[l]}: same-region monotone")
            elif not mixed_order and not regions[k] and regions[l]:
                if not (i <= i2 or view.c < i):
                    bad.append(f"{factors[k]},{factors[l]}: head index")
                if i == i2 and not (i == j or view.c < j):
                    bad.append(f"{factors[k]},{factors[l]}: equal-head tail")
            elif mixed_order and regions[k] and not regions[l]:
                if not (i <= i2):
                    bad.append(f"{factors[k]},{factors[l]}: cross-region head")
    return bad


def sink_violations_ht(
    V: PresMonomial, view1: TwoQuadricView, view2: TwoQuadricView
) -> list[str]:
    """Head-and-tail sink checks: per-block inequalities plus the tail chain.

    When both blocks are nonempty and the mixed-order-last second-ideal factor
    sits in B_N2, every second-ideal factor must, and their indices chain as
    i_1 <= ... <= i_q <= c2 < b2 < j_1 <= ... <= j_q <= d2.
    """
    t_factors = PresMonomial([f for f in V.factors if f.ideal_index == 1])
    z_factors = PresMonomial([f for f in V.factors if f.ideal_index == 2])
    bad = []
    if t_factors.factors:
        bad += sink_violations_rlex(t_factors, view1)
    if z_factors.factors:
        bad += sink_violations_mrlex(z_factors, view2)
    if not (t_factors.factors and z_factors.factors):
        return bad
    zs = _mrlex_sorted(z_factors, view2)
    if view2.in_B_N(zs[-1].generator):
        if not all(view2.in_B_N(f.generator) for f in zs):
            bad.append("tail block mixes regions despite B_N-final factor")
        else:
            heads = [f.generator.variables_with_multiplicity()[0] for f in zs]
            tails = [f.generator.variables_with_multiplicity()[1] for f in zs]
            chain = (
                all(a <= b for a, b in zip(heads, heads[1:]))
                and heads[-1] <= view2.c
                and view2.b < tails[0]
                and all(a <= b for a, b in zip(tails, tails[1:]))
                and tails[-1] <= view2.d
            )
            if not chain:
                bad.append(f"tail chain broken: heads={heads} tails={tails}")
    return bad
