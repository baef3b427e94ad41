"""Object-level references that only the tests read.

The paper's two devices for its Groebner bases of R(I_1 + I_2): the sink
inequalities of the rlex, mixed and head-and-tail orders, which every
standard monomial satisfies (necessary only: a monomial that satisfies
them need not be a sink), and the o-invariant, which with the longest path
drops along every rewrite by the fiber-type basis. Beside them, the
induced revlex comparator of a PresOrder on presentation monomials, and
the fiber listings of presentation._fiber_groups with forbidden pairs:
the standard monomials of a quadratic marking, each fiber left with the
members no lead divides.
"""

from __future__ import annotations

from borel_rees.borel import TwoQuadricView
from borel_rees.monomial import rlex_sort_key
from borel_rees.presentation import (
    Alphabet,
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    PresVar,
    _fiber_groups,
)


def compare_presmonomials(order, A: PresMonomial, B: PresMonomial) -> int:
    """Induced (graded) revlex of order: 1 if A > B, -1 if A < B, 0 if equal.

    Degrees compare first. For equal degrees the smallest variable whose
    exponents differ decides, and the side with fewer of it is larger:
    that is, A > B exactly when A's factor ranks, sorted descending, are
    the lexicographically smaller list. A variable outside the order
    raises KeyError.
    """
    if A.degree != B.degree:
        return 1 if A.degree > B.degree else -1
    ra = sorted(map(order.rank.__getitem__, A.factors), reverse=True)
    rb = sorted(map(order.rank.__getitem__, B.factors), reverse=True)
    if ra == rb:
        return 0
    return 1 if ra < rb else -1


def banned_fibers(ideals, budget, pairs, x_degree=None):
    """rank_fibers with forbidden pairs: the listed groups of
    _fiber_groups(ideals, budget, pairs, x_degree) flattened, keys sorted
    and decoded as rank_fibers does, so a fiber holds the members no pair
    bans and a fiber left empty is not yielded."""
    digits, _, groups = _fiber_groups(ideals, budget, pairs, x_degree)
    for tv, group in groups():
        for key in sorted(group, reverse=x_degree is not None):
            yield MultiDegree(digits.unpack(key), tv), group[key]


def banned_pure_fibers(ideals, budget, pairs):
    """banned_fibers of the pure walk, each member decoded as a
    PresMonomial, as fibers_by_multidegree decodes rank_fibers."""
    decode = Alphabet.of(ideals).decode
    for mu, group in banned_fibers(ideals, budget, pairs):
        yield mu, [decode(ranks, PresMonomial) for ranks in group]


def o_invariant(v: MixedMonomial) -> int:
    """Iterated cumulative degree of the content against the x-part.

    For each variable occurrence x_i of the x-part (with multiplicity), counts
    the content exponents strictly beyond position i, summed over occurrences.
    """
    alpha = [0] * v.x_part.n
    for f in v.t_part.factors:
        for k, e in enumerate(f.generator.exps):
            alpha[k] += e
    suffix = [0] * (len(alpha) + 1)
    for k in range(len(alpha) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + alpha[k]
    total = 0
    for i, e in enumerate(v.x_part.exps):
        total += e * suffix[i + 1]
    return total


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
