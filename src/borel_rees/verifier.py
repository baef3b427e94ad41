"""Exhaustive desk-scale verification of the Groebner and Koszulness claims.

Everything here is finite evidence: a basis is "certified" only over the
multidegrees within an explicit t-budget (every nonempty fiber graph acyclic
with a unique sink), kernel membership is checked by brute-force fiber pairs,
and cubic obstructions are found as fibers disconnected under the full set of
degree-2 coincident-product moves. That connectivity is a partition: a
union-find joins the fiber members that agree after removing two factors,
on rank tuples and with no rewriting.

One verifier serves the pure and the mixed presentation, and the rules pick
the fibers: when some lead is a MixedMonomial (the fiber-type basis of
syzygies plus the lifted fiber basis) they are the full presentation's
fibers up to an x-degree bound, otherwise the pure fibers, which are the
full presentation's fibers of rest degree 0. Both come as atom tuples
from the one enumerator, in the (t-slice, x-degree) groups of
presentation._fiber_groups that every check here walks: the presentation
variable of rank k is atom k and x_i is atom size + i - 1, so a pure
fiber's rank tuples are its atom tuples, and mixed_fibers only decodes
the fibers of rank_fibers. Every atom tuple here becomes a monomial, and
every lead an atom tuple, through the collection's presentation.Alphabet.
The default x-degree bound reaches every budgeted t-slice
(mixed_x_degree); a note names each slice an explicit bound leaves
unreached. The kernel oracle (kernel_membership) reduces every member of
the same fibers once, on atom tuples, a fiber at a time by
reduction.rank_normal_forms with one memo per fiber, and counts a fiber
of k members as its C(k, 2) pairs. It reads a builder's rows as they
are, so a library basis, quadric or fiber-type, reaches it with no rule
object built. The pair list (toric_kernel_span) and check_membership,
which reduces the pairs' sides on the same core, are its library-level
entry points on monomials.

verify_gb compiles the rules once onto the collection's alphabet
(reduction.rank_rules, which hands a builder's table back as it is) and
has one method: the term order the table carries (RankRules.order; for a
mixed table, the block order that compares x-parts first) must orient
every rule (orders.unoriented_rule). Rewriting then strictly descends it,
so each fiber graph is acyclic and its sinks are the fiber's standard
monomials: one per multidegree is the certificate, with the leads as
forbidden pairs of atoms and no graph built. One call of
presentation._fiber_groups counts them by enumerator state, a group at a
time, and lists them as atom tuples only from the first group holding a
multidegree without exactly one, whose monomials alone are built. A rule
list with no usable order is "inconclusive", no fiber walked. The
report's first note names the method or the missing order. analyze_fiber
reads one fiber's sinks and cycle flag off reduction.build_graph, the
core's fiber graph. No scan of objects is left here: the in-order scans
that check the core live with the tests (tests/reference.py).

A run whose evidence is empty (no checked fiber had two monomials and no
oracle pair was checked) is "inconclusive", never "certified". For
verify_gb that is one count: every fiber holds a monomial, so some fiber
holds two exactly when the budget holds more monomials
(presentation.monomial_count, in closed form) than the multidegrees
checked, and such a walked run notes that no checked fiber holds two
monomials. koszul_report checks its constructed basis before the
obstruction scan, and scans only a budget the basis does not certify;
it notes when the basis run is inconclusive, as the kernel-oracle
command notes a budget with no pair to check.
"""

from __future__ import annotations

import functools
import itertools
import sys
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .borel import StronglyStableIdeal, collection_spec, order_view
from .monomial import kind_mismatch
from .orders import build_G1, build_head_and_tail_basis, unoriented_rule
from .presentation import (
    Alphabet,
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    check_t_budget,
    content_degree,
    fibers_by_multidegree,
    monomial_count,
    rank_fibers,
    t_vectors,
    _fiber_groups,
    _reached_budget,
    _rest_degrees,
)
from .records import Frozen, Record
from .reduction import (
    MarkedBinomial,
    RankRules,
    build_graph,
    rank_normal_forms,
    rank_rules,
    rule_indices,
    _graph_rules,
)


# ---------------------------------------------------------------------------
# report types


class FiberFailure(Record):
    _fields = ("multidegree", "sinks", "has_cycle")

    def to_json_dict(self) -> dict:
        return {
            "multidegree": _mu_dict(self.multidegree),
            "sinks": self.sinks,
            "has_cycle": self.has_cycle,
        }


class VerificationReport(Record):
    """What a certification run checked and found. A list field left out
    gets a fresh empty list. nontrivial_fiber (some checked fiber had two or
    more monomials: verify_gb reads it off monomial_count) is neither
    serialized nor in the repr."""

    _fields = ("ideals", "t_budget", "multidegrees_checked", "failures",
               "oracle_binomials_checked", "oracle_failures", "notes",
               "nontrivial_fiber")
    _hidden = ("nontrivial_fiber",)
    _defaults = {"multidegrees_checked": int, "failures": list,
                 "oracle_binomials_checked": int, "oracle_failures": list,
                 "notes": list, "nontrivial_fiber": bool}

    @property
    def verdict(self) -> str:
        if self.failures or self.oracle_failures:
            return "refuted"
        if not (self.nontrivial_fiber or self.oracle_binomials_checked):
            return "inconclusive"
        return "certified-up-to-bound"

    @property
    def exit_code(self) -> int:
        return {"refuted": 2, "inconclusive": 3}.get(self.verdict, 0)

    def to_json_dict(self) -> dict:
        return {
            "ideals": self.ideals,
            "t_budget": list(self.t_budget),
            "multidegrees_checked": self.multidegrees_checked,
            "failures": [f.to_json_dict() for f in self.failures],
            "oracle_binomials_checked": self.oracle_binomials_checked,
            "oracle_failures": self.oracle_failures,
            "notes": self.notes,
            "verdict": self.verdict,
        }


def _mu_dict(mu: MultiDegree) -> dict:
    return {"x": list(mu.x_exps), "t": list(mu.t_exps), "display": mu.display()}


class ObstructionWitness(Record):
    """A fiber disconnected under all quadratic moves.

    Disconnection in total t-degree k certifies a minimal toric-kernel
    generator of degree k, so no quadratic generating set exists.
    """

    _fields = ("multidegree", "components")

    def component_of(self, v: PresMonomial) -> int:
        for i, comp in enumerate(self.components):
            if v in comp:
                return i
        raise KeyError(f"{v} not in witness fiber")

    def to_json_dict(self) -> dict:
        return {
            "multidegree": _mu_dict(self.multidegree),
            "components": [
                [v.label(len(self.multidegree.t_exps)) for v in comp]
                for comp in self.components
            ],
        }


# ---------------------------------------------------------------------------
# fiber graph analysis


def _one_kind(rules: Sequence[MarkedBinomial], monomials) -> None:
    """Raise kind_mismatch(lead, v), naming both kinds, for the first
    monomial v that is not of the first rule's lead kind: the TypeError a
    lead's divides raises, before any rewriting."""
    if rules:
        lead = rules[0].lead
        for v in monomials:
            if type(v) is not type(lead):
                raise kind_mismatch(lead, v)


def analyze_fiber(fiber: Sequence, pair_index, generic):
    """(sink vertex indexes, cycle flag) of one fiber's graph under the rules
    rule_indices split into pair_index and generic, read off
    reduction.build_graph on the rules back in list order. A member of
    another kind than the leads raises TypeError; a lead that is not two
    atoms, or a successor outside the fiber, raises ValueError."""
    rules = [g for _, g in sorted(
        itertools.chain(generic, *pair_index.values()), key=itemgetter(0))]
    _one_kind(rules, fiber)
    graph = build_graph(rules, fiber=fiber)
    return ([i for i, outs in enumerate(graph.edges) if not outs],
            graph.has_cycle)


def verify_gb(
    rules: Sequence[MarkedBinomial],
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    progress: Callable[[int], None] | None = None,
    x_degree: int | None = None,
) -> VerificationReport:
    """Certify or refute a marked collection over all budgeted multidegrees.

    Every nonempty fiber graph must be acyclic with exactly one sink. The
    rules pick the fibers: mixed ones up to x_degree when a lead is a
    MixedMonomial (mixed_x_degree), the pure presentation's otherwise. The
    term order the rules carry (RankRules.order) orients each rule, so the
    standard monomials are checked: they are counted by enumerator state,
    a group (a t-slice at one x-degree; a pure walk takes each slice at its
    content degree alone) at a time, with no member listed, until a group
    holds fewer multidegrees than standard monomials. From that group on
    the members are listed a group at a time. The count and the listing
    are the counts and the groups of one presentation._fiber_groups call,
    and no member of a counted group is listed. Only the keys without
    exactly one standard monomial are sorted, so failures come in
    rank_fibers order, by t-vector, then x ascending (pure) or by
    x-degree, then x descending (mixed). A MultiDegree is built only for a
    failure, and each of its sinks is labelled as the MixedMonomial its
    atoms decode to. The run has evidence (nontrivial_fiber) when the
    budget holds more monomials (presentation.monomial_count) than the
    multidegrees checked; otherwise an unrefuted run is "inconclusive",
    with a last note saying that no checked fiber holds two monomials.
    So is a list with no order, or one whose order does not orient a rule
    (orders.unoriented_rule), with one note naming the case (and the
    first such rule) and no fiber walked. progress is called at every
    multiple of 2000 the count reaches. A t_budget without one entry per
    ideal or with a negative entry, a negative x_degree, or a rule list
    that reduction.rank_rules refuses (a lead that is not two atoms)
    raises ValueError before any fiber is grown: the rules are compiled
    once, up front, onto the collection's alphabet.
    """
    check_t_budget(ideals, t_budget)
    report = VerificationReport(
        ideals=collection_spec(ideals), t_budget=tuple(t_budget)
    )
    pair_index, generic = rule_indices(rules)
    x_degree = mixed_x_degree(rules, ideals, t_budget, x_degree)
    alphabet = Alphabet.of(ideals)
    compiled = rank_rules(rules, alphabet)
    # rewriting descends the order inside a fiber, so a fiber graph's sinks
    # are its standard monomials, those with no lead pair of atoms
    lead_pairs = [(alphabet.index[p], alphabet.index[q]) for p, q in pair_index]
    lead_pairs += [alphabet.encode(g.lead) for _, g in generic]
    digits, counts, groups = _fiber_groups(ideals, t_budget, lead_pairs,
                                           x_degree)
    order = compiled.order
    unoriented = None if order is None else unoriented_rule(compiled)
    if order is None or unoriented is not None:
        why = (f"no term order given with the {len(rules)} rules"
               if order is None else
               f"the {order.kind} order given with the rules does not "
               f"orient {compiled[unoriented].label(len(ideals))}")
        report.notes.append(f"{why}: no fiber checked")
        return report
    name = (f"{order.kind} order" if x_degree is None else
            f"block order (x-parts first, then {order.kind})")
    report.notes.append(f"standard monomials under the {name}; "
                        f"{len(rules)} rules oriented, images equal")
    if x_degree is not None:
        report.notes.append(f"mixed fibers up to x-degree {x_degree}")

    def count(k):
        report.multidegrees_checked = _advance(
            report.multidegrees_checked, k, progress)

    # the standard monomials are counted by enumerator state, a group (pure
    # t-slice, or t-slice and x-degree) at a time; at the first group
    # without one per multidegree the members take over
    listing = ()  # every group counted: none is listed
    for counted, (_, _, keys, members) in enumerate(counts):
        if keys != members:
            listing = groups(counted)
            break
        count(keys)
    # the listing starts at the first group not counted; it counts a group
    # whole and sorts only the keys it checks, into rank_fibers order
    for tv, fibers in listing:
        count(len(fibers))
        failing = [x for x, standard in fibers.items() if len(standard) != 1]
        for key in sorted(failing, reverse=x_degree is not None):
            report.failures.append(FiberFailure(
                MultiDegree(digits.unpack(key), tv),
                [alphabet.decode(v).label(len(tv)) for v in fibers[key]],
                False))
    # the note walks the box the fibers' walk reached, so it comes after
    # that walk: one too long to finish shows its progress first
    if x_degree is not None:
        report.notes += unreached_slice_notes(ideals, t_budget, x_degree)
    # Every fiber of the budget holds a monomial, and under a term order a
    # standard one (its least member), so every multidegree is checked and
    # the budget holds more monomials than multidegrees checked exactly
    # when some checked fiber holds two. A refuted run is refuted whatever
    # this says.
    report.nontrivial_fiber = (monomial_count(ideals, t_budget, x_degree)
                               > report.multidegrees_checked)
    if report.verdict == "inconclusive":
        report.notes.append("no checked fiber holds two monomials: "
                            "nothing to certify")
    return report


def _advance(walked: int, k: int,
             progress: Callable[[int], None] | None) -> int:
    """walked + k, calling progress at every multiple of 2000 it reaches."""
    if progress:
        for mark in range(walked // 2000 + 1, (walked + k) // 2000 + 1):
            progress(2000 * mark)
    return walked + k


def mixed_x_degree(
    rules: Sequence[MarkedBinomial],
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int | None = None,
) -> int | None:
    """The x-degree bound of the mixed fibers a rule list is checked on.

    The lead kinds decide: the types of the leads, or a RankRules' kinds
    (PresMonomial for a quadric builder's table and MixedMonomial for a
    fiber-type one, even an empty one). With kinds and no MixedMonomial
    among them the rules live on the pure presentation, so the bound is
    None, and an x_degree given for them raises ValueError rather than
    being ignored. A hand-made list with no rule has no kind and takes a
    given x_degree, and is otherwise pure as well.
    With a mixed lead: x_degree when given, else the budget's content
    degree sum(b_i * d_i), the least bound that reaches every budgeted
    t-slice. Each lower slice keeps min(d_i) x-degrees of room or
    more, for the overlaps x_i*T_u*T_v of a syzygy with a fiber rule. The
    one margin is a floor of 2 * max(d_i), the bound used before: at a
    one-factor budget the least bound leaves only singleton fibers, where no
    syzygy applies, and 2*d reaches the overlaps x_i*x_j*T_u (x-degree
    d + 2).
    """
    kinds = (rules.kinds if isinstance(rules, RankRules)
             else {type(g.lead) for g in rules})
    if x_degree is not None:
        if kinds and MixedMonomial not in kinds:
            raise ValueError(
                "an x-degree bound applies only to a basis with mixed "
                "(fiber-type) leads"
            )
        return x_degree
    if MixedMonomial not in kinds:
        return None
    floor = 2 * max(i.degree for i in ideals)
    return max(content_degree(ideals, t_budget), floor)


def unreached_slice_notes(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int,
) -> list[str]:
    """A report note naming the budgeted t-vectors whose rest degrees
    (presentation._rest_degrees) are empty, their content degree above
    x_degree, so that no fiber of theirs is checked; none when every slice
    is reached. Content degree grows with every t entry, so the budget's
    own range decides at once whether any slice is unreached, and only the
    box the walk reaches (presentation._reached_budget) plus one step per
    coordinate, within the budget, is walked to name them. Every budgeted
    t-vector outside that box lies above a named one, so when the budget
    goes further the note adds that every t-vector above them is
    unreached too. That box is as large as the walk over it, so verify_gb
    and the kernel-oracle command make the note after their walk: a walk
    too long to finish reports its progress, never a wait on the note."""
    if _rest_degrees(ideals, t_budget, x_degree):
        return []
    reached = _reached_budget(ideals, t_budget, x_degree)
    edge = tuple([min(b, a + 1) for a, b in zip(reached, t_budget)])
    unreached = " ".join(
        ",".join(map(str, tv)) for tv in t_vectors(edge)
        if not _rest_degrees(ideals, tv, x_degree)
    )
    above = "" if edge == tuple(t_budget) else " and every t-vector above them"
    return [f"unchecked t-vectors, content degree above x-degree {x_degree}: "
            f"{unreached}{above}"]


# ---------------------------------------------------------------------------
# brute-force kernel oracles


def toric_kernel_span(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int | None = None,
) -> list[tuple]:
    """All same-multidegree pairs of monomials within budget.

    Their differences span the toric kernel in the budgeted degrees; this is
    the oracle side of every certification. With x_degree the pairs are
    those of the full presentation's fibers up to that x-degree.
    """
    if x_degree is None:
        fibers = fibers_by_multidegree(ideals, t_budget)
    else:
        fibers = mixed_fibers(ideals, t_budget, x_degree)
    pairs = []
    for _, fiber in fibers:
        pairs += itertools.combinations(fiber, 2)
    return pairs


def mixed_fibers(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int,
) -> Iterator[tuple[MultiDegree, list[MixedMonomial]]]:
    """Fibers of the full presentation map, x-degree bounded: the mixed
    fibers of rank_fibers, each member decoded to a MixedMonomial."""
    decode = Alphabet.of(ideals).decode
    for mu, fiber in rank_fibers(ideals, t_budget, x_degree=x_degree):
        yield mu, [decode(atoms) for atoms in fiber]


def check_membership(
    span_pairs: Sequence[tuple],
    rules: Sequence[MarkedBinomial],
) -> tuple[int, list[dict]]:
    """Reduce both sides of every pair on the rewriting core; a pair passes
    when the normal forms coincide.

    The distinct sides are encoded once, on the alphabet of the rules and
    the sides that build_graph uses too (reduction._graph_rules), and
    reduced by one rank_normal_forms call, so one memo serves every pair
    and each monomial on a rewrite path is reduced once. A side whose
    rewriting cycles makes its pair an "error" failure naming the monomial
    that recurs (the first side's, when both cycle); otherwise a failure
    names both normal forms. A side of another kind than the leads raises
    TypeError, and a lead that is not two atoms ValueError, before any
    rewriting; any other exception propagates.
    """
    sides = list(dict.fromkeys(itertools.chain.from_iterable(span_pairs)))
    _one_kind(rules, sides)
    compiled = _graph_rules(rules, sides)
    alphabet = compiled.alphabet
    forms = dict(zip(sides, rank_normal_forms(
        [alphabet.encode(v) for v in sides], compiled)))
    failures = []
    for a, b in span_pairs:
        if failure := _pair_failure(str(a), str(b), forms[a], forms[b],
                                    alphabet.label):
            failures.append(failure)
    return len(span_pairs), failures


def _pair_failure(a: str, b: str, na, nb, label) -> dict | None:
    """The failure of the kernel pair labelled a, b whose sides reduce to
    na and nb (atom tuples, or the RewriteCycle of a side that cycles):
    the first side's cycle as an "error", else both normal forms when they
    differ, labelled by label; None when the pair passes."""
    if type(na) is not tuple or type(nb) is not tuple:
        return {"pair": [a, b], "error": str(nb if type(na) is tuple else na)}
    if na != nb:
        return {"pair": [a, b], "normal_forms": [label(na), label(nb)]}
    return None


def kernel_membership(
    rules: Sequence[MarkedBinomial],
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int | None = None,
    progress: Callable[[int], None] | None = None,
) -> tuple[int, list[dict]]:
    """Exactly check_membership(toric_kernel_span(ideals, t_budget, x),
    rules), a fiber at a time on atom tuples with no monomial built for a
    side, where x is mixed_x_degree(rules, ideals, t_budget, x_degree):
    the fibers verify_gb checks. So mixed leads with no x_degree get the default bound, and pure
    leads given an x_degree raise ValueError.

    A reduction.RankRules on the alphabet of the ideals (Alphabet.of), as
    the orders builders return one, is read as it is: its kinds pick the
    fibers and its lead table reduces them, and no rule or monomial object
    is built. Any other list is compiled once (reduction.rank_rules, which
    refuses a lead that is not two atoms with ValueError). Each fiber's
    members are reduced by one rank_normal_forms call, with one memo per
    fiber, which loses nothing when every rule keeps images (no rewrite
    path leaves its fiber) and is only a cache otherwise. A fiber of k
    members counts C(k, 2) pairs. Only a fiber whose members do
    not all share one normal form has its pairs walked, in combinations
    order, for the same failure dicts: the error of the first side that
    cycles, otherwise both normal forms. Pure and mixed fibers alike come
    as atom tuples in the listed groups of presentation._fiber_groups (its
    counts are never started), each group walked in no set order, with no
    MultiDegree built. Only its failing fibers are sorted, into
    rank_fibers order, and monomials are decoded only for their labels.
    progress is called at every multiple of 2000 the multidegrees walked
    reach. A t_budget without one entry per ideal or with a negative
    entry, or a negative x_degree, raises ValueError before any work
    starts.
    """
    x_degree = mixed_x_degree(rules, ideals, t_budget, x_degree)
    _, _, groups = _fiber_groups(ideals, t_budget, x_degree=x_degree)
    compiled = rank_rules(rules, Alphabet.of(ideals))
    label = functools.cache(compiled.alphabet.label)
    checked = walked = 0
    failures = []
    for _, group in groups():
        walked = _advance(walked, len(group), progress)
        failing = {}
        for key, fiber in group.items():
            if len(fiber) < 2:
                continue
            checked += len(fiber) * (len(fiber) - 1) // 2
            forms = rank_normal_forms(fiber, compiled)
            first = forms[0]
            if type(first) is not tuple or forms.count(first) != len(forms):
                failing[key] = zip(fiber, forms)
        for key in sorted(failing, reverse=x_degree is not None):
            for (a, na), (b, nb) in itertools.combinations(failing[key], 2):
                if failure := _pair_failure(label(a), label(b), na, nb,
                                            label):
                    failures.append(failure)
    return checked, failures


# ---------------------------------------------------------------------------
# obstruction detection


def _move_components(fiber: Sequence[tuple[int, ...]]):
    """The connected components of a fiber of rank tuples under all quadric
    moves.

    A quadric move swaps two factors for two others from the same ideals
    with the same generator product. Inside one fiber the other factors
    decide the class: members w*p*q and w*p'*q' with the same rest w have
    equal multidegrees, so p*q and p'*q' have equal ones too, which are the
    same ideals and the same generator product. So a union-find joins the
    members that share a rest (the ranks left after removing two).
    Components come in the order of their first member, each in fiber
    order.
    """
    parent = list(range(len(fiber)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first: dict[tuple[int, ...], int] = {}
    for i, v in enumerate(fiber):
        # i is still a root here: earlier roots are joined under it
        for rest in itertools.combinations(v, len(v) - 2):
            j = first.setdefault(rest, i)
            if j != i:
                parent[root(j)] = i
    comps: dict[int, list[tuple[int, ...]]] = {}
    for i, v in enumerate(fiber):
        comps.setdefault(root(i), []).append(v)
    return list(comps.values())


def detect_obstructions(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    progress: Callable[[int], None] | None = None,
) -> list[ObstructionWitness]:
    """Fibers of total t-degree >= 3 disconnected under all quadratic moves.

    The move set is every coincident-product swap of two factors (within one
    ideal or across two), not only marked basis elements: connectivity under
    the full quadric move set is the right criterion for degree-2 generation.
    Moves go both ways, so a fiber's components are the classes of a
    partition, found by union-find (_move_components) with no rewriting, on
    the rank tuples of the listed groups of presentation._fiber_groups.
    Each t-slice of total degree 3 or more is walked in no set order, and
    only its witnesses are sorted, x-parts ascending as in rank_fibers;
    only a witness has its MultiDegree and members built. progress is
    called at every multiple of 2000 the multidegrees walked reach, lower
    slices included. A t_budget without one entry per ideal or with a
    negative entry raises ValueError first.
    """
    digits, _, groups = _fiber_groups(ideals, t_budget)
    if sum(t_budget) < 3:
        raise ValueError("t budget must allow total t-degree >= 3")
    decode = Alphabet.of(ideals).decode
    witnesses = []
    walked = 0
    for tv, group in groups():
        walked = _advance(walked, len(group), progress)
        if sum(tv) < 3:
            continue
        split = {}
        for key, fiber in group.items():
            if len(fiber) > 1:
                comps = _move_components(fiber)
                if len(comps) > 1:
                    split[key] = comps
        for key in sorted(split):
            witnesses.append(ObstructionWitness(
                MultiDegree(digits.unpack(key), tv),
                tuple(tuple(decode(ranks, PresMonomial) for ranks in comp)
                      for comp in split[key])))
    return witnesses


# ---------------------------------------------------------------------------
# the parameter gate and the combined report


class GateResult(Frozen):
    """The parameter gate's verdict ("possibly-koszul" or
    "known-obstructed") and case ("a", "b", "c" or None) on the sorted
    generator counts and degrees. Immutable; equal and hashed as its four
    fields."""

    _fields = ("verdict", "case", "sorted_g", "sorted_d")

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "case": self.case,
            "g": list(self.sorted_g),
            "d": list(self.sorted_d),
        }


def parameter_gate(r: int, g: Sequence[int], d: Sequence[int]) -> GateResult:
    """Necessary-condition gate on (number of ideals, generator counts,
    generator degrees); sorting normalizes to the hypotheses g ascending and
    d ascending within equal g."""
    if len(g) != r or len(d) != r:
        raise ValueError(f"expected {r} entries, got g:{len(g)} d:{len(d)}")
    if r < 1 or any(x < 1 for x in g) or any(x < 1 for x in d):
        raise ValueError("r, g_i, d_i must all be >= 1")
    pairs = sorted(zip(g, d))
    gs = tuple(p[0] for p in pairs)
    ds = tuple(p[1] for p in pairs)

    def result(case):
        verdict = "possibly-koszul" if case else "known-obstructed"
        return GateResult(verdict, case, gs, ds)

    if all(x == 1 for x in gs[: r - 1]) and gs[-1] <= 2:
        return result("c")  # r = 1 rides along: vacuous prefix
    if r == 2 and gs == (2, 2) and 2 <= ds[0] <= ds[1] <= 3:
        return result("a")
    if (
        r > 2
        and all(x == 1 for x in gs[: r - 2])
        and gs[r - 2] == gs[r - 1] == 2
        and 2 <= ds[r - 2] <= ds[r - 1] <= 3
    ):
        return result("b")
    return result(None)


class KoszulReport(Record):
    """The gate, the obstruction scan and the basis run, with the combined
    verdict: "g-quadratic-certified", "obstructed" or "inconclusive"."""

    _fields = ("ideals", "t_budget", "gate", "obstructions", "gb_report",
               "verdict", "notes")
    _defaults = {"notes": list}

    @property
    def exit_code(self) -> int:
        return {"g-quadratic-certified": 0, "obstructed": 2}.get(self.verdict, 3)

    def to_json_dict(self) -> dict:
        return {
            "ideals": self.ideals,
            "t_budget": list(self.t_budget),
            "parameter_gate": self.gate.to_json_dict(),
            "obstructions": [w.to_json_dict() for w in self.obstructions],
            "gb_verification": self.gb_report.to_json_dict()
            if self.gb_report
            else None,
            "verdict": self.verdict,
            "notes": self.notes,
        }


def quadratic_basis_for(
    ideals: Sequence[StronglyStableIdeal],
) -> RankRules | None:
    """The explicit marked basis this library knows how to construct.

    Single ideals get the rlex collection; pairs of quadric ideals with at
    most two Borel generators each get the head-and-tail union. Anything else
    has no constructive basis here.
    """
    if len(ideals) == 1:
        return build_G1(ideals[0], 1)
    if len(ideals) == 2 and all(
        i.degree == 2 and i.num_borel_generators <= 2 for i in ideals
    ):
        return build_head_and_tail_basis(order_view(ideals[0]), order_view(ideals[1]))
    return None


def koszul_report(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    progress: Callable[[int], None] | None = None,
) -> KoszulReport:
    """Gate + obstruction scan + (where a basis exists) GB certification.

    The verdict is evidence, never a proof: "g-quadratic-certified" is always
    bound-qualified, "obstructed" is definitive (a cubic minimal kernel
    generator rules out quadratic defining equations and hence Koszulness).
    The basis is checked first, and the scan runs only when it does not
    certify: every rule is a quadric move inside a fiber, so a fiber whose
    members all rewrite to one normal form is connected under quadric moves
    (Diaconis-Sturmfels 1998; Sturmfels 1996, ch. 4-5), and a certified
    budget holds no obstruction. A scan that finds one discards the basis
    run. progress is passed to the basis run and to the scan, each
    counting its own multidegrees. A t_budget without one entry per ideal,
    or with a negative entry, raises ValueError first, whichever checks
    run.
    """
    check_t_budget(ideals, t_budget)
    g = [i.num_borel_generators for i in ideals]
    d = [i.degree for i in ideals]
    gate = parameter_gate(len(ideals), g, d)
    rules = quadratic_basis_for(ideals)
    gb_report = None
    verdict = "inconclusive"
    if rules is not None:
        gb_report = verify_gb(rules, ideals, t_budget, progress=progress)
        if gb_report.verdict == "certified-up-to-bound":
            verdict = "g-quadratic-certified"
    notes, witnesses = [], []
    if sum(t_budget) < 3:
        notes.append("t budget below 3: obstruction scan skipped")
    elif verdict == "inconclusive":
        witnesses = detect_obstructions(ideals, t_budget, progress=progress)
    if witnesses:
        verdict, gb_report = "obstructed", None
    elif gb_report is None:
        notes.append("no constructive quadratic basis for this collection")
    elif gb_report.verdict == "refuted":
        notes.append("constructed basis failed certification")
    elif gb_report.verdict == "inconclusive":
        notes.append("constructed basis run inconclusive: no checked fiber "
                     "held two monomials")
    return KoszulReport(
        ideals=collection_spec(ideals),
        t_budget=tuple(t_budget),
        gate=gate,
        obstructions=witnesses,
        gb_report=gb_report,
        verdict=verdict,
        notes=notes,
    )


def progress_to_stderr(count: int) -> None:
    print(f"... {count} multidegrees checked", file=sys.stderr, flush=True)
