"""Exhaustive desk-scale verification of the Groebner and Koszulness claims.

Everything here is finite evidence: a basis is "certified" only over the
multidegrees within an explicit t-budget (every nonempty fiber graph acyclic
with a unique sink), kernel membership is checked by brute-force fiber pairs,
and cubic obstructions are found as fibers disconnected under the full set of
degree-2 coincident-product moves.

verify_gb picks its method from the marking alone. When a library term order
orients every rule (orders.marking_order), rewriting strictly descends that
order, so each fiber graph is acyclic and its sinks are the fiber's standard
monomials: the certificate is one standard monomial per multidegree, listed
directly by fibers_by_multidegree with the lead pairs forbidden and no graph
built. Any other marking gets the fiber graphs themselves, which also serve
as the differential oracle. The report's notes name the method.

A run whose evidence is empty (no checked fiber had two monomials and no
oracle pair was checked) is "inconclusive", never "certified".
"""

from __future__ import annotations

import itertools
import multiprocessing
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .borel import StronglyStableIdeal, collection_spec, order_view
from .monomial import Monomial
from .orders import build_G1, build_head_and_tail_basis, marking_order
from .presentation import (
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    PresVar,
    pres_monomials_with_t,
    presentation_variables,
    t_vectors,
    content,
    fibers_by_multidegree,
)
from .reduction import (
    MarkedBinomial,
    normal_form,
    resolve_step_limit,
    rule_indices,
)


# ---------------------------------------------------------------------------
# report types


@dataclass
class FiberFailure:
    multidegree: MultiDegree
    sinks: list[str]
    has_cycle: bool

    def to_json_dict(self) -> dict:
        return {
            "multidegree": _mu_dict(self.multidegree),
            "sinks": self.sinks,
            "has_cycle": self.has_cycle,
        }


def _vlabel(v, mu: MultiDegree) -> str:
    return v.label("auto", len(mu.t_exps)) if hasattr(v, "label") else str(v)


@dataclass
class VerificationReport:
    ideals: dict
    t_budget: tuple[int, ...]
    multidegrees_checked: int = 0
    failures: list[FiberFailure] = field(default_factory=list)
    oracle_binomials_checked: int = 0
    oracle_failures: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    sink_log: list = field(default_factory=list, repr=False)
    # some checked fiber had two or more monomials (not serialized)
    nontrivial_fiber: bool = field(default=False, repr=False)

    @property
    def verdict(self) -> str:
        if self.failures or self.oracle_failures:
            return "refuted"
        if not (self.nontrivial_fiber or self.oracle_binomials_checked):
            return "inconclusive"
        return "certified-up-to-bound"

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


@dataclass
class ObstructionWitness:
    """A fiber disconnected under all quadratic moves.

    Disconnection in total t-degree k certifies a minimal toric-kernel
    generator of degree k, so no quadratic generating set exists.
    """

    multidegree: MultiDegree
    components: tuple[tuple[PresMonomial, ...], ...]

    @property
    def fiber_size(self) -> int:
        return sum(len(c) for c in self.components)

    def component_of(self, v: PresMonomial) -> int:
        for i, comp in enumerate(self.components):
            if v in comp:
                return i
        raise KeyError(f"{v} not in witness fiber")

    def to_json_dict(self) -> dict:
        return {
            "multidegree": _mu_dict(self.multidegree),
            "components": [
                [_vlabel(v, self.multidegree) for v in comp]
                for comp in self.components
            ],
        }


# ---------------------------------------------------------------------------
# fiber graph analysis


def _fiber_adjacency(fiber: Sequence, pair_index, generic) -> list[set[int]]:
    index = {v: i for i, v in enumerate(fiber)}
    adj: list[set[int]] = [set() for _ in fiber]
    for i, v in enumerate(fiber):
        if pair_index and isinstance(v, PresMonomial):
            fcs = v.factors
            seen = set()
            for a in range(len(fcs)):
                for b in range(a + 1, len(fcs)):
                    pk = (fcs[a], fcs[b])
                    if pk in seen:
                        continue
                    seen.add(pk)
                    for _, g in pair_index.get(pk, ()):
                        succ = v.quotient(g.lead) * g.trail
                        adj[i].add(index[succ])
        for _, g in generic:
            if g.lead.divides(v):
                succ = v.quotient(g.lead) * g.trail
                adj[i].add(index[succ])
    return adj


def _has_cycle(adj: list[set[int]]) -> bool:
    color = [0] * len(adj)
    for root in range(len(adj)):
        if color[root]:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if color[child] == 1:
                    return True
                if color[child] == 0:
                    color[child] = 1
                    stack.append((child, iter(adj[child])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def analyze_fiber(fiber: Sequence, pair_index, generic):
    """(sink vertex indexes, cycle flag) for one fiber under the rule set."""
    adj = _fiber_adjacency(fiber, pair_index, generic)
    sinks = [i for i, outs in enumerate(adj) if not outs]
    return sinks, _has_cycle(adj)


# worker state for the process pool
_POOL_RULES = None


def _pool_init(rules):
    global _POOL_RULES
    _POOL_RULES = rule_indices(rules)


def _pool_work(chunk):
    pair_index, generic = _POOL_RULES
    return [_fiber_graph_result(mu, fiber, pair_index, generic)
            for mu, fiber in chunk]


def _fiber_graph_result(mu, fiber, pair_index, generic):
    """(multidegree, sink monomials, cycle flag, fiber size) of one fiber."""
    sinks, cyc = analyze_fiber(fiber, pair_index, generic)
    return mu, [fiber[i] for i in sinks], cyc, len(fiber)


def _chunks(it: Iterable, size: int) -> Iterator[list]:
    chunk: list = []
    for item in it:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def verify_gb(
    rules: Sequence[MarkedBinomial],
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    jobs: int = 1,
    progress: Callable[[int], None] | None = None,
    collect_sinks: bool = False,
) -> VerificationReport:
    """Certify or refute a marked collection over all budgeted multidegrees.

    Every nonempty fiber graph must be acyclic with exactly one sink. When a
    library term order orients every rule, that is checked by listing the
    standard monomials (serially, whatever jobs says); otherwise the fiber
    graphs are built, chunked over a process pool when jobs > 1. Chunks are
    merged in submission order, so reports are byte-identical for any worker
    count.
    """
    report = VerificationReport(
        ideals=collection_spec(ideals), t_budget=tuple(t_budget)
    )
    sink_log: list[tuple[MultiDegree, PresMonomial]] = []
    pair_index, generic = rule_indices(rules)
    order = marking_order(rules, ideals)

    def consume(results):
        for mu, sink_vertices, cyc, size in results:
            report.multidegrees_checked += 1
            if progress and report.multidegrees_checked % 2000 == 0:
                progress(report.multidegrees_checked)
            if size >= 2:
                report.nontrivial_fiber = True
            ok = not cyc and len(sink_vertices) == 1
            if not ok:
                report.failures.append(
                    FiberFailure(mu, [_vlabel(v, mu) for v in sink_vertices], cyc)
                )
            elif collect_sinks:
                sink_log.append((mu, sink_vertices[0]))

    if order is not None:
        report.notes.append(
            f"standard monomials under the {order.kind} order; "
            f"{len(rules)} rules oriented, images equal"
        )
        consume(_standard_monomial_results(pair_index, ideals, t_budget))
        # the other nontrivial fibers are those holding a lead within budget,
        # which shares its fiber with its trail
        report.nontrivial_fiber |= any(
            all(a <= b for a, b in zip(g.lead.t_vector(len(ideals)), t_budget))
            for g in rules
        )
    else:
        report.notes.append(
            f"fiber graphs; no library term order orients all {len(rules)} rules"
        )
        fibers = fibers_by_multidegree(ideals, t_budget)
        if jobs <= 1:
            consume(
                _fiber_graph_result(mu, fiber, pair_index, generic)
                for mu, fiber in fibers
            )
        else:
            with multiprocessing.Pool(
                processes=jobs, initializer=_pool_init, initargs=(list(rules),)
            ) as pool:
                for results in pool.imap(_pool_work, _chunks(fibers, 256)):
                    consume(results)
    if collect_sinks:
        report.sink_log = sink_log
    return report


def _standard_monomial_results(pair_index, ideals, t_budget):
    """Per multidegree: its standard monomials, which are the fiber graph's
    sinks under a term-order marking, with no cycle; their count stands in
    for the fiber size as a lower bound. pair_index is keyed by the leads."""
    rank = {v: k for k, v in enumerate(presentation_variables(ideals))}
    lead_pairs = [(rank[p], rank[q]) for p, q in pair_index]
    for mu, standard in fibers_by_multidegree(ideals, t_budget, lead_pairs):
        yield mu, standard, False, len(standard)


def verify_gb_mixed(
    rules: Sequence[MarkedBinomial],
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int | None = None,
    progress: Callable[[int], None] | None = None,
) -> VerificationReport:
    """Certify a mixed-kind collection over fibers of the full presentation.

    Every fiber of the multigraded map (x-part bounded by x_degree, default
    twice the largest generator degree) must be acyclic with a unique sink.
    """
    if x_degree is None:
        x_degree = 2 * max(i.degree for i in ideals)
    report = VerificationReport(
        ideals=collection_spec(ideals), t_budget=tuple(t_budget)
    )
    report.notes.append(f"mixed fibers up to x-degree {x_degree}")
    pair_index, generic = rule_indices(rules)
    for mu, fiber in mixed_fibers(ideals, t_budget, x_degree):
        sinks, cyc = analyze_fiber(fiber, pair_index, generic)
        report.multidegrees_checked += 1
        if progress and report.multidegrees_checked % 2000 == 0:
            progress(report.multidegrees_checked)
        if len(fiber) >= 2:
            report.nontrivial_fiber = True
        if cyc or len(sinks) != 1:
            report.failures.append(
                FiberFailure(mu, [_vlabel(fiber[i], mu) for i in sinks], cyc)
            )
    return report


# ---------------------------------------------------------------------------
# brute-force kernel oracles


def toric_kernel_span(
    ideals: Sequence[StronglyStableIdeal], t_budget: Sequence[int]
) -> list[tuple[PresMonomial, PresMonomial]]:
    """All same-multidegree pairs of presentation monomials within budget.

    Their differences span the toric kernel in the budgeted degrees; this is
    the oracle side of every certification.
    """
    pairs = []
    for _, fiber in fibers_by_multidegree(ideals, t_budget):
        for a in range(len(fiber)):
            for b in range(a + 1, len(fiber)):
                pairs.append((fiber[a], fiber[b]))
    return pairs


def _monomials_of_degree(n: int, d: int) -> Iterator[Monomial]:
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for k in combo:
            exps[k] += 1
        yield Monomial(exps)


def mixed_fibers(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int,
) -> Iterator[tuple[MultiDegree, list[MixedMonomial]]]:
    """Fibers of the full presentation map, x-degree bounded.

    For each t-vector within budget and each ambient monomial of degree up to
    x_degree, the fiber collects every m*u with m * content(u) equal to it.
    """
    n = ideals[0].n
    for tv in t_vectors(t_budget):
        by_content: dict[tuple[int, ...], list[PresMonomial]] = {}
        min_deg = None
        for u in pres_monomials_with_t(ideals, tv):
            c = content(u, n)
            by_content.setdefault(c.exps, []).append(u)
            min_deg = c.degree if min_deg is None else min(min_deg, c.degree)
        if min_deg is None or min_deg > x_degree:
            continue
        for d in range(min_deg, x_degree + 1):
            for mu_x in _monomials_of_degree(n, d):
                fiber = []
                for c_exps, us in by_content.items():
                    c = Monomial(c_exps)
                    if c.divides(mu_x):
                        m = mu_x.quotient(c)
                        fiber.extend(MixedMonomial(m, u) for u in us)
                if fiber:
                    yield MultiDegree(mu_x.exps, tv), fiber


def mixed_kernel_span(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    x_degree: int,
) -> list[tuple[MixedMonomial, MixedMonomial]]:
    """Brute-force kernel pairs of the multi-graded presentation map."""
    pairs = []
    for _, fiber in mixed_fibers(ideals, t_budget, x_degree):
        for a in range(len(fiber)):
            for b in range(a + 1, len(fiber)):
                pairs.append((fiber[a], fiber[b]))
    return pairs


def check_membership(
    span_pairs: Sequence[tuple],
    rules: Sequence[MarkedBinomial],
    step_limit: int | None = None,
) -> tuple[int, list[dict]]:
    """Reduce both sides of every pair; a pair passes when the normal forms
    coincide. The rules are indexed and the step limit resolved once (a bad
    limit raises ValueError); normal forms are memoized across pairs."""
    limit = resolve_step_limit(step_limit)
    index = rule_indices(rules)
    cache: dict = {}
    failures = []

    def nf(v):
        w = cache.get(v)
        if w is None:
            w = cache[v] = normal_form(v, index, limit)
        return w

    for a, b in span_pairs:
        try:
            na, nb = nf(a), nf(b)
        except Exception as exc:  # step limit counts as failure, not a crash
            failures.append({"pair": [str(a), str(b)], "error": str(exc)})
            continue
        if na != nb:
            failures.append(
                {"pair": [str(a), str(b)], "normal_forms": [str(na), str(nb)]}
            )
    return len(span_pairs), failures


# ---------------------------------------------------------------------------
# obstruction detection


def _move_catalog(ideals: Sequence[StronglyStableIdeal]):
    """product exponents -> factor pairs, per unordered ideal index pair."""
    catalog: dict[tuple[int, int], dict[tuple, list[tuple[PresVar, PresVar]]]] = {}
    r = len(ideals)
    for i in range(1, r + 1):
        gi = ideals[i - 1].minimal_generators
        for j in range(i, r + 1):
            gj = ideals[j - 1].minimal_generators
            table: dict[tuple, list[tuple[PresVar, PresVar]]] = {}
            seen = set()
            for g in gi:
                for h in gj:
                    pair = tuple(
                        sorted((PresVar(i, g), PresVar(j, h)),
                               key=PresVar.sort_key)
                    )
                    if pair in seen:
                        continue
                    seen.add(pair)
                    table.setdefault((g * h).exps, []).append(pair)
            catalog[(i, j)] = table
    return catalog


def detect_obstructions(
    ideals: Sequence[StronglyStableIdeal],
    t_budget: Sequence[int],
    move_degree: int = 2,
) -> list[ObstructionWitness]:
    """Fibers of total t-degree >= 3 disconnected under all quadratic moves.

    The move set is every coincident-product swap of two factors (within one
    ideal or across two), not only marked basis elements: connectivity under
    the full quadric move set is the right criterion for degree-2 generation.
    """
    if move_degree != 2:
        raise ValueError("only degree-2 moves are implemented")
    if sum(t_budget) < 3:
        raise ValueError("t budget must allow total t-degree >= 3")
    catalog = _move_catalog(ideals)
    witnesses = []
    for mu, fiber in fibers_by_multidegree(ideals, t_budget):
        if mu.total_t < 3 or len(fiber) < 2:
            continue
        index = {v: i for i, v in enumerate(fiber)}
        adj: list[set[int]] = [set() for _ in fiber]
        for vi, v in enumerate(fiber):
            fcs = v.factors
            seen_pairs = set()
            for a in range(len(fcs)):
                for b in range(a + 1, len(fcs)):
                    pair = (fcs[a], fcs[b])
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    key = (fcs[a].ideal_index, fcs[b].ideal_index)
                    prod = (fcs[a].generator * fcs[b].generator).exps
                    for alt in catalog[key].get(prod, ()):
                        if alt == pair:
                            continue
                        rest = list(fcs)
                        rest.remove(pair[0])
                        rest.remove(pair[1])
                        w = PresMonomial(rest + list(alt))
                        adj[vi].add(index[w])
        comp = [-1] * len(fiber)
        comps: list[list[int]] = []
        for start in range(len(fiber)):
            if comp[start] >= 0:
                continue
            cid = len(comps)
            todo = [start]
            comp[start] = cid
            members = [start]
            while todo:
                x = todo.pop()
                for y in adj[x]:
                    if comp[y] < 0:
                        comp[y] = cid
                        todo.append(y)
                        members.append(y)
            comps.append(sorted(members))
        if len(comps) > 1:
            witnesses.append(
                ObstructionWitness(
                    mu,
                    tuple(
                        tuple(fiber[i] for i in members) for members in comps
                    ),
                )
            )
    return witnesses


# ---------------------------------------------------------------------------
# the parameter gate and the combined report


@dataclass(frozen=True)
class GateResult:
    verdict: str  # "possibly-koszul" | "known-obstructed"
    case: str | None  # "a" | "b" | "c" | None
    sorted_g: tuple[int, ...]
    sorted_d: tuple[int, ...]

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


@dataclass
class KoszulReport:
    ideals: dict
    t_budget: tuple[int, ...]
    gate: GateResult
    obstructions: list[ObstructionWitness]
    gb_report: VerificationReport | None
    verdict: str  # "g-quadratic-certified" | "obstructed" | "inconclusive"
    notes: list[str] = field(default_factory=list)

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
) -> list[MarkedBinomial] | None:
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
    jobs: int = 1,
    progress: Callable[[int], None] | None = None,
) -> KoszulReport:
    """Gate + obstruction scan + (where a basis exists) GB certification.

    The verdict is evidence, never a proof: "g-quadratic-certified" is always
    bound-qualified, "obstructed" is definitive (a cubic minimal kernel
    generator rules out quadratic defining equations and hence Koszulness).
    """
    g = [i.num_borel_generators for i in ideals]
    d = [i.degree for i in ideals]
    gate = parameter_gate(len(ideals), g, d)
    notes = []
    if sum(t_budget) >= 3:
        witnesses = detect_obstructions(ideals, t_budget)
    else:
        witnesses = []
        notes.append("t budget below 3: obstruction scan skipped")
    gb_report = None
    verdict = "inconclusive"
    if witnesses:
        verdict = "obstructed"
    else:
        rules = quadratic_basis_for(ideals)
        if rules is not None:
            gb_report = verify_gb(rules, ideals, t_budget, jobs=jobs,
                                  progress=progress)
            if gb_report.verdict == "certified-up-to-bound":
                verdict = "g-quadratic-certified"
            elif gb_report.verdict == "refuted":
                notes.append("constructed basis failed certification")
        else:
            notes.append("no constructive quadratic basis for this collection")
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
