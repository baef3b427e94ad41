"""Marked binomials, one-step reductions, and directed reduction graphs.

The engine is generic over the three monomial kinds (ambient Monomial,
PresMonomial, MixedMonomial): a rule applies to a vertex when its lead
divides the vertex, and the successor swaps the lead for the trail.

One core finds the rules that apply: rule_indices keys the quadratic
presentation leads by their factor pair and leaves every other rule to a
divisibility scan, and rewrites() lists a monomial's one-step reductions in
rule-list order from that index. fiber_edges builds every fiber graph of a
marking from it (reduction graphs here and the verifier's fiber analysis;
the obstruction scan needs no rules and does not use it), and has_cycle is
the one cycle detector on graphs. normal_form probes the same index for the
earliest applicable rule only, and with a memo it records every monomial on
its path with its normal form, so callers reducing many monomials under one
rule list walk each path once. Every rule keeps degree, so that
deterministic path stays among finitely many monomials: it either ends or
returns to a monomial it has visited, and normal_form detects the return
exactly (RewriteCycle) instead of guessing from a step budget. Graphs also
carry the longest-path invariant used to certify that a marked collection
rewrites Noetherianly.

rank_normal_form is the same loop on int tuples, for the kernel oracle: a
rule list compiled once by rank_rules writes x_i as atom i - 1 and the
presentation variable of rank k as atom n + k, so pure and mixed monomials
are sorted atom tuples and need no objects. Two-atom leads (quadrics,
syzygies x_i*T_u and lifted fiber leads alike) are keyed by their atom
pair; any other lead is found by multiset containment. It picks the rule
normal_form picks, keeps its memo semantics and raises its RewriteCycle
message, and normal_form stays as its object-level reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .monomial import Monomial
from .presentation import MixedMonomial, PresMonomial, PresVar


class RewriteCycle(RuntimeError):
    """Rewriting returned to a monomial on its own path, so it never ends."""


class GraphShapeError(ValueError):
    """An invariant required the graph to be acyclic with a unique sink."""


@dataclass(frozen=True)
class MarkedBinomial:
    """An ordered pair (lead, trail) of equal-image monomials; lead is marked.

    Lead and trail have equal degree, which keeps every rewrite path among
    finitely many monomials.
    """

    lead: Monomial | PresMonomial | MixedMonomial
    trail: Monomial | PresMonomial | MixedMonomial
    source: str = ""

    def __post_init__(self):
        if type(self.lead) is not type(self.trail):
            raise TypeError("lead and trail must be the same monomial kind")
        if self.lead == self.trail:
            raise ValueError("lead equals trail")
        if self.lead.degree != self.trail.degree:
            raise ValueError("lead and trail differ in degree")

    def label(self, r: int | None = None) -> str:
        return f"{self.lead.label(r)} -> {self.trail.label(r)}"

    def __str__(self) -> str:
        return self.label()


def lift_to_mixed(rules: Sequence[MarkedBinomial], n: int) -> list[MarkedBinomial]:
    """Embed pure presentation binomials into the mixed ring (x-part 1)."""
    one = Monomial.one(n)
    out = []
    for g in rules:
        if isinstance(g.lead, PresMonomial):
            out.append(
                MarkedBinomial(
                    MixedMonomial(one, g.lead),
                    MixedMonomial(one, g.trail),
                    g.source,
                )
            )
        else:
            out.append(g)
    return out


class RuleIndex(NamedTuple):
    """The leads of a rule list, indexed for finding applicable rules.

    Entries are (position in the list, rule), in list order. pair_index maps
    the canonical factor pair of each quadratic presentation lead to its
    rules, so the first entry is the earliest-listed rule with that lead;
    generic holds every other rule, found by a divisibility scan.
    """

    pair_index: dict[tuple[PresVar, PresVar], list[tuple[int, MarkedBinomial]]]
    generic: list[tuple[int, MarkedBinomial]]


def rule_indices(rules: Sequence[MarkedBinomial]) -> RuleIndex:
    """Split rules into a pair index over quadratic presentation leads and a
    generic remainder scanned by divisibility."""
    pair_index: dict = {}
    generic = []
    for pos, g in enumerate(rules):
        if isinstance(g.lead, PresMonomial) and g.lead.degree == 2:
            pair_index.setdefault(g.lead.factors, []).append((pos, g))
        else:
            generic.append((pos, g))
    return RuleIndex(pair_index, generic)


def applicable_reductions(v, rules: Sequence[MarkedBinomial]):
    """All one-step reductions of v: (successor, rule) per applicable rule,
    found by scanning the list in order; the reference for rewrites()."""
    out = []
    for g in rules:
        if g.lead.divides(v):
            out.append((v.quotient(g.lead) * g.trail, g))
    return out


def rewrites(v, index: RuleIndex, ordered: bool = True):
    """Every one-step reduction of v as (successor, rule), in list order.

    Probes the pair index with each distinct factor pair of v (equal factors
    sit next to each other in the canonical order) and scans the generic
    rules by divisibility; without ordered the hits come in probe order.
    """
    pair_index, generic = index
    hits = []
    if pair_index:
        fcs = v.factors
        for a in range(len(fcs) - 1):
            if a and fcs[a] == fcs[a - 1]:
                continue
            for b in range(a + 1, len(fcs)):
                if b > a + 1 and fcs[b] == fcs[b - 1]:
                    continue
                found = pair_index.get((fcs[a], fcs[b]))
                if found:
                    hits += found
    for pos, g in generic:
        if g.lead.divides(v):
            hits.append((pos, g))
    if ordered and len(hits) > 1:
        hits.sort(key=itemgetter(0))
    return [(v.quotient(g.lead) * g.trail, g) for _, g in hits]


def fiber_edges(fiber: Sequence, index: RuleIndex, collapse: bool = True):
    """The out-edges of every fiber member under the indexed rules.

    With collapse, each vertex gets its (target, rules) edges, one per target
    in ascending order with the rules in list order; without, just the set
    of targets. A successor outside the fiber raises ValueError.
    """
    position = {v: i for i, v in enumerate(fiber)}
    if len(position) != len(fiber):
        raise ValueError("duplicate vertices in fiber")
    edges = []
    for v in fiber:
        steps = []
        for succ, g in rewrites(v, index, ordered=collapse):
            j = position.get(succ)
            if j is None:
                raise ValueError(f"reduction left the fiber: {v} -> {succ}")
            steps.append((j, g))
        if not collapse:
            edges.append({j for j, _ in steps})
            continue
        rules: dict[int, list[MarkedBinomial]] = {}
        for j, g in steps:
            rules.setdefault(j, []).append(g)
        edges.append([(j, tuple(rules[j])) for j in sorted(rules)])
    return edges


def has_cycle(successors: Sequence[Iterable[int]]) -> bool:
    """Whether the directed graph given by successor indexes has a cycle
    (iterative depth-first search)."""
    color = [0] * len(successors)  # 0 white, 1 on stack, 2 done
    for root in range(len(successors)):
        if color[root]:
            continue
        stack = [(root, iter(successors[root]))]
        color[root] = 1
        while stack:
            node, children = stack[-1]
            for child in children:
                if color[child] == 1:
                    return True
                if color[child] == 0:
                    color[child] = 1
                    stack.append((child, iter(successors[child])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return False


@dataclass
class ReductionGraph:
    """Directed reduction graph on a set of monomial vertices.

    Edges with identical endpoints arising from distinct rules are collapsed
    into one edge carrying the full rule tuple. build_graph computes the
    sinks (out-degree zero) and the cycle flag once, at construction.
    """

    vertices: list
    index: dict = field(repr=False)
    edges: list[list[tuple[int, tuple[MarkedBinomial, ...]]]]
    sinks: list
    has_cycle: bool

    def num_edges(self) -> int:
        return sum(len(outs) for outs in self.edges)


def build_graph(
    rules: Sequence[MarkedBinomial],
    start=None,
    fiber: Sequence | None = None,
) -> ReductionGraph:
    """Reduction graph from a start vertex (closure) or a whole fiber.

    With `start`, vertices are everything reachable by one-step reductions,
    numbered in discovery order. With `fiber`, the vertex set is fixed. Both
    get every reduction edge from fiber_edges; when the rules preserve the
    toric image the two constructions agree on fibers, since reductions
    cannot leave the fiber.
    """
    if (start is None) == (fiber is None):
        raise ValueError("give exactly one of start or fiber")
    index = rule_indices(rules)
    if start is not None:
        fiber, todo = [start], [start]
        seen = {start}
        while todo:
            for succ, _ in rewrites(todo.pop(), index):
                if succ not in seen:
                    seen.add(succ)
                    fiber.append(succ)
                    todo.append(succ)
    vertices = list(fiber)
    edges = fiber_edges(vertices, index)
    return ReductionGraph(
        vertices=vertices,
        index={v: i for i, v in enumerate(vertices)},
        edges=edges,
        sinks=[v for v, outs in zip(vertices, edges) if not outs],
        has_cycle=has_cycle([[j for j, _ in outs] for outs in edges]),
    )


def ell_max(graph: ReductionGraph, v) -> int:
    """Longest directed path length from v to the unique sink.

    Memoized longest-path on the DAG; every maximal path ends at the sink, so
    this equals the longest path out of v.
    """
    if graph.has_cycle:
        raise GraphShapeError("longest path undefined on a cyclic graph")
    if len(graph.sinks) != 1:
        raise GraphShapeError(f"need a unique sink, found {len(graph.sinks)}")
    memo: dict[int, int] = {}
    root = graph.index[v]
    stack = [(root, False)]
    while stack:
        i, expanded = stack.pop()
        if not expanded and i in memo:
            continue
        succ = [j for j, _ in graph.edges[i]]
        if expanded:
            memo[i] = 1 + max(memo[j] for j in succ) if succ else 0
        else:
            stack.append((i, True))
            stack.extend((j, False) for j in succ if j not in memo)
    return memo[root]


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


def normal_form(v, rules: Sequence[MarkedBinomial] | RuleIndex,
                memo: dict | None = None):
    """Rewrite v by the earliest-listed applicable rule until none applies.

    rules is a rule list or its rule_indices(); callers reducing many
    monomials build the index once. Each step probes the index with the
    factor pairs of the current monomial and scans only the generic rules
    listed before the best hit, so the rule applied, and the whole rewrite
    path, is the one a scan of the list in order would pick. When the
    collection is a verified Groebner basis the result is the unique sink
    regardless of rule order.

    The path is kept in visit order; a rewrite back onto it raises
    RewriteCycle naming the monomial that recurs and the cycle's length.
    Rules keep degree, so every path ends or cycles.

    memo, when given, maps monomials to their normal forms and is valid for
    one rule list only. The path stops at the first monomial that is
    irreducible or already in memo, and every monomial on it is then
    recorded; a cycling path records nothing.
    """
    pair_index, generic = (
        rules if isinstance(rules, RuleIndex) else rule_indices(rules)
    )
    path: dict = {}
    current = v
    while True:
        if memo is not None:
            nf = memo.get(current)
            if nf is not None:
                break
        g = _earliest_applicable(current, pair_index, generic)
        if g is None:
            nf = current
            break
        path[current] = len(path)
        current = current.quotient(g.lead) * g.trail
        if current in path:
            raise RewriteCycle(
                f"rewriting cycles: {current} recurs after "
                f"{len(path) - path[current]} steps"
            )
    if memo is not None:
        memo.update(dict.fromkeys(path, nf))
        memo[current] = nf
    return nf


def _earliest_applicable(v, pair_index, generic):
    """The earliest-listed rule whose lead divides v, or None."""
    best, rule = math.inf, None
    if pair_index:
        fcs = v.factors
        for a in range(len(fcs) - 1):
            for b in range(a + 1, len(fcs)):
                hits = pair_index.get((fcs[a], fcs[b]))
                if hits and hits[0][0] < best:
                    best, rule = hits[0]
    for pos, g in generic:
        if pos > best:
            break
        if g.lead.divides(v):
            return g
    return rule


class RankRules(NamedTuple):
    """A rule list compiled onto a collection's atom alphabet.

    x_i is atom i - 1 and the presentation variable of rank k (its position
    in presentation_variables) is atom n + k, so pure and mixed monomials
    are both sorted int tuples. pairs maps each two-atom lead to the
    (position, lead, trail) of the earliest-listed rule with that lead;
    others holds (position, lead, trail) of every other rule, in list order.
    """

    n: int
    atoms: dict[PresVar, int]
    variables: tuple[PresVar, ...]
    pairs: dict[tuple[int, int], tuple[int, tuple[int, ...], tuple[int, ...]]]
    others: list[tuple[int, tuple[int, ...], tuple[int, ...]]]

    def encode(self, v: PresMonomial | MixedMonomial) -> tuple[int, ...]:
        """The sorted atom tuple of a pure or mixed presentation monomial."""
        xs: list[int] = []
        if isinstance(v, MixedMonomial):
            xs = [i for i, e in enumerate(v.x_part.exps) for _ in range(e)]
            v = v.t_part
        try:
            return tuple(xs + [self.atoms[f] for f in v.factors])
        except KeyError as exc:
            raise ValueError(
                f"{exc.args[0]} is not a variable of this collection"
            ) from None

    def label(self, atoms: Sequence[int]) -> str:
        """The label str() gives the monomial the atoms encode."""
        exps = [0] * self.n
        ts = []
        for a in atoms:
            if a < self.n:
                exps[a] += 1
            else:
                ts.append(self.variables[a - self.n])
        return MixedMonomial(
            Monomial(exps), PresMonomial.from_sorted(tuple(ts))
        ).label()


def rank_rules(
    rules: Sequence[MarkedBinomial], variables: Sequence[PresVar], n: int
) -> RankRules:
    """Compile a pure or mixed rule list onto the atoms of a collection with
    n ambient variables and presentation_variables `variables`."""
    compiled = RankRules(
        n, {v: n + k for k, v in enumerate(variables)}, tuple(variables),
        {}, [],
    )
    for pos, g in enumerate(rules):
        lead, trail = compiled.encode(g.lead), compiled.encode(g.trail)
        if len(lead) == 2:
            compiled.pairs.setdefault(lead, (pos, lead, trail))
        else:
            compiled.others.append((pos, lead, trail))
    return compiled


def rank_normal_form(v: tuple[int, ...], rules: RankRules,
                     memo: dict | None = None) -> tuple[int, ...]:
    """normal_form on atom tuples: the same rule at every step, the same memo
    semantics and the same RewriteCycle message.

    Each step probes pairs with every factor pair of the current monomial and
    scans by multiset containment only the other rules listed before the
    best hit.
    """
    pairs, others = rules.pairs, rules.others
    path: dict = {}
    current = v
    while True:
        if memo is not None:
            nf = memo.get(current)
            if nf is not None:
                break
        best, lead, trail = math.inf, None, None
        if pairs:
            last = len(current) - 1
            for i in range(last):
                a = current[i]
                for j in range(i + 1, last + 1):
                    hit = pairs.get((a, current[j]))
                    if hit is not None and hit[0] < best:
                        best, lead, trail = hit
        for pos, other_lead, other_trail in others:
            if pos > best:
                break
            if all(current.count(a) >= other_lead.count(a)
                   for a in other_lead):
                lead, trail = other_lead, other_trail
                break
        if lead is None:
            nf = current
            break
        path[current] = len(path)
        rest = list(current)
        for a in lead:
            rest.remove(a)
        rest += trail
        rest.sort()
        current = tuple(rest)
        if current in path:
            raise RewriteCycle(
                f"rewriting cycles: {rules.label(current)} recurs after "
                f"{len(path) - path[current]} steps"
            )
    if memo is not None:
        memo.update(dict.fromkeys(path, nf))
        memo[current] = nf
    return nf


def to_dot(
    graph: ReductionGraph,
    name: str = "fiber",
    r: int | None = None,
) -> str:
    """Graphviz DOT text: sink highlighted, edges labeled with their rules."""
    lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
    for i, v in enumerate(graph.vertices):
        sink = ' style=filled fillcolor="lightblue"' if not graph.edges[i] else ""
        lines.append(f'  v{i} [label="{v.label(r)}"{sink}];')
    for i, outs in enumerate(graph.edges):
        for j, rules in outs:
            rule_text = "; ".join(g.label(r=r) for g in rules)
            lines.append(f'  v{i} -> v{j} [label="{rule_text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
