"""Marked binomials, one-step reductions, and directed reduction graphs.

A rule applies to a monomial when its lead divides it, and the successor
swaps the lead for the trail. Rules and monomials of all three kinds
(ambient Monomial, PresMonomial, MixedMonomial) are rewritten by one core,
on sorted int tuples over the atoms of a presentation.Alphabet, where the
presentation variable of rank k is atom k and x_i is atom size + i - 1
(size presentation variables), so a rank tuple is already an atom tuple;
the alphabet (RankRules.alphabet) encodes and decodes monomials. The core
reads a rule list as a RankRules: one int row (lead atoms, trail atoms,
source) per rule, in list order. The orders builders return those rows
for every basis, fiber-type included, written straight from variable
atoms, and rank_rules compiles any other list (hand-made rules) once,
returning a table already on the alphabet as it is. Every lead is two
atoms (a T-quadric, a syzygy x_i*T_u, a fiber lead with x-part 1 or an
ambient quadric), so the one rule index is a two-level lead table probed
as leads[a][b], with no pair tuple built: leads[a] is None for an atom
that starts no lead, and leads[a][b] lists every rule with lead (a, b),
in list order, so leads[a][b][0] is the earliest of them. A lead of any
other size is refused when the list is compiled. A table is also a
read-only sequence of its MarkedBinomial rules: the compiled list
itself, or a builder's rows decoded once, on first use.

On that core, rank_rewrites lists every one-step reduction of an atom tuple
in rule-list order, fiber_edges builds every fiber graph from it as
collapsed (target, rule positions) edges (build_graph's reduction graphs
for the paper cases, the fiber-graph command and the demos, and the
tests' graph oracle), and has_cycle is the one cycle detector on graphs.
rank_normal_forms, the one normal-form routine on atoms, reduces a fiber
at a time: each member follows the earliest-listed applicable rule only
(the earliest first entry of the lead lists at its atom pairs), and one
memo per fiber records every monomial on a path with its normal form, so
the members of a fiber walk each shared path once.
Every rule keeps degree, so that deterministic path stays among finitely
many monomials: it either ends or returns to a monomial it has visited,
which makes the member's value a RewriteCycle exactly instead of a guess
from a step budget. A rule whose sides have equal images keeps every path
inside its fiber, so for such rules the per-fiber memo loses nothing; for
any other rule list it is only a cache. Graphs also carry the
longest-path invariant used to certify that a marked collection rewrites
Noetherianly. The paper's o-invariant, which drops along the fiber-type
rewrites together with that longest path, is a test reference
(tests/reference.py).

applicable_reductions and normal_form are the object-level references: they
scan the rule list in order with each lead's divides, on the monomials
themselves, and take a lead of any size; a lead of another kind than the
monomial raises TypeError. rule_indices splits a rule list into quadratic
presentation leads keyed by their factor pair and the rest, which is what
the term-order certificate reads its lead pairs from.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations
from operator import itemgetter

from .monomial import Monomial
from .presentation import (
    Alphabet,
    MixedMonomial,
    PresMonomial,
    PresVar,
)
from .records import Frozen, Record


class RewriteCycle(RuntimeError):
    """Rewriting returned to a monomial on its own path, so it never ends."""

    @classmethod
    def recurring(cls, label: str, steps: int) -> "RewriteCycle":
        """The error of a path that returns to the monomial with this label
        after this many steps."""
        return cls(f"rewriting cycles: {label} recurs after {steps} steps")


class GraphShapeError(ValueError):
    """An invariant required the graph to be acyclic with a unique sink."""


class MarkedBinomial(Frozen):
    """An ordered pair (lead, trail) of equal-image monomials; lead is marked.

    Lead and trail are of one monomial kind, differ, and have equal degree,
    which keeps every rewrite path among finitely many monomials. A Frozen
    on (lead, trail, source), so a pickle rebuilds a rule through the
    checking constructor. A collection builds hundreds of rules, so the
    fields are slots written by their own setters.
    """

    __slots__ = ("lead", "trail", "source")
    _fields = __slots__

    def __init__(
        self,
        lead: Monomial | PresMonomial | MixedMonomial,
        trail: Monomial | PresMonomial | MixedMonomial,
        source: str = "",
    ):
        if type(lead) is not type(trail):
            raise TypeError("lead and trail must be the same monomial kind")
        if lead == trail:
            raise ValueError("lead equals trail")
        if lead.degree != trail.degree:
            raise ValueError("lead and trail differ in degree")
        _set_lead(self, lead)
        _set_trail(self, trail)
        _set_source(self, source)

    def label(self, r: int | None = None) -> str:
        return f"{self.lead.label(r)} -> {self.trail.label(r)}"

    def __str__(self) -> str:
        return self.label()


_new = object.__new__
_set_lead = MarkedBinomial.lead.__set__
_set_trail = MarkedBinomial.trail.__set__
_set_source = MarkedBinomial.source.__set__


def rule_indices(rules: Sequence[MarkedBinomial]):
    """(pair_index, generic): the rules split by their leads, each entry a
    (list position, rule), in list order. pair_index maps the canonical
    factor pair of each quadratic PresMonomial lead to its rules; generic
    holds every other rule, mixed and ambient leads included."""
    pair_index: dict = {}
    generic = []
    for pos, g in enumerate(rules):
        lead = g.lead
        if type(lead) is PresMonomial and len(lead.factors) == 2:
            pair_index.setdefault(lead.factors, []).append((pos, g))
        else:
            generic.append((pos, g))
    return pair_index, generic


def applicable_reductions(v, rules: Sequence[MarkedBinomial]):
    """All one-step reductions of v: (successor, rule) per applicable rule,
    found by scanning the list in order; the reference for rank_rewrites."""
    out = []
    for g in rules:
        if g.lead.divides(v):
            out.append((v.quotient(g.lead) * g.trail, g))
    return out


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


class ReductionGraph(Record):
    """Directed reduction graph on a set of monomial vertices.

    Edges with identical endpoints arising from distinct rules are collapsed
    into one edge carrying the full rule tuple. build_graph computes the
    sinks (out-degree zero) and the cycle flag once, at construction.
    """

    _fields = ("vertices", "index", "edges", "sinks", "has_cycle")
    _hidden = ("index",)

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
    get every reduction edge from fiber_edges, on atom tuples over the
    variables of the rules and the given monomials; vertices are decoded back
    to the given monomial kind. When the rules preserve the toric image the
    two constructions agree on fibers, since reductions cannot leave the
    fiber. A rule whose lead is not two atoms raises ValueError
    (rank_rules) before any vertex is grown.
    """
    if (start is None) == (fiber is None):
        raise ValueError("give exactly one of start or fiber")
    given = [start] if start is not None else list(fiber)
    compiled = _graph_rules(rules, given)
    alphabet = compiled.alphabet
    atoms = [alphabet.encode(v) for v in given]
    vertices = list(given)
    if start is not None:
        seen, todo = set(atoms), list(atoms)
        while todo:
            for succ, _ in rank_rewrites(todo.pop(), compiled):
                if succ not in seen:
                    seen.add(succ)
                    atoms.append(succ)
                    todo.append(succ)
                    vertices.append(alphabet.decode(succ, type(start)))
    edges = [
        [(j, tuple(rules[p] for p in positions)) for j, positions in outs]
        for outs in fiber_edges(atoms, compiled)
    ]
    return ReductionGraph(
        vertices=vertices,
        index={v: i for i, v in enumerate(vertices)},
        edges=edges,
        sinks=[v for v, outs in zip(vertices, edges) if not outs],
        has_cycle=has_cycle([[j for j, _ in outs] for outs in edges]),
    )


def _graph_rules(rules: Sequence[MarkedBinomial], monomials) -> "RankRules":
    """rank_rules on the Alphabet of every presentation variable and the
    ambient variable count of the rules and the monomials: the alphabet of
    one graph."""
    variables: set[PresVar] = set()
    n = 0
    for v in [m for g in rules for m in (g.lead, g.trail)] + list(monomials):
        if isinstance(v, Monomial):
            n = v.n
        elif isinstance(v, MixedMonomial):
            n = v.x_part.n
            variables.update(v.t_part.factors)
        else:
            variables.update(v.factors)
    return rank_rules(
        rules, Alphabet(sorted(variables, key=PresVar.sort_key), n))


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


def normal_form(v, rules: Sequence[MarkedBinomial], memo: dict | None = None):
    """Rewrite v by the earliest-listed applicable rule until none applies:
    the object-level reference for rank_normal_forms, scanning the list in
    order. When the collection is a verified Groebner basis the result is
    the unique sink regardless of rule order.

    The path is kept in visit order; a rewrite back onto it raises
    RewriteCycle naming the monomial that recurs and the cycle's length.
    Rules keep degree, so every path ends or cycles.

    memo, when given, maps monomials to their normal forms and is valid for
    one rule list only. The path stops at the first monomial that is
    irreducible or already in memo, and every monomial on it is then
    recorded; a cycling path records nothing.
    """
    path: dict = {}
    current = v
    while True:
        if memo is not None:
            nf = memo.get(current)
            if nf is not None:
                break
        for rule in rules:
            if rule.lead.divides(current):
                break
        else:
            nf = current
            break
        path[current] = len(path)
        current = current.quotient(rule.lead) * rule.trail
        if current in path:
            raise RewriteCycle.recurring(
                str(current), len(path) - path[current])
    if memo is not None:
        memo.update(dict.fromkeys(path, nf))
        memo[current] = nf
    return nf


class RankRules(Sequence):
    """A rule list on the atoms of an alphabet (presentation.Alphabet): the
    rewriting core's one form of a rule list, and a read-only sequence of
    its MarkedBinomial rules.

    rows lists each rule as (lead atoms, trail atoms, source), in list
    order, every lead two atoms. The orders builders write rows straight
    from their variable atoms, and rank_rules compiles an object list into
    rows, keeping the list. kinds is the set of the leads' monomial kinds,
    set by the code that writes the rows: PresMonomial for a quadric
    builder's table and MixedMonomial for a fiber-type one, even with no
    row, and the kinds of the listed leads for a compiled list. order, the
    orders.PresOrder the rows were marked by, is set by their builder too
    (the fiber basis's for a fiber-type table); a hand-made list and the
    syzygies alone have None. len counts
    the rows; iteration, indexing and slicing read the rules: the compiled
    list itself, or for a table of rows alone (a builder's) its rows
    decoded once, on first use, one monomial per distinct atom tuple
    (PresMonomial quadrics straight off the variables, MixedMonomials
    through alphabet.decode) and with no constructor check, which the
    builder's rows meet by construction. A table equals any sequence of
    the same rules in order; list(table) is a list of them that can be
    changed.

    leads is the lead table, the one rule index, built on first use from
    rows: leads[a] is None for an atom a that starts no lead, and otherwise
    a row over every atom, where leads[a][b], a <= b, is None or lists the
    (position, lead, trail) of every rule with lead (a, b), in list order,
    so leads[a][b][0] is the earliest of them. It is probed with no pair
    tuple built, and holds a row only for each atom that starts a lead.
    """

    __slots__ = ("alphabet", "rows", "kinds", "order", "_rules", "_leads")

    def __init__(self, alphabet: Alphabet,
                 rows: list[tuple[tuple[int, ...], tuple[int, ...], str]],
                 kinds: frozenset[type],
                 rules: list[MarkedBinomial] | None = None,
                 order=None):
        self.alphabet = alphabet
        self.rows = rows
        self.kinds = kinds
        self.order = order
        self._rules = rules
        self._leads = None

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self._listed()[index]

    def __iter__(self):
        return iter(self._listed())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._listed() == list(other)

    @property
    def leads(self) -> list:
        leads = self._leads
        if leads is None:
            size = len(self.alphabet.variables) + self.alphabet.n
            leads = self._leads = [None] * size
            for pos, (lead, trail, _) in enumerate(self.rows):
                a, b = lead
                row = leads[a]
                if row is None:
                    row = leads[a] = [None] * size
                listed = row[b]
                if listed is None:
                    row[b] = [(pos, lead, trail)]
                else:
                    listed.append((pos, lead, trail))
        return leads

    def _listed(self) -> list[MarkedBinomial]:
        """The rules: the compiled list, or the rows decoded once, one
        monomial per atom tuple."""
        rules = self._rules
        if rules is not None:
            return rules
        if MixedMonomial in self.kinds:
            monomial = self.alphabet.decode
        else:
            variables = self.alphabet.variables
            from_sorted = PresMonomial.from_sorted

            def monomial(atoms):
                return from_sorted((variables[atoms[0]], variables[atoms[1]]))
        decoded: dict = {}
        known = decoded.get
        rules = self._rules = []
        for lead, trail, source in self.rows:
            u = known(lead)
            if u is None:
                u = decoded[lead] = monomial(lead)
            v = known(trail)
            if v is None:
                v = decoded[trail] = monomial(trail)
            rules.append(_unchecked_rule(u, v, source))
        return rules


def _unchecked_rule(lead, trail, source: str) -> MarkedBinomial:
    """A rule past MarkedBinomial.__init__, whose checks (one kind, one
    degree, lead != trail) a builder's rows meet by construction."""
    g = _new(MarkedBinomial)
    _set_lead(g, lead)
    _set_trail(g, trail)
    _set_source(g, source)
    return g


def rank_rules(rules: Sequence[MarkedBinomial],
               alphabet: Alphabet) -> RankRules:
    """A rule list on the atoms of an alphabet.

    A RankRules already on an alphabet of the same variables and n is
    returned as it is, so every builder's table is; one on another
    alphabet is compiled from its rules, keeping its order. Any other list
    (a hand-made one) gets no order. Compiling encodes each rule's lead and
    trail (Alphabet.encode, which refuses a variable outside the alphabet
    with ValueError). A rule whose lead is not two atoms raises ValueError
    naming the rule and its lead's atom count.
    """
    order = None
    if isinstance(rules, RankRules):
        given, order = rules.alphabet, rules.order
        if given is alphabet or (given.variables == alphabet.variables
                                 and given.n == alphabet.n):
            return rules
    encode = alphabet.encode
    rows = []
    for g in rules:
        lead, trail = encode(g.lead), encode(g.trail)
        if len(lead) != 2:
            raise ValueError(
                f"rule {g.label()}: lead atom count {len(lead)}; the "
                f"rewriting core takes two-atom leads only")
        rows.append((lead, trail, g.source))
    return RankRules(alphabet, rows,
                     frozenset([type(g.lead) for g in rules]), list(rules),
                     order)


def _apply(v: tuple[int, ...], lead: tuple[int, ...],
           trail: tuple[int, ...]) -> tuple[int, ...]:
    """v with lead replaced by trail, sorted."""
    rest = list(v)
    for a in lead:
        rest.remove(a)
    rest += trail
    rest.sort()
    return tuple(rest)


def rank_rewrites(v: tuple[int, ...],
                  rules: RankRules) -> list[tuple[tuple[int, ...], int]]:
    """Every one-step reduction of a sorted atom tuple as (successor, rule
    position), in rule-list order.

    Reads the lead table at each distinct atom pair of v, once each: a
    repeated atom starts one row probe, and each row is probed once per
    distinct later atom.
    """
    hits = []
    leads = rules.leads
    last = None
    for i, a in enumerate(v):
        if a == last:
            continue
        last = a
        row = leads[a]
        if row is None:
            continue
        seen = None
        for b in v[i + 1:]:
            if b == seen:
                continue
            seen = b
            found = row[b]
            if found:
                hits += [(pos, _apply(v, lead, trail))
                         for pos, lead, trail in found]
    if len(hits) > 1:
        hits.sort(key=itemgetter(0))
    return [(succ, pos) for pos, succ in hits]


def fiber_edges(fiber: Sequence[tuple[int, ...]], rules: RankRules):
    """The out-edges of every member of a fiber of atom tuples: each vertex
    gets its (target, rule positions) edges, one per target in ascending
    order with the positions in list order. A successor outside the fiber
    raises ValueError.
    """
    position = {v: i for i, v in enumerate(fiber)}
    if len(position) != len(fiber):
        raise ValueError("duplicate vertices in fiber")
    edges = []
    for v in fiber:
        rewrites = rank_rewrites(v, rules)
        try:
            targets = [position[succ] for succ, _ in rewrites]
        except KeyError as exc:
            label = rules.alphabet.label
            raise ValueError(
                f"reduction left the fiber: {label(v)} -> "
                f"{label(exc.args[0])}"
            ) from None
        positions: dict[int, list[int]] = {}
        for j, (_, pos) in zip(targets, rewrites):
            positions.setdefault(j, []).append(pos)
        edges.append([(j, tuple(positions[j])) for j in sorted(positions)])
    return edges


def rank_normal_forms(fiber: Sequence[tuple[int, ...]],
                      rules: RankRules) -> list:
    """The normal form of every member of a fiber of atom tuples, in fiber
    order: each member rewritten by the earliest-listed applicable rule
    until none applies, as normal_form does on objects. A member whose path
    cycles gets its RewriteCycle, with normal_form's message, as its value.

    One memo, local to the call, maps every monomial on a path that ends to
    its normal form, so members whose paths meet walk the rest once; a
    cycling path records nothing. Each step reads the earliest rule of
    every atom pair (a, b) off the lead table, the first entry of
    leads[a][b], and follows the earliest listed of them.
    """
    memo: dict = {}
    known = memo.get
    leads = rules.leads
    forms = []
    for current in fiber:
        path: list = []
        while True:
            nf = known(current)
            if nf is not None:
                break
            best = None
            for a, b in combinations(current, 2):
                row = leads[a]
                if row is not None:
                    listed = row[b]
                    if listed is not None:
                        first = listed[0]
                        if best is None or first[0] < best[0]:
                            best = first
            if best is None:
                nf = current
                break
            path.append(current)
            # _apply on a two-atom lead, inline: this is the hot loop
            _, (a, b), trail = best
            rest = list(current)
            rest.remove(a)
            rest.remove(b)
            rest += trail
            rest.sort()
            current = tuple(rest)
            if current in path:
                nf = RewriteCycle.recurring(rules.alphabet.label(current),
                                            len(path) - path.index(current))
                break
        if type(nf) is tuple:  # a cycling path records nothing
            for u in path:
                memo[u] = nf
            memo[current] = nf
        forms.append(nf)
    return forms


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
