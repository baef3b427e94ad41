"""Reduction graphs of marked binomials, sinks, and cycles.

A marked binomial rewrites any monomial its lead divides. The directed graph
of all such one-step moves out of a monomial (or on a whole toric fiber)
decides whether the marking can come from a term order: unique sink plus
acyclicity is the certificate, two sinks or a cycle the refutation.
"""

from borel_rees import (
    MarkedBinomial,
    MultiDegree,
    borel_closure,
    build_G1,
    build_graph,
    ell_max,
    enumerate_fiber,
    parse_monomial,
    to_dot,
)


def binomials(n, *pairs):
    return [
        MarkedBinomial(parse_monomial(a, n), parse_monomial(b, n))
        for a, b in pairs
    ]


# A marking that cannot be coherent: x1*x2*x3 rewrites to two different
# irreducible monomials, so division would have two remainders.
bad = binomials(3, ("x1*x3", "x2^2"), ("x1*x2", "x3^2"))
graph = build_graph(bad, start=parse_monomial("x1*x2*x3", 3))
print("sinks:", [str(s) for s in graph.sinks], "cycle:", graph.has_cycle)

# A cycling marking (2x2 minors of a 2x3 matrix, marked diagonally): no
# rewrite ever terminates.
minors = binomials(
    6, ("x1*x5", "x2*x4"), ("x2*x6", "x3*x5"), ("x3*x4", "x1*x6")
)
graph = build_graph(minors, start=parse_monomial("x1*x3*x5*x6", 6))
print("sinks:", graph.sinks, "cycle:", graph.has_cycle)

# A well-behaved marking: unique sink, and the longest-path invariant
# strictly drops along every edge, which is exactly why rewriting stops.
good = binomials(5, ("x1*x4", "x2*x5"), ("x2*x3", "x4^2"))
start = parse_monomial("x1*x2*x3*x4", 5)
graph = build_graph(good, start=start)
print("sink:", [str(s) for s in graph.sinks], "ell_max(start):",
      ell_max(graph, start))

# The same machinery on a toric fiber: all presentation monomials with a
# common image, edges given by the rlex-marked quadratic collection.
ideal = borel_closure([parse_monomial("x3^2", 5),
                       parse_monomial("x2*x5", 5)], 5)
rules = build_G1(ideal)
mu = MultiDegree(parse_monomial("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
fiber = enumerate_fiber(mu, [ideal])
graph = build_graph(rules, fiber=fiber)
print(f"\nfiber of {mu.display()}: {len(fiber)} vertices,",
      f"{graph.num_edges()} edges")
print("unique sink:", graph.sinks[0].label(1))

# Graphviz output for the picture-inclined.
print("\n" + to_dot(graph, name=mu.display(), r=1)[:400] + "...")
