"""Named end-to-end reproduction targets for the bundled worked examples.

Each case builds its inputs, runs the relevant pipeline, and returns a
JSON-able result carrying its own structural checks. Default-parameter runs
are diffed against the expectations checked in under data/.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from .borel import borel_closure, order_view
from .monomial import Monomial, parse_monomial
from .orders import PresOrder, build_head_and_tail_basis, build_G1
from .presentation import MultiDegree, enumerate_fiber
from .reduction import MarkedBinomial, ReductionGraph, build_graph, ell_max
from .verifier import detect_obstructions

NOT_COHERENT = "not coherently markable as GB"
COHERENT = "consistent with a coherent GB marking"


def _graph_dict(graph: ReductionGraph, r: int | None = None) -> dict:
    edges = sorted(
        (graph.vertices[i].label(r), graph.vertices[j].label(r),
         "; ".join(g.label(r=r) for g in rules))
        for i, outs in enumerate(graph.edges)
        for j, rules in outs
    )
    return {
        "vertices": sorted(v.label(r) for v in graph.vertices),
        "edges": [list(e) for e in edges],
        "sinks": sorted(s.label(r) for s in graph.sinks),
        "has_cycle": graph.has_cycle,
        "verdict": COHERENT
        if (not graph.has_cycle and len(graph.sinks) == 1)
        else NOT_COHERENT,
    }


def _plain_rules(n: int, pairs: list[tuple[str, str]]) -> list[MarkedBinomial]:
    return [
        MarkedBinomial(parse_monomial(a, n), parse_monomial(b, n))
        for a, b in pairs
    ]


def case_ex2_2(_params: dict) -> dict:
    rules = _plain_rules(3, [("x1*x3", "x2^2"), ("x1*x2", "x3^2")])
    graph = build_graph(rules, start=parse_monomial("x1*x2*x3", 3))
    out = _graph_dict(graph)
    out["checks"] = {
        "three_vertices": len(graph.vertices) == 3,
        "two_sinks": len(graph.sinks) == 2,
        "acyclic": not graph.has_cycle,
        "not_coherent": out["verdict"] == NOT_COHERENT,
    }
    return out


def case_ex2_3(_params: dict) -> dict:
    start = parse_monomial("x1*x2*x3*x4", 5)
    rules = _plain_rules(5, [("x1*x4", "x2*x5"), ("x2*x3", "x4^2")])
    graph = build_graph(rules, start=start)
    out = _graph_dict(graph)
    out["ell_max_start"] = ell_max(graph, start)
    out["checks"] = {
        "four_vertices": len(graph.vertices) == 4,
        "unique_sink": out["sinks"] == ["x2*x4^2*x5"],
        "acyclic": not graph.has_cycle,
        "longest_path_two": out["ell_max_start"] == 2,
    }
    return out


def case_ex2_4(_params: dict) -> dict:
    rules = _plain_rules(
        6, [("x1*x5", "x2*x4"), ("x2*x6", "x3*x5"), ("x3*x4", "x1*x6")]
    )
    graph = build_graph(rules, start=parse_monomial("x1*x3*x5*x6", 6))
    out = _graph_dict(graph)
    out["checks"] = {
        "four_vertices": len(graph.vertices) == 4,
        "no_sinks": not graph.sinks,
        "cycles": graph.has_cycle,
        "not_coherent": out["verdict"] == NOT_COHERENT,
    }
    return out


def _quadric_pair_ideal():
    return borel_closure(
        [parse_monomial("x3^2", 5), parse_monomial("x2*x5", 5)], 5
    )


# Edges appearing in the reference diagrams for the two fiber-graph cases;
# the faithful graphs carry a handful more (every one-step reduction is an
# edge), asserted in the tests.
FIG1_DRAWN_EDGES = [
    ("T23^2*T14*T15", "T13*T23*T24*T15"),
    ("T23^2*T14*T15", "T22*T33*T14*T15"),
    ("T23^2*T14*T15", "T13*T23*T14*T25"),
    ("T13*T23*T24*T15", "T12*T33*T24*T15"),
    ("T13*T23*T24*T15", "T13*T23*T14*T25"),
    ("T22*T33*T14*T15", "T12*T33*T24*T15"),
    ("T22*T33*T14*T15", "T12*T33*T14*T25"),
    ("T13*T23*T14*T25", "T12*T33*T14*T25"),
    ("T13*T23*T14*T25", "T13^2*T24*T25"),
    ("T12*T33*T24*T15", "T11*T33*T24*T25"),
    ("T12*T33*T14*T25", "T11*T33*T24*T25"),
    ("T13^2*T24*T25", "T11*T33*T24*T25"),
]

FIG4_DRAWN_EDGES = [
    ("T44*T26*Z35", "T44*T25*Z36", "T26*Z35 -> T25*Z36"),
    ("T44*T26*Z35", "T35*T26*Z44", "T44*Z35 -> T35*Z44"),
    ("T44*T25*Z36", "T24*T45*Z36", "T44*T25 -> T24*T45"),
    ("T44*T35*Z26", "T44*T25*Z36", "T35*Z26 -> T25*Z36"),
    ("T44*T35*Z26", "T34*T45*Z26", "T44*T35 -> T34*T45"),
    ("T24*T45*Z36", "T45*T26*Z34", "T24*Z36 -> T26*Z34"),
    ("T34*T45*Z26", "T45*T26*Z34", "T34*Z26 -> T26*Z34"),
    ("T45*T26*Z34", "T35*T26*Z44", "T45*Z34 -> T35*Z44"),
]


def case_fig1(_params: dict) -> dict:
    ideal = _quadric_pair_ideal()
    rules = build_G1(ideal)
    mu = MultiDegree(parse_monomial("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
    fiber = enumerate_fiber(mu, [ideal])
    graph = build_graph(rules, fiber=fiber)
    out = _graph_dict(graph, r=1)
    edge_pairs = {(a, b) for a, b, _ in out["edges"]}
    out["multidegree"] = mu.display()
    out["checks"] = {
        "eight_vertices": len(fiber) == 8,
        "unique_sink": out["sinks"] == ["T11*T33*T24*T25"],
        "acyclic": not graph.has_cycle,
        "drawn_edges_present": all(e in edge_pairs for e in FIG1_DRAWN_EDGES),
    }
    return out


def _running_pair():
    i1 = borel_closure(
        [parse_monomial("x4*x5", 6), parse_monomial("x2*x6", 6)], 6
    )
    i2 = borel_closure(
        [parse_monomial("x4^2", 6), parse_monomial("x3*x6", 6)], 6
    )
    return i1, i2


def case_fig4(_params: dict) -> dict:
    i1, i2 = _running_pair()
    rules = build_head_and_tail_basis(order_view(i1), order_view(i2))
    mu = MultiDegree(parse_monomial("x2*x3*x4^2*x5*x6", 6).exps, (2, 1))
    fiber = enumerate_fiber(mu, [i1, i2])
    graph = build_graph(rules, fiber=fiber)
    out = _graph_dict(graph, r=2)
    labeled = {(a, b, lab) for a, b, lab in (tuple(e) for e in out["edges"])}
    out["multidegree"] = mu.display()
    out["checks"] = {
        "seven_vertices": len(fiber) == 7,
        "unique_sink": out["sinks"] == ["T35*T26*Z44"],
        "acyclic": not graph.has_cycle,
        "drawn_edges_present": all(e in labeled for e in FIG4_DRAWN_EDGES),
    }
    return out


def case_fig2(_params: dict) -> dict:
    order = PresOrder.rlex(_quadric_pair_ideal())
    chain = [str(p.generator) for p in order.ranked]
    return {
        "order": "rlex",
        "chain": chain,
        "checks": {"ten_variables": len(chain) == 10},
    }


def case_fig3(_params: dict) -> dict:
    view = order_view(_quadric_pair_ideal())
    order = PresOrder.mrlex(view)
    chain = [str(p.generator) for p in order.ranked]
    return {
        "order": "mrlex",
        "chain": chain,
        "checks": {
            "ten_variables": len(chain) == 10,
            "tail_region_first": chain[0] == "x1*x4",
        },
    }


def _power(base: str, var: str, exp: int) -> str:
    return base if exp == 0 else f"{base}*{var}^{exp}" if exp > 1 else f"{base}*{var}"


def _obstruction_case(
    ideals_gens: list[list[str]],
    n: int,
    budget: tuple[int, ...],
    expected_mu: Monomial,
    expected_t: tuple[int, ...],
    pair: tuple[list[tuple[int, str]], list[tuple[int, str]]],
) -> dict:
    ideals = [
        borel_closure([parse_monomial(g, n) for g in gens], n)
        for gens in ideals_gens
    ]
    witnesses = detect_obstructions(ideals, budget)
    mu = MultiDegree(expected_mu.exps, expected_t)
    target = next(
        (w for w in witnesses if w.multidegree == mu), None
    )
    separated = False
    if target is not None:
        from .presentation import PresMonomial, PresVar

        def build(side):
            return PresMonomial(
                [PresVar(i, parse_monomial(g, n)) for i, g in side]
            )

        v1, v2 = build(pair[0]), build(pair[1])
        separated = target.component_of(v1) != target.component_of(v2)
    return {
        "ideals": ideals_gens,
        "n": n,
        "t_budget": list(budget),
        "witnesses": [w.to_json_dict() for w in witnesses],
        "checks": {
            "witness_at_stated_multidegree": target is not None,
            "stated_pair_separated": separated,
        },
    }


def case_ex4_1(params: dict) -> dict:
    a, b, c = params.get("a", 0), params.get("b", 0), params.get("c", 0)
    n = 5 if a == b == c == 0 else 6
    gens = [
        [_power("x3^2", "x6", a), _power("x1*x5", "x6", a)],
        [_power("x3^2", "x6", b), _power("x2*x4", "x6", b)],
        [_power("x2*x4", "x6", c), _power("x1*x5", "x6", c)],
    ]
    mu = parse_monomial(_power("x1*x2*x3^2*x4*x5", "x6", a + b + c), n)
    pair = (
        [(1, gens[0][1]), (2, gens[1][0]), (3, gens[2][0])],
        [(1, gens[0][0]), (2, gens[1][1]), (3, gens[2][1])],
    )
    return _obstruction_case(gens, n, (1, 1, 1), mu, (1, 1, 1), pair)


def case_ex4_2(params: dict) -> dict:
    a, b = params.get("a", 0), params.get("b", 0)
    n = 3 if a == b == 0 else 4
    g11 = _power("x1^2*x3^2", "x4", a)
    g12 = _power("x1*x2^2*x3", "x4", a)
    g21 = _power("x1^2*x3^2", "x4", b)
    g22 = _power("x2^4", "x4", b)
    mu = parse_monomial(g11, n) * parse_monomial(g11, n) * parse_monomial(g22, n)
    pair = (
        [(1, g11), (1, g11), (2, g22)],
        [(1, g12), (1, g12), (2, g21)],
    )
    return _obstruction_case([[g11, g12], [g21, g22]], n, (2, 1), mu, (2, 1), pair)


def case_ex4_3(params: dict) -> dict:
    a = params.get("a", 0)
    n = 3 if a == 0 else 4
    g21 = _power("x1^2*x3^2", "x4", a)
    g22 = _power("x2^4", "x4", a)
    mu = (
        parse_monomial("x1*x3", n)
        * parse_monomial("x1*x3", n)
        * parse_monomial(g22, n)
    )
    pair = (
        [(1, "x1*x3"), (1, "x1*x3"), (2, g22)],
        [(1, "x2^2"), (1, "x2^2"), (2, g21)],
    )
    return _obstruction_case(
        [["x1*x3", "x2^2"], [g21, g22]], n, (2, 1), mu, (2, 1), pair
    )


CASES: dict[str, Callable[[dict], dict]] = {
    "ex2.2": case_ex2_2,
    "ex2.3": case_ex2_3,
    "ex2.4": case_ex2_4,
    "fig1": case_fig1,
    "fig2": case_fig2,
    "fig3": case_fig3,
    "fig4": case_fig4,
    "ex4.1": case_ex4_1,
    "ex4.2": case_ex4_2,
    "ex4.3": case_ex4_3,
}

PARAMETRIC = {"ex4.1": ("a", "b", "c"), "ex4.2": ("a", "b"), "ex4.3": ("a",)}


def run_case(name: str, params: dict | None = None) -> dict:
    """Run one example. An unknown name raises KeyError; a parameter the
    example does not take, or a negative one, raises ValueError."""
    if name not in CASES:
        raise KeyError(
            f"unknown example {name!r}; known: {', '.join(sorted(CASES))}"
        )
    params = params or {}
    taken = PARAMETRIC.get(name, ())
    for key, value in params.items():
        if key not in taken:
            takes = f"; it takes {', '.join(taken)}" if taken else ""
            raise ValueError(
                f"example {name} does not take parameter {key!r}{takes}"
            )
        if value < 0:
            raise ValueError(f"parameter {key!r} must be >= 0, got {value}")
    result = CASES[name](params)
    result["name"] = name
    result["params"] = {k: params.get(k, 0) for k in PARAMETRIC.get(name, ())}
    return result


# the bundled expectations, read by path: importlib.resources would load
# inspect on Python 3.12 and later
_DATA = Path(__file__).with_name("data")


def load_expectation(name: str) -> dict | None:
    path = _DATA / (name.replace(".", "_") + ".json")
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def is_default_run(name: str, params: dict | None) -> bool:
    params = params or {}
    return all(params.get(k, 0) == 0 for k in PARAMETRIC.get(name, ()))
