"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them inline). Budgets and tolerances are pinned here.

Two diagram-reproduction clauses are strict expected failures: the reference
diagrams the fig* cases are named after omit a handful of genuine one-step
reduction edges, so the faithfully computed graphs strictly contain them;
vertices, sinks, and every diagrammed edge reproduce exactly and are asserted
hard.
"""

import itertools
import json
import random
import time

import pytest

from borel_rees.borel import order_view
from borel_rees.monomial import Monomial, parse_monomial
from borel_rees.orders import (
    build_G2,
    build_fiber_type_basis,
    sink_violations_ht,
    sink_violations_mrlex,
    sink_violations_rlex,
)
from borel_rees.paper_cases import (
    FIG1_DRAWN_EDGES,
    FIG4_DRAWN_EDGES,
    run_case,
)
from borel_rees.presentation import (
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    PresVar,
    enumerate_fiber,
    fibers_by_multidegree,
    phi,
)
from borel_rees.reduction import (
    applicable_reductions,
    build_graph,
    o_invariant,
)
from borel_rees.verifier import (
    rule_indices,
    analyze_fiber,
    check_membership,
    toric_kernel_span,
    parameter_gate,
    verify_gb,
)


def m(text, n):
    return parse_monomial(text, n)


def report(num, desc, conditions):
    ok = all(conditions.values())
    print(f"[acceptance {num:>3}] {'PASS' if ok else 'FAIL'}: {desc}")
    if not ok:
        bad = [k for k, v in conditions.items() if not v]
        pytest.fail(f"criterion {num} failed: {bad}")


def timed(fn, repeats=1):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return result, best


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def c6_run(quadric_pair_ideal, quadric_pair_G1, standard_monomials):
    def run():
        return verify_gb(quadric_pair_G1, [quadric_pair_ideal], (4,))

    rep, elapsed = timed(run)
    sinks = standard_monomials(quadric_pair_G1, [quadric_pair_ideal], (4,))
    return rep, elapsed, sinks


@pytest.fixture(scope="module")
def c7_run(running_pair, running_pair_basis, standard_monomials):
    def run():
        return verify_gb(running_pair_basis, list(running_pair), (2, 2))

    rep, elapsed = timed(run)
    sinks = standard_monomials(running_pair_basis, list(running_pair), (2, 2))
    return rep, elapsed, sinks


def test_01_two_sink_counterexample():
    result, elapsed = timed(lambda: run_case("ex2.2", {}), repeats=5)
    report(
        1,
        "three-vertex graph with two sinks refutes coherent marking",
        {
            "vertices": set(result["vertices"])
            == {"x1*x2*x3", "x2^3", "x3^3"},
            "two_sinks": set(result["sinks"]) == {"x2^3", "x3^3"},
            "acyclic": not result["has_cycle"],
            "verdict": result["verdict"] == "not coherently markable as GB",
            "under_1ms": elapsed < 0.001,
        },
    )


def test_02_unique_sink_square():
    result, elapsed = timed(lambda: run_case("ex2.3", {}), repeats=5)
    report(
        2,
        "four-vertex graph, unique sink x2*x4^2*x5, longest path 2",
        {
            "four_vertices": len(result["vertices"]) == 4,
            "sink": result["sinks"] == ["x2*x4^2*x5"],
            "acyclic": not result["has_cycle"],
            "ell_max": result["ell_max_start"] == 2,
            "under_1ms": elapsed < 0.001,
        },
    )


def test_03_cycling_minors():
    result, elapsed = timed(lambda: run_case("ex2.4", {}), repeats=5)
    report(
        3,
        "ladder-minor marking cycles with no sinks",
        {
            "vertices": set(result["vertices"])
            == {"x1*x3*x5*x6", "x2*x3*x4*x6", "x3^2*x4*x5", "x1*x2*x6^2"},
            "cycles": result["has_cycle"],
            "no_sinks": result["sinks"] == [],
            "under_1ms": elapsed < 0.001,
        },
    )


FIG1_VERTICES = {
    "T23^2*T14*T15", "T13*T23*T24*T15", "T22*T33*T14*T15",
    "T13*T23*T14*T25", "T12*T33*T24*T15", "T12*T33*T14*T25",
    "T13^2*T24*T25", "T11*T33*T24*T25",
}


def test_04_eight_vertex_fiber_graph(quadric_pair_ideal, quadric_pair_G1):
    mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))

    def build():
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        return build_graph(quadric_pair_G1, fiber=fiber)

    graph, elapsed = timed(build, repeats=3)
    result = run_case("fig1", {})
    edge_pairs = {(a, b) for a, b, _ in result["edges"]}
    report(
        4,
        "degree-8 fiber: 8 vertices, unique sink, all 12 drawn edges",
        {
            "vertices": set(result["vertices"]) == FIG1_VERTICES
            and {v.label(1) for v in graph.vertices} == FIG1_VERTICES,
            "sink": result["sinks"] == ["T11*T33*T24*T25"],
            "acyclic": not result["has_cycle"] and not graph.has_cycle,
            "drawn_edges_present": all(
                e in edge_pairs for e in FIG1_DRAWN_EDGES
            ),
            "under_10ms": elapsed < 0.010,
        },
    )


@pytest.mark.xfail(
    strict=True,
    reason="the reference diagram omits two genuine reduction edges "
    "(T13*T23*T24*T15 -> T13^2*T24*T25 and T12*T33*T24*T15 -> "
    "T12*T33*T14*T25); the faithful graph has 14 edges",
)
def test_04b_figure_edge_set_equality():
    result = run_case("fig1", {})
    edge_pairs = {(a, b) for a, b, _ in result["edges"]}
    print(
        "[acceptance 04b] EXPECTED-FAIL: diagram edge set equality "
        f"(computed {len(edge_pairs)} edges vs 12 diagrammed)"
    )
    assert edge_pairs == set(FIG1_DRAWN_EDGES)


FIG4_VERTICES = {
    "T25*T44*Z36", "T26*T44*Z35", "T35*T44*Z26", "T24*T45*Z36",
    "T26*T35*Z44", "T34*T45*Z26", "T26*T45*Z34",
}


def _normalize_label(label):
    return "*".join(sorted(label.split("*")))


def test_05_seven_vertex_pair_fiber_graph(running_pair, running_pair_basis):
    mu = MultiDegree(m("x2*x3*x4^2*x5*x6", 6).exps, (2, 1))

    def build():
        fiber = enumerate_fiber(mu, list(running_pair))
        return build_graph(running_pair_basis, fiber=fiber)

    graph, elapsed = timed(build, repeats=3)
    result = run_case("fig4", {})
    labeled = {tuple(e) for e in result["edges"]}
    report(
        5,
        "mixed-pair fiber: 7 vertices, sink T26*T35*Z44, labeled drawn edges",
        {
            "vertices": {_normalize_label(v) for v in result["vertices"]}
            == {_normalize_label(v) for v in FIG4_VERTICES},
            "sink": result["sinks"] == ["T35*T26*Z44"]
            and [s.label(2) for s in graph.sinks]
            == ["T35*T26*Z44"],
            "acyclic": not result["has_cycle"] and not graph.has_cycle,
            "drawn_edges_with_labels": all(
                e in labeled for e in FIG4_DRAWN_EDGES
            ),
            "under_10ms": elapsed < 0.010,
        },
    )


@pytest.mark.xfail(
    strict=True,
    reason="the reference diagram omits four genuine reduction edges; the "
    "faithful graph has 12",
)
def test_05b_figure_edge_set_equality():
    result = run_case("fig4", {})
    labeled = {tuple(e) for e in result["edges"]}
    print(
        "[acceptance 05b] EXPECTED-FAIL: diagram edge set equality "
        f"(computed {len(labeled)} edges vs 8 diagrammed)"
    )
    assert labeled == set(FIG4_DRAWN_EDGES)


def test_06_rlex_certification(c6_run, quadric_pair_ideal):
    rep, elapsed, sinks = c6_run
    fig_mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
    sink_at = {mu: sink.label(1) for mu, sink in sinks}
    report(
        6,
        f"rlex basis certified over t<=4 "
        f"({rep.multidegrees_checked} multidegrees, {elapsed:.2f}s)",
        {
            "certified": rep.verdict == "certified-up-to-bound",
            "no_failures": not rep.failures,
            "one_sink_per_multidegree": len(sinks)
            == rep.multidegrees_checked,
            "reference_fiber_sink": sink_at.get(fig_mu)
            == "T11*T33*T24*T25",
            "under_60s": elapsed < 60.0,
        },
    )


def test_07_head_and_tail_certification(c7_run):
    rep, elapsed, sinks = c7_run
    fig_mu = MultiDegree(m("x2*x3*x4^2*x5*x6", 6).exps, (2, 1))
    sink_at = {mu: sink.label(2) for mu, sink in sinks}
    report(
        7,
        f"head-and-tail basis certified over t<=(2,2) "
        f"({rep.multidegrees_checked} multidegrees, {elapsed:.2f}s)",
        {
            "certified": rep.verdict == "certified-up-to-bound",
            "one_sink_per_multidegree": len(sinks)
            == rep.multidegrees_checked,
            "reference_fiber_sink": sink_at.get(fig_mu) == "T35*T26*Z44",
            "under_120s": elapsed < 120.0,
        },
    )


def test_08_multi_rees_kernel_oracle(quadric_pair_ideal, quadric_pair_G1):
    def run():
        rules = build_fiber_type_basis([quadric_pair_ideal], quadric_pair_G1)
        pairs = toric_kernel_span([quadric_pair_ideal], (2,), x_degree=6)
        return pairs, check_membership(pairs, rules)

    (pairs, (checked, failures)), elapsed = timed(run)
    report(
        8,
        f"all {checked} brute-force kernel binomials (x-deg<=6, t<=2) "
        f"reduce to zero ({elapsed:.2f}s)",
        {
            "nonempty": checked > 1000,
            "all_pairs_checked": checked == len(pairs),
            "zero_failures": not failures,
            "under_120s": elapsed < 120.0,
        },
    )


def test_09_invariant_pair_strictly_decreases(
    running_pair, running_pair_basis
):
    ideals = list(running_pair)
    rules = build_fiber_type_basis(ideals, running_pair_basis)
    pair_index, generic = rule_indices(running_pair_basis)

    ell_tables: dict = {}

    def ell_of(u: PresMonomial) -> int:
        mu = phi(u, ideals)
        if mu not in ell_tables:
            fiber = enumerate_fiber(mu, ideals)
            index = {v: i for i, v in enumerate(fiber)}
            sinks, cyc = analyze_fiber(fiber, pair_index, generic)
            assert not cyc and len(sinks) == 1
            memo: dict[int, int] = {}

            def longest(i):
                if i not in memo:
                    succ = [
                        index[s]
                        for s, _ in applicable_reductions(
                            fiber[i], running_pair_basis
                        )
                    ]
                    memo[i] = 0 if not succ else 1 + max(map(longest, succ))
                return memo[i]

            ell_tables[mu] = {v: longest(i) for i, v in enumerate(fiber)}
        return ell_tables[mu][u]

    rng = random.Random(20240601)
    events = 0
    violations = []
    while events < 10_000:
        x = Monomial([rng.randint(0, 2) for _ in range(6)])
        k1 = rng.randint(0, 2)
        k2 = rng.randint(0, 3 - k1)
        factors = [
            PresVar(1, rng.choice(ideals[0].minimal_generators))
            for _ in range(k1)
        ] + [
            PresVar(2, rng.choice(ideals[1].minimal_generators))
            for _ in range(k2)
        ]
        v = MixedMonomial(x, PresMonomial(factors))
        before = None
        for succ, rule in applicable_reductions(v, rules):
            if before is None:
                before = (o_invariant(v), ell_of(v.t_part))
            after = (o_invariant(succ), ell_of(succ.t_part))
            if not after < before:
                violations.append((v, rule, before, after))
            events += 1
    report(
        9,
        f"(content-weight, longest-path) pair drops lexicographically on "
        f"{events} random one-step reductions",
        {"at_least_1e4": events >= 10_000, "zero_violations": not violations},
    )


def test_10_cubic_obstruction_families():
    conditions = {}
    for name in ("ex4.1", "ex4.2", "ex4.3"):
        result, elapsed = timed(lambda: run_case(name, {}))
        conditions[f"{name}_witness"] = result["checks"][
            "witness_at_stated_multidegree"
        ]
        conditions[f"{name}_pair_separated"] = result["checks"][
            "stated_pair_separated"
        ]
        conditions[f"{name}_under_10s"] = elapsed < 10.0
    report(
        10,
        "disconnected degree-3 fibers with the stated pairs separated",
        conditions,
    )


def test_11_parameter_gate():
    conditions = {
        "two_quadric_pairs": parameter_gate(2, (2, 2), (2, 2)).case == "a",
        "three_doubles_rejected": parameter_gate(3, (2, 2, 2), (2, 2, 2))
        .verdict
        == "known-obstructed",
        "principal_prefix": parameter_gate(4, (1, 1, 1, 2), (3, 1, 4, 2)).case
        == "c",
    }
    # exhaustive stability under permutations for r <= 4, g <= 3, d <= 5
    rng = random.Random(5)
    stable = True
    for r in range(1, 5):
        for combo in itertools.product(
            itertools.product(range(1, 4), range(1, 6)), repeat=r
        ):
            g = [x for x, _ in combo]
            d = [x for _, x in combo]
            base = parameter_gate(r, g, d)
            perm = list(range(r))
            rng.shuffle(perm)
            other = parameter_gate(
                r, [g[i] for i in perm], [d[i] for i in perm]
            )
            if base != other:
                stable = False
    conditions["permutation_stable"] = stable
    report(11, "parameter gate classifications and sorting stability",
           conditions)


def test_12_sink_index_inequalities(
    c6_run, c7_run, quadric_pair_ideal, running_pair, standard_monomials
):
    _, _, sinks6 = c6_run
    rep7, _, sinks7 = c7_run
    view = order_view(quadric_pair_ideal)
    view1, view2 = map(order_view, running_pair)
    rlex_bad = []
    for _, sink in sinks6:
        rlex_bad += sink_violations_rlex(sink, view)
    ht_bad = []
    for _, sink in sinks7:
        ht_bad += sink_violations_ht(sink, view1, view2)
    # direct mixed-order sinks for the second ideal
    i2 = running_pair[1]
    g2 = build_G2(view2, 1)
    rep_g2 = verify_gb(g2, [i2], (3,))
    sinks_g2 = standard_monomials(g2, [i2], (3,))
    mrlex_bad = []
    for _, sink in sinks_g2:
        mrlex_bad += sink_violations_mrlex(sink, view2)
    # the two-sink hypothesis never fires once the basis certifies
    two_sink_hypothesis_hits = sum(
        1 for f in rep7.failures if len(f.sinks) > 1
    )
    report(
        12,
        f"index inequalities on {len(sinks6)} rlex, "
        f"{len(sinks_g2)} mixed-order and {len(sinks7)} "
        "head-and-tail sinks",
        {
            "rlex_clean": not rlex_bad,
            "mrlex_clean": rep_g2.verdict == "certified-up-to-bound"
            and not mrlex_bad,
            "head_and_tail_clean": not ht_bad,
            "two_sink_hypothesis_vacuous": two_sink_hypothesis_hits == 0,
        },
    )


def test_13_fiber_type_persistence(quadric_pair_ideal):
    view = order_view(quadric_pair_ideal)
    bm, bn = set(view.B_M), set(view.B_N)
    homogeneous = True
    fibers = 0
    for _, fiber in fibers_by_multidegree([quadric_pair_ideal], (4,)):
        if not fiber:
            continue
        fibers += 1
        kinds = [
            (
                all(f.generator in bm for f in v.factors),
                all(f.generator in bn for f in v.factors),
            )
            for v in fiber
        ]
        if any(k[0] for k in kinds) and not all(k[0] for k in kinds):
            homogeneous = False
        if any(k[1] for k in kinds) and not all(k[1] for k in kinds):
            homogeneous = False
    report(
        13,
        f"region type is constant across each of {fibers} fibers",
        {"persistent": homogeneous},
    )


def test_14_parallel_determinism(tmp_path):
    from borel_rees.cli import main

    spec = tmp_path / "pair.json"
    spec.write_text(
        json.dumps(
            {
                "n": 6,
                "ideals": [
                    {"borel_generators": ["x4*x5", "x2*x6"]},
                    {"borel_generators": ["x4^2", "x3*x6"]},
                ],
            }
        )
    )
    outputs = {}
    for jobs in (1, 8):
        out_dir = tmp_path / f"jobs{jobs}"
        code = main(
            [
                "verify",
                "--spec", str(spec),
                "--budget", "2,2",
                "--basis", "ht",
                "--jobs", str(jobs),
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        outputs[jobs] = (out_dir / "verify.json").read_bytes()
    report(
        14,
        "verification reports are byte-identical for --jobs 1 and 8",
        {"identical": outputs[1] == outputs[8]},
    )
