"""Per-layer spans for one workload: what is wrapped, the probes, the metrics.

One traced workload call is three root spans under one call id:

- `cli.main`: the workload's command, with every wrapped public function of
  the layers below it recorded as a child span;
- `drain`: `presentation.fibers_by_multidegree` drained on its own at the
  workload's budget, which gives the fiber, monomial and largest-fiber counts;
- `probe`: the layers the command does not reach, called directly on the same
  collection at a small budget (one t per ideal, two for a single ideal; the
  obstruction scan needs total t-degree 3).
"""

from __future__ import annotations

import json
import statistics
from collections import Counter

from borel_rees import borel, cli, orders, presentation, reduction, verifier
from tracing import CallView, Tracer

MODULES = (borel, orders, presentation, reduction, verifier, cli)


def _rules(args, result) -> dict:
    return {"rules": dict(Counter(g.source for g in result))}


def _fiber(item) -> dict:
    mu, fiber = item
    return {"size": len(fiber), "total_t": sum(mu.t_exps)}


# function name -> (span name, kind, counts taken from the call)
TARGETS = {
    "load_collection": ("borel.load_collection", "call", lambda a, r: {
        "minimal_generators": sum(len(i.minimal_generators) for i in r)}),
    "build_G1": ("orders.basis", "call", _rules),
    "build_G2": ("orders.basis", "call", _rules),
    "build_G3": ("orders.basis", "call", _rules),
    "build_head_and_tail_basis": ("orders.basis", "call", _rules),
    "build_fiber_type_basis": ("orders.basis", "call", _rules),
    "quadratic_basis_for": ("orders.basis", "call", _rules),
    "fibers_by_multidegree": (
        "presentation.fibers_by_multidegree.next", "iter", _fiber),
    "verify_gb": ("verifier.verify_gb", "call", None),
    "verify_gb_mixed": ("verifier.verify_gb_mixed", "call", None),
    "rule_indices": ("verifier.rule_indices", "call", lambda a, r: {
        "rules": dict(Counter(g.source for g in a[0])),
        "pair_keys": len(r[0]), "generic": len(r[1])}),
    "mixed_fibers": ("verifier.mixed_fibers.next", "iter", _fiber),
    "analyze_fiber": ("verifier.analyze_fiber", "call", lambda a, r: {
        "size": len(a[0]), "ok": len(r[0]) == 1 and not r[1]}),
    "toric_kernel_span": ("verifier.toric_kernel_span", "call",
                          lambda a, r: {"pairs": len(r)}),
    "mixed_kernel_span": ("verifier.mixed_kernel_span", "call",
                          lambda a, r: {"pairs": len(r)}),
    "check_membership": ("verifier.check_membership", "call",
                         lambda a, r: {"pairs": r[0], "failures": len(r[1])}),
    "normal_form": ("reduction.normal_form", "call", None),
    "detect_obstructions": ("verifier.detect_obstructions", "call",
                            lambda a, r: {"witnesses": len(r)}),
}


class _TracedJson:
    """Stands in for the json module inside cli so report encoding is a span."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


class LayerTrace:
    def __init__(self, spec: dict, budget, basis: str | None, probes):
        self.tracer = Tracer()
        self.ideals = borel.load_collection(spec)
        self.budget = tuple(budget)
        self.probes = probes
        r = len(self.ideals)
        self.small = (1,) * r if r > 1 else (2,)
        obstruction = [1] * r
        while sum(obstruction) < 3:
            obstruction[sum(obstruction) % r] += 1
        self.obstruction_budget = tuple(obstruction)
        self.xdeg = 2 * max(i.degree for i in self.ideals)
        # the kernel and analyze probes work on pure presentation monomials
        if basis == "ht":
            self.probe_rules = orders.build_head_and_tail_basis(
                borel.order_view(self.ideals[0]),
                borel.order_view(self.ideals[1]),
            )
        elif basis == "fiber-type":
            self.probe_rules = verifier.quadratic_basis_for(self.ideals)
        else:
            self.probe_rules = None  # the basis probe builds them
        self.patches = self._patches()

    def _patches(self):
        out = []
        for fname, (span, kind, describe) in TARGETS.items():
            # a name the library no longer has leaves its metrics at zero
            original = next(
                (getattr(m, fname) for m in MODULES if hasattr(m, fname)), None
            )
            if original is None:
                continue
            wrap = self.tracer.wrap_iter if kind == "iter" else self.tracer.wrap
            traced = wrap(original, span, describe)
            out += [(m, fname, traced) for m in MODULES
                    if getattr(m, fname, None) is original]
        dumps = self.tracer.wrap(json.dumps, "cli.report_json",
                                 lambda a, r: {"bytes": len(r)})
        out.append((cli, "json", _TracedJson(dumps)))
        return out

    # -- the probes ---------------------------------------------------------

    def _probe_basis(self):
        self.probe_rules = [
            g for k, ideal in enumerate(self.ideals, 1)
            for g in orders.build_G1(ideal, k)
        ]

    def _probe_analyze(self):
        pair_index, generic = verifier.rule_indices(self.probe_rules)
        for _, fiber in verifier.fibers_by_multidegree(self.ideals, self.small):
            verifier.analyze_fiber(fiber, pair_index, generic)

    def _probe_kernel(self):
        pairs = verifier.toric_kernel_span(self.ideals, self.small)
        verifier.check_membership(pairs, self.probe_rules)

    def _probe_obstructions(self):
        verifier.detect_obstructions(self.ideals, self.obstruction_budget)

    def _probe_mixed(self):
        for _ in verifier.mixed_fibers(self.ideals, self.small, self.xdeg):
            pass

    # -- one traced workload call -------------------------------------------

    def call(self, run):
        """Run the command traced, then the drain and the probes; return the
        command's (exit, stdout) and this call's per-layer metrics."""
        tracer = self.tracer
        tracer.call += 1
        first = len(tracer.spans)
        original_fibers = presentation.fibers_by_multidegree
        with tracer.installed(self.patches):
            with tracer.span("cli.main"):
                code, out, elapsed = run()
            with tracer.span("drain") as counts:
                fibers = monomials = largest = 0
                for _, fiber in original_fibers(self.ideals, self.budget):
                    fibers += 1
                    monomials += len(fiber)
                    largest = max(largest, len(fiber))
                counts.update(fibers=fibers, monomials=monomials,
                              max_fiber=largest)
            with tracer.span("probe"):
                for name in self.probes:
                    getattr(self, "_probe_" + name)()
        metrics = self.metrics(CallView(tracer.spans[first:]))
        metrics["trace.verdict_s"] = elapsed
        return code, out, metrics

    @staticmethod
    def metrics(v: CallView) -> dict:
        def first(name):
            spans = v.outermost(name, "cli.main") or v.outermost(name)
            return spans[0].attrs if spans else {}

        def count(name, key):
            return sum(s.attrs.get(key, 0) for s in v.outermost(name))

        m = {}
        m["borel.load_collection.s"] = v.total("borel.load_collection", "cli.main")
        m["borel.minimal_generators"] = first("borel.load_collection").get(
            "minimal_generators", 0)
        m["orders.basis.s"] = v.total("orders.basis")
        indices = first("verifier.rule_indices")
        rules = indices.get("rules", {})
        m["orders.rules"] = sum(rules.values())
        for source in ("G1", "G2", "G3", "SYZ"):
            m[f"orders.rules.{source}"] = rules.get(source, 0)
        m["verifier.rule_indices.pair_keys"] = indices.get("pair_keys", 0)
        m["verifier.rule_indices.generic"] = indices.get("generic", 0)

        drain = v.outermost("drain")[0]
        m["presentation.fibers_by_multidegree.s"] = drain.duration
        m["presentation.fibers"] = drain.attrs["fibers"]
        m["presentation.monomials"] = drain.attrs["monomials"]
        m["presentation.max_fiber"] = drain.attrs["max_fiber"]

        mixed = v.outermost("verifier.mixed_fibers.next")
        m["verifier.mixed_fibers.s"] = sum(s.duration for s in mixed)
        m["verifier.mixed_fibers.fibers"] = sum(
            1 for s in mixed if "exhausted" not in s.attrs)

        analyzed = v.outermost("verifier.analyze_fiber")
        latencies = sorted(s.duration * 1000.0 for s in analyzed)
        m["verifier.analyze_fiber.s"] = sum(s.duration for s in analyzed)
        if len(latencies) >= 2:
            cuts = statistics.quantiles(latencies, n=100)
        else:  # quantiles needs two samples
            cuts = [latencies[0] if latencies else 0.0] * 99
        m["verifier.analyze_fiber.p50_ms"] = cuts[49]
        m["verifier.analyze_fiber.p99_ms"] = cuts[98]
        m["verifier.failing_fibers"] = sum(
            1 for s in v.outermost("verifier.analyze_fiber", "cli.main")
            if not s.attrs["ok"])

        m["verifier.toric_kernel_span.s"] = v.total("verifier.toric_kernel_span")
        m["verifier.toric_kernel_span.pairs"] = count(
            "verifier.toric_kernel_span", "pairs")
        m["verifier.check_membership.s"] = v.total("verifier.check_membership")
        pairs = count("verifier.check_membership", "pairs")
        calls = len(v.outermost("reduction.normal_form"))
        m["reduction.normal_form.s"] = v.total("reduction.normal_form")
        m["reduction.normal_form.calls"] = calls
        m["reduction.normal_form.hit_ratio"] = (
            1.0 - calls / (2 * pairs) if pairs else 0.0)

        scans = v.outermost("verifier.detect_obstructions")
        m["verifier.detect_obstructions.s"] = sum(s.duration for s in scans)
        m["verifier.detect_obstructions.self_s"] = sum(
            v.self_time(s) for s in scans)
        m["verifier.detect_obstructions.witnesses"] = count(
            "verifier.detect_obstructions", "witnesses")
        scanned = [
            c for s in scans for c in v.children.get(s.id, ())
            if c.name == "presentation.fibers_by_multidegree.next"
            and "exhausted" not in c.attrs
        ]
        nontrivial = sum(
            1 for c in scanned if c.attrs["total_t"] >= 3 and c.attrs["size"] >= 2)
        m["verifier.detect_obstructions.nontrivial_ratio"] = (
            nontrivial / len(scanned) if scanned else 0.0)

        m["cli.report_json.s"] = v.total("cli.report_json", "cli.main")
        m["cli.report_bytes"] = count("cli.report_json", "bytes")
        return m

    def self_time_table(self) -> list[str]:
        """Calls, total and self seconds per span name, last traced call."""
        last = [s for s in self.tracer.spans if s.call == self.tracer.call]
        v = CallView(last)
        rows: dict[str, list] = {}
        for s in last:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += v.self_time(s)
        for name in rows:
            rows[name][1] = v.total(name)
        return [
            f"span {name}: calls {c}, total {t:.4f} s, self {st:.4f} s"
            for name, (c, t, st) in sorted(rows.items(), key=lambda kv: -kv[1][2])
        ]
