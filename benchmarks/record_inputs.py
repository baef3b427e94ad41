#!/usr/bin/env python3
"""Write benchmarks/inputs.json: every collection the benchmark ships, with
the report invariants and work sizes the program gives for it.

Run from the repository root at the commit whose outputs are the reference:

    python3 benchmarks/record_inputs.py

Entry 0 of each list is the input seed 0 runs. The other entries are the
collections of the same shape with the same generator counts, so every seed
does the same amount of enumeration (the monomial count depends only on the
generator counts and the budget).
"""

from __future__ import annotations

import json
import sys

import run

# Two-quadric Borel ideals B(x_a x_b, x_c x_d), c < a <= b < d.
A = ["x4*x5", "x2*x6"]  # 16 minimal generators at n = 6
B = ["x4^2", "x3*x6"]  # 16 at n = 6
P, Q, R = ["x3^2", "x1*x5"], ["x3^2", "x2*x4"], ["x2*x4", "x1*x5"]  # 8 at n = 5

# Entry 1 is what every other seed runs: the seed-0 pair and triple with the
# first two ideals swapped (another basis and t-budget assignment), and the
# other pair member as the single ideal. Each does the same amount of work as
# entry 0: equal fiber and pair counts for verify-ht and detect-cubics, within
# 2 % for kernel-oracle and verify-fiber-type. The remaining same-size
# collections differ from entry 0 by up to 7 % in fiber count, which would
# show up as spread between seeds rather than as a property of the program.
PAIRS = [(A, B), (B, A)]
TRIPLES = [(P, Q, R), (Q, P, R)]
SINGLES = [(A,), (B,)]

COLLECTIONS = {
    "verify-ht": (6, PAIRS),
    "kernel-oracle": (6, PAIRS),
    "detect-cubics": (5, TRIPLES),
    "verify-fiber-type": (6, SINGLES),
}


def work(wl: run.Workload, ideals, smoke: bool) -> dict:
    """Fibers the command scans and the monomial pairs inside them."""
    from borel_rees.presentation import fibers_by_multidegree
    from borel_rees.verifier import mixed_fibers

    budget = wl.smoke_budget if smoke else wl.budget
    if wl.basis == "fiber-type":
        xdeg = wl.smoke_xdeg if smoke else wl.xdeg
        fibers = mixed_fibers(ideals, budget, xdeg)
    else:
        fibers = fibers_by_multidegree(ideals, budget)
    sizes = [len(f) for _, f in fibers]
    return {"fibers": len(sizes), "pairs": sum(k * (k - 1) // 2 for k in sizes)}


def main() -> int:
    cli = run.import_program()
    if cli is None:
        print("error: no borel_rees package under src/", file=sys.stderr)
        return run.EXIT_NO_PROGRAM
    from borel_rees import load_collection

    path = run.OUT_DIR / "record-spec.json"
    run.OUT_DIR.mkdir(exist_ok=True)
    table = {}
    for name, (n, collections) in COLLECTIONS.items():
        wl = run.WORKLOADS[name]
        entries = []
        for gens in collections:
            spec = {"n": n, "ideals": [{"borel_generators": list(g)} for g in gens]}
            path.write_text(json.dumps(spec))
            ideals = load_collection(spec)
            entry = {"spec": spec}
            for smoke, key in ((False, ""), (True, "smoke_")):
                code, out, _ = run.run_cli(cli, wl.argv(str(path), smoke))
                entry[key + "expect"] = run.observe(wl.command, code, out)
                entry[key + "work"] = work(wl, ideals, smoke)
            print(name, gens, entry["expect"], entry["work"], flush=True)
            entries.append(entry)
        table[name] = entries
    path.unlink()
    run.INPUTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
