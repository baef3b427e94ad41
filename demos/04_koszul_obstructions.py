"""When quadratic generation fails: cubic obstructions and the parameter gate.

A fiber of total t-degree 3 that falls apart under every quadratic
coincident-product move certifies a cubic minimal generator of the toric
kernel; no quadratic generating set (and hence no Koszul presentation of this
kind) can exist. The numeric gate on (number of ideals, generator counts,
generator degrees) states the only parameter shapes not ruled out by such
families.
"""

from borel_rees import (
    borel_closure,
    detect_obstructions,
    koszul_report,
    parameter_gate,
    parse_monomial,
)


def ideal(n, *gens):
    return borel_closure([parse_monomial(g, n) for g in gens], n)


# Three two-generator quadric ideals: the triple product fiber splits into
# two isolated vertices, one per side of the cubic relation.
triple = [
    ideal(5, "x3^2", "x1*x5"),
    ideal(5, "x3^2", "x2*x4"),
    ideal(5, "x2*x4", "x1*x5"),
]
(witness,) = detect_obstructions(triple, t_budget=(1, 1, 1))
print("witness multidegree:", witness.multidegree.display())
for k, comp in enumerate(witness.components):
    print(f"  component {k}:", [v.label(3) for v in comp])

# Two ideals with degree-4 generators split the same way.
quartics = [
    ideal(3, "x1^2*x3^2", "x1*x2^2*x3"),
    ideal(3, "x1^2*x3^2", "x2^4"),
]
witnesses = detect_obstructions(quartics, t_budget=(2, 1))
print("\nquartic pair witnesses:",
      [w.multidegree.display() for w in witnesses])

# The gate over (r, g_i, d_i): only three parameter shapes survive.
for r, g, d in [
    (2, (2, 2), (2, 2)),
    (3, (2, 2, 2), (2, 2, 2)),
    (4, (1, 1, 1, 2), (5, 1, 3, 2)),
    (2, (2, 2), (2, 4)),
]:
    res = parameter_gate(r, g, d)
    print(f"gate r={r} g={g} d={d}: {res.verdict}"
          + (f" (case {res.case})" if res.case else ""))

# Putting it together: gate, obstruction scan, and certification where an
# explicit basis exists.
pair = [ideal(6, "x4*x5", "x2*x6"), ideal(6, "x4^2", "x3*x6")]
print("\npair of two-quadric ideals:", koszul_report(pair, (2, 1)).verdict)
print("obstructed triple:        ", koszul_report(triple, (1, 1, 1)).verdict)
