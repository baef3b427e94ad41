"""Exhaustive certification of the explicit quadratic bases.

For one two-quadric-generator ideal the coincident-product binomials marked
by rlex rewrite every fiber to a unique sink; for a pair of such ideals the
union G1 + G2 + G3 under the head-and-tail order does the same. Certification
here means: every fiber graph within an explicit t-budget is acyclic with one
sink, cross-checked by a brute-force kernel oracle.
"""

from borel_rees import (
    borel_closure,
    build_fiber_type_basis,
    build_head_and_tail_basis,
    build_syzygy_set,
    kernel_membership,
    order_view,
    parse_monomial,
    verify_gb,
)
from borel_rees.orders import build_G1

# --- one ideal ------------------------------------------------------------
ideal = borel_closure(
    [parse_monomial("x3^2", 5), parse_monomial("x2*x5", 5)], 5
)
rules = build_G1(ideal)
report = verify_gb(rules, [ideal], t_budget=(4,))
print("single ideal:", report.verdict,
      f"({report.multidegrees_checked} multidegrees)")

# oracle side: every same-fiber pair of presentation monomials must rewrite
# to one normal form
checked, failures = kernel_membership(rules, [ideal], (3,))
print(f"kernel oracle: {checked} pairs, {len(failures)} failures")

# --- a pair of ideals -----------------------------------------------------
i1 = borel_closure([parse_monomial("x4*x5", 6), parse_monomial("x2*x6", 6)], 6)
i2 = borel_closure([parse_monomial("x4^2", 6), parse_monomial("x3*x6", 6)], 6)
basis = build_head_and_tail_basis(order_view(i1), order_view(i2))
print("\npair basis sizes:",
      {src: sum(1 for r in basis if r.source == src)
       for src in ("G1", "G2", "G3")})
report = verify_gb(basis, [i1, i2], t_budget=(2, 2))
print("pair:", report.verdict, f"({report.multidegrees_checked} multidegrees)")

# --- the full presentation ring -------------------------------------------
# Adding the linear syzygies x_i T - x_j T' lifts the fiber basis to the
# whole multigraded presentation. Its leads are mixed, so verify_gb checks
# the mixed fibers up to the x-degree bound; the kernel oracle pairs up the
# members of the same fibers.
full = build_fiber_type_basis([ideal], rules)
print("\nlinear syzygies:", len(build_syzygy_set([ideal])),
      "| lifted basis:", len(full))
report = verify_gb(full, [ideal], t_budget=(2,), x_degree=6)
print("fiber type:", report.verdict,
      f"({report.multidegrees_checked} multidegrees)")
checked, failures = kernel_membership(full, [ideal], (2,), x_degree=6)
print(f"mixed kernel oracle: {checked} pairs, {len(failures)} failures")
