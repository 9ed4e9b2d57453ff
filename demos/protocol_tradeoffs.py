"""Distillation protocol trade-offs: success floors, Monte Carlo, cost.

Compares the two merge schedules (hierarchical tree vs one mobile
composite per side) on success probability and physical braid count,
and sets the one-mobile floor beside its value with order-1 gadgets.
"""
from fractions import Fraction

from fibweave import (
    braid_cost,
    exact_success,
    hierarchical_success,
    monte_carlo,
    one_mobile_floor,
)

print("success probability with perfect gadgets (exact rationals):")
print(f"{'n':>4} {'p':>5} {'hierarchical':>14} {'one-mobile':>12} {'MC (1e5)':>10}")
for n in (2, 4, 8):
    for p in (Fraction(3, 10), Fraction(1, 2)):
        h = hierarchical_success(n, p, 0)
        o = one_mobile_floor(n, p)
        mc = monte_carlo("one-mobile", n, float(p), 100000, seed=42)["estimate"]
        print(f"{n:>4} {str(p):>5} {float(h):>14.6f} {float(o):>12.6f} {mc:>10.5f}")

print("\none-mobile success at gadget order 1 (simulated count classes):")
print(f"{'n':>4} {'p':>5} {'floor':>12} {'j = 1':>12} {'gap':>10}")
for n in (2, 4):
    for p in (Fraction(3, 10), Fraction(1, 2)):
        o = float(one_mobile_floor(n, p))
        e = exact_success("one-mobile", n, p, j=1)
        print(f"{n:>4} {str(p):>5} {o:>12.6f} {e:>12.6f} {o - e:>10.2e}")

print("\nhierarchical braid cost at gadget order 1 (elementary exchanges):")
print(f"{'n':>4} {'per gadget':>11} {'dominant total':>15} {'literal total':>14}")
for n in (2, 4, 8, 16):
    c = braid_cost(n, 1)
    print(f"{n:>4} {c['word_length']:>11} {c['total_dominant']:>15} "
          f"{c['total_literal']:>14}")
print("\nwith perfect gadgets the hierarchical schedule succeeds at least as often")
print("as the one-mobile floor at every (n, p) above, and doubling the line")
print("quadruples the dominant braid count of its ledger.")
