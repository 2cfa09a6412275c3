"""
Robust expansion: certify, refute, shrink, reverse
==================================================

A digraph is a robust out-expander when every middling-size vertex set S
has many vertices that each receive lots of arcs from S.  This script
certifies the property exactly on small digraphs, shows what a refutation
looks like, and walks the two derived facts the rest of the library leans
on: expansion survives deleting a few vertices, and strong out-expansion
plus a degree floor yields in-expansion.
"""

from dilink import (
    ExpansionParams,
    certify_inexpander_exact,
    certify_outexpander_exact,
    certify_survives_deletion,
    complete_digraph,
    deletion_tolerance,
    derive_params_from_degrees,
    directed_cycle,
    falsify_outexpander_sampled,
    gen_random_digraph,
    inexpansion_params,
)

# exact certification enumerates every candidate set, so verdicts at this
# scale are proofs, not samples
p = ExpansionParams("1/6", "1/6")
K8 = complete_digraph(8)
print("K_8 at (1/6, 1/6):", certify_outexpander_exact(K8, p).verdict.value)

C8 = directed_cycle(8)
rep = certify_outexpander_exact(C8, p)
print("C_8 at (1/6, 1/6):", rep.verdict.value)
print("  smallest violating set:", sorted(rep.counterexample))
# every vertex of a directed cycle has exactly one in-neighbour, so a set
# of 3 reaches only 3 vertices -- no room for the required +nu*n growth

# above ~20 vertices exact enumeration is off the table; the sampled
# falsifier hunts for counterexamples instead and reports honestly
D = gen_random_digraph(200, 0.12, seed=7)
q = ExpansionParams("1/4", "1/4")
print("sparse D(200, 0.12) at (1/4, 1/4):",
      falsify_outexpander_sampled(D, q, trials=2000, seed=0).verdict.value)

# a minimum-semidegree margin gamma implies concrete (nu, tau) values
print("params from a degree margin of 1/2:", derive_params_from_degrees("1/2"))

# deleting up to floor(nu*n/4) vertices cannot destroy expansion, at the
# price of halving nu and doubling tau
E = gen_random_digraph(12, 0.95, seed=3)
pe = ExpansionParams("1/3", "1/3", gamma="3/4")
print("\nD(12, 0.95) at (1/3, 1/3):", certify_outexpander_exact(E, pe).verdict.value)
tol = deletion_tolerance(E, pe)
print("deletion tolerance:", tol)
for v in range(4):
    r = certify_survives_deletion(E, pe, [v], max_exact_n=14)
    print(f"  minus vertex {v}: {r.verdict.value} at (nu/2, 2*tau)")

# out-expansion plus the degree margin flips into in-expansion at
# (nu^2, 2*tau), provided the usual ratio gates hold
qe = inexpansion_params(pe)
print("in-expansion params:", (qe.nu, qe.tau))
print("in-expander verdict:", certify_inexpander_exact(E, qe, max_exact_n=14).verdict.value)
