"""Property test for the exact certifiers against the (size, lex)-minimum
oracle, on both sides of the subset-sum table's 2^14-set block."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dilink import (
    ExpansionParams,
    certify_inexpander_exact,
    certify_outexpander_exact,
    certify_survives_deletion,
    deletion_tolerance,
    gen_random_digraph,
    remove_vertices,
    shrink_params_for_deletion,
)

from helpers import oracle_min_violating_set


@settings(max_examples=24)  # each example runs the oracle three times on up to 2^17 sets
@given(
    n=st.sampled_from([13, 14, 15, 17]),
    density=st.floats(0.6, 1.0),
    nu_tau=st.sampled_from(["1/6", "1/5", "1/3"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_exact_certifiers_match_the_oracle(n, density, nu_tau, seed, data):
    D = gen_random_digraph(n, density, seed)
    p = ExpansionParams(nu_tau, nu_tau)
    removed = data.draw(st.sets(st.integers(0, n - 1), max_size=deletion_tolerance(D, p)))
    q = shrink_params_for_deletion(p)
    for rep, G, r in (
        (certify_outexpander_exact(D, p), D, p),
        (certify_inexpander_exact(D, p), D.reverse(), p),
        (certify_survives_deletion(D, p, removed), remove_vertices(D, removed).digraph, q),
    ):
        assert rep.counterexample == oracle_min_violating_set(G, r.nu, r.tau)
