"""Property tests: the exact certifiers against the (size, lex)-minimum
oracle, on both sides of the subset-sum table's 2^14-set block; the
sampled falsifier against its scalar one-proposal-at-a-time loop, on both
sides of the 256-trial stream and of a 64-vertex packed word; the packed
in-counts against row sums."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dilink import (
    Digraph,
    ExpansionParams,
    certify_inexpander_exact,
    certify_outexpander_exact,
    certify_survives_deletion,
    deletion_tolerance,
    falsify_outexpander_sampled,
    gen_random_digraph,
    remove_vertices,
    shrink_params_for_deletion,
)
from dilink.expansion import _column_words, _grow_greedily, _in_counts

from helpers import oracle_falsify_sampled, oracle_min_violating_set, two_clusters


@settings(max_examples=24)  # each example runs the oracle three times on up to 2^17 sets
@given(
    n=st.sampled_from([13, 14, 15, 17]),
    density=st.floats(0.6, 1.0),
    # nu < tau, as in the in-expansion (nu^2, 2 tau) and deletion (nu/2, 2 tau)
    # parameters: a small ceil(nu*n) decides most rows of a block uncompared
    nu_tau=st.sampled_from(
        [("1/6", "1/6"), ("1/5", "1/5"), ("1/3", "1/3"),
         ("1/25", "2/5"), ("1/10", "2/5"), ("1/10", "1/5")]
    ),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_exact_certifiers_match_the_oracle(n, density, nu_tau, seed, data):
    D = gen_random_digraph(n, density, seed)
    p = ExpansionParams(*nu_tau)
    removed = data.draw(st.sets(st.integers(0, n - 1), max_size=deletion_tolerance(D, p)))
    q = shrink_params_for_deletion(p)
    for rep, G, r in (
        (certify_outexpander_exact(D, p), D, p),
        (certify_inexpander_exact(D, p), D.reverse(), p),
        (certify_survives_deletion(D, p, removed), remove_vertices(D, removed), q),
    ):
        assert rep.counterexample == oracle_min_violating_set(G, r.nu, r.tau)


@settings(max_examples=24)
@given(
    n=st.sampled_from([15, 17]),
    density=st.floats(0.8, 1.0),
    reached_by=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_exact_certifiers_match_the_oracle_when_only_the_largest_sets_violate(
    n, density, reached_by, seed, data
):
    # At nu = tau = 1/20, ceil(nu*n) = 1 and the largest quantified size is
    # n - 1, so one vertex with at most one in-neighbour makes only sets of
    # n - 1 vertices violate, in a block that leaves few rows open, often
    # one.  The table block holds 2^14 sets, so n = 15 and 17 have 2 and 8.
    M = gen_random_digraph(n, density, seed).bool_matrix().copy()
    x = data.draw(st.integers(0, n - 1))
    M[np.flatnonzero(M[:, x])[reached_by:], x] = False
    D = Digraph(n, np.argwhere(M))
    p = ExpansionParams("1/20", "1/20")
    assert certify_outexpander_exact(D, p).counterexample == oracle_min_violating_set(
        D, p.nu, p.tau
    )


@st.composite
def falsifier_digraphs(draw):
    """D(n, p) from sparse to dense, or two random clusters with few arcs
    between them, where greedy growth inside one cluster refutes."""
    n = draw(st.integers(3, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return gen_random_digraph(n, draw(st.floats(0.02, 0.98)), seed)
    return two_clusters(n, draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 0.3)), seed)


@given(
    D=falsifier_digraphs(),
    nu_tau=st.sampled_from(
        [("1/20", "1/10"), ("1/10", "1/5"), ("1/8", "1/4"), ("1/4", "1/4"), ("1/5", "1/3")]
    ),
    trials=st.sampled_from([1, 2, 3, 255, 256, 257, 600]),
    seed=st.integers(0, 2**32 - 1),
)
def test_falsifier_matches_the_scalar_loop(D, nu_tau, trials, seed):
    p = ExpansionParams(*nu_tau)
    assert falsify_outexpander_sampled(D, p, trials, seed) == oracle_falsify_sampled(
        D, p, trials, seed
    )


@pytest.mark.parametrize("nu_tau", [("1/10", "2/5"), ("1/8", "1/4")])
@pytest.mark.parametrize("kind", ["gnp", "clusters"])
@pytest.mark.parametrize("n", [63, 64, 65, 129, 300])
def test_falsifier_matches_the_scalar_loop_past_one_packed_word(n, kind, nu_tau):
    # from 100 trials on, (1/10, 2/5) refutes none of the D(n, 0.3) and
    # each two-cluster digraph at a greedy trial; (1/8, 1/4) refutes all
    # ten, four of the D(n, 0.3) at a segment trial
    D = gen_random_digraph(n, 0.3, n) if kind == "gnp" else two_clusters(n, 0.9, 0.05, n)
    p = ExpansionParams(*nu_tau)
    for trials in (1, 100, 257):
        assert falsify_outexpander_sampled(D, p, trials, 7) == oracle_falsify_sampled(
            D, p, trials, 7
        )


@given(
    n=st.one_of(st.integers(1, 200), st.sampled_from([63, 64, 65])),
    density=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_packed_in_counts_are_row_sums(n, density, graph_seed, data):
    M = gen_random_digraph(n, density, graph_seed).bool_matrix().copy()
    M[sorted(data.draw(st.sets(st.integers(0, n - 1))))] = False  # arcless rows
    M = Digraph(n, np.argwhere(M)).bool_matrix()
    vertex = st.integers(0, n - 1)
    sets = [[], [data.draw(vertex)], list(range(n))]
    sets += data.draw(st.lists(st.lists(vertex, unique=True), max_size=5))
    inside = np.zeros((n, len(sets)), dtype=bool)
    for j, S in enumerate(sets):
        inside[S, j] = True
    counts = _in_counts(_column_words(M), _column_words(inside))
    assert counts.shape == (len(sets), n)
    for S, count in zip(sets, counts):
        assert (count == M[S].sum(axis=0)).all()


@given(
    n=st.integers(2, 40),
    density=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_lock_step_growth_counts_each_set_from_its_rows(n, density, graph_seed, data):
    M = gen_random_digraph(n, density, graph_seed).bool_matrix()
    k = data.draw(st.integers(0, 6))
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    targets = data.draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k))
    members = _grow_greedily(M, starts, targets)
    assert members.shape == (k, n) and members.dtype == bool
    counts = _in_counts(_column_words(M), _column_words(members.T))
    for row, start, target, count in zip(members, starts, targets, counts):
        S = np.flatnonzero(row)
        assert start in S and len(S) == target
        assert (count == M[S].sum(axis=0)).all()
