"""Property tests for the degree checkers: on digraphs of 3 to 40
vertices with uneven degrees and a grid of slack margins gamma, each
sorted-degree checker's verdict and first failure (index and clause) are
those of a literal per-i transcription of its rule; on oriented digraphs
of 1 to 30 vertices and a grid of margins eps, both flags of
oriented_semidegree are those of a per-vertex transcription, and one
digon added makes it raise NotOriented."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import (
    Digraph,
    asymptotic_nash_williams,
    nash_williams,
    oriented_semidegree,
    posa_type,
)
from dilink.errors import NotOriented

from helpers import reference_degree_conditions, reference_oriented_semidegree

GAMMAS = ("1/100", "1/20", "1/10", "1/8", "1/5", "1/4", "1/3", "2/5", "1/2", "3/4", "9/10")


@st.composite
def uneven_digraphs(draw):
    """Each arc u -> v present with probability a_u * b_v, for per-vertex
    weights drawn near a common density, so the sorted sequences vary."""
    n = draw(st.integers(3, 40))
    density = draw(st.sampled_from((0.4, 0.6, 0.8, 0.9, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = [min(1.0, density * rng.uniform(0.7, 1.2)) for _ in range(n)]
    b = [min(1.0, rng.uniform(0.8, 1.1)) for _ in range(n)]
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < a[u] * b[v]])


@given(uneven_digraphs(), st.sampled_from(GAMMAS))
def test_the_checkers_are_their_per_i_rules(D, gamma):
    reports = {
        "nash_williams": nash_williams(D),
        "asymptotic_nash_williams": asymptotic_nash_williams(D, gamma),
        "posa_type": posa_type(D, gamma),
    }
    got = {name: (r.satisfied, r.failing_index, r.failing_clause) for name, r in reports.items()}
    assert got == reference_degree_conditions(D, gamma)


EPSILONS = ("0", "1/100", "1/40", "1/20", "1/10")


@st.composite
def oriented_digraphs(draw):
    """Near-regular oriented digraphs: each pair {u, v} an arc with
    probability density, oriented as in the rotational tournament
    (u -> v iff v - u mod n is at most n/2) but reversed with probability
    flip, so the semidegrees sit near the checker's thresholds."""
    n = draw(st.integers(1, 30))
    density = draw(st.sampled_from((0.95, 0.99, 1.0)))
    flip = draw(st.sampled_from((0.0, 0.01, 0.03, 0.1)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                forward = ((v - u) % n <= n // 2) != (rng.random() < flip)
                arcs.append((u, v) if forward else (v, u))
    return Digraph(n, arcs)


@given(oriented_digraphs(), st.sampled_from(EPSILONS))
def test_oriented_semidegree_is_its_per_vertex_rule(D, epsilon):
    r = oriented_semidegree(D, epsilon)
    assert (r.semidegree_ok, r.degree_sum_ok) == reference_oriented_semidegree(D, epsilon)
    if D.arc_count:
        u, v = min(D.arcs)
        with pytest.raises(NotOriented):
            oriented_semidegree(Digraph(D.n, D.arcs | {(v, u)}), epsilon)
