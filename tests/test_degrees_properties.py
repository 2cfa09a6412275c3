"""Property test for the degree-sequence checkers: on digraphs of 3 to
40 vertices with uneven degrees and a grid of slack margins gamma, each
checker's verdict and first failure (index and clause) are those of a
literal per-i transcription of its rule."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph, asymptotic_nash_williams, nash_williams, posa_type

from helpers import reference_degree_conditions

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
