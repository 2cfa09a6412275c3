import re
from fractions import Fraction

import numpy as np
import pytest

from dilink import (
    Digraph,
    PipelineConfig,
    build_d_cover,
    gen_random_digraph,
    min_prescribed_length,
    nh_linked_embed,
    path_lengths,
    perfect_tiling,
    single_arc_pattern,
    triangle_pattern,
    validate_subdivision,
    validate_tiling,
)
from dilink.errors import BadParameter, PipelineFailed

CFG = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3, seed=0)


def test_config_validation_and_resolution():
    with pytest.raises(BadParameter):
        PipelineConfig(gamma=0, nu="1/4", tau="1/4")
    with pytest.raises(BadParameter):
        PipelineConfig(gamma="1/2", nu="1/4", tau="1/4", restart_budget=0)
    with pytest.raises(BadParameter):
        PipelineConfig(gamma="1/2", nu="1/4", tau="1/4", d=0)
    with pytest.raises(TypeError):
        PipelineConfig(gamma="1/2", nu="1/4")  # nu and tau are both required
    with pytest.raises(BadParameter):
        PipelineConfig(gamma="1/2", nu="1/2", tau="1/4")  # nu > tau, refused when built
    # built, a config holds the checked Fractions and an int d
    c = PipelineConfig(gamma="1/2", nu="1/4", tau=0.5, d=5)
    assert (c.nu, c.tau, c.gamma, c.d) == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), 5)
    assert all(type(x) is Fraction for x in (c.nu, c.tau, c.gamma)) and type(c.d) is int
    # no d given: the absorption theory's ceil(64 / nu^2), so the config
    # equals one built with that d
    theory = PipelineConfig(gamma="1/2", nu="1/4", tau="1/4")
    assert theory.d == 64 * 16
    assert theory == PipelineConfig(gamma=0.5, nu=Fraction(1, 4), tau="1/4", d=1024)
    assert PipelineConfig(gamma="1/2", nu="3/4", tau="3/4").d == 114  # ceil(113.77...)


def test_subdivision_embedding_single_arc():
    D = gen_random_digraph(300, 0.7, 0)
    H = single_arc_pattern()
    sub = nh_linked_embed(D, H, {0: 5, 1: 17}, [150], CFG)
    assert validate_subdivision(D, sub)
    assert path_lengths(sub) == (150,)
    assert dict(sub.branch_map) == {0: 5, 1: 17}


def test_subdivision_embedding_triangle_exact_lengths():
    D = gen_random_digraph(300, 0.7, 1)
    H = triangle_pattern()
    f = {0: 0, 1: 1, 2: 2}
    N = [55, 60, 70]
    sub = nh_linked_embed(D, H, f, N, CFG)
    assert validate_subdivision(D, sub)
    assert path_lengths(sub) == tuple(N)
    assert dict(sub.branch_map) == f


def test_embedding_feasibility_gates():
    D = gen_random_digraph(300, 0.7, 0)
    H = triangle_pattern()
    f = {0: 0, 1: 1, 2: 2}
    with pytest.raises(BadParameter):
        nh_linked_embed(D, H, f, [60, 60], CFG)  # wrong length count
    floor = min_prescribed_length(Fraction(3, 4))
    with pytest.raises(PipelineFailed) as e:
        nh_linked_embed(D, H, f, [floor - 1, 60, 60], CFG)
    assert e.value.stage == "feasibility"
    assert e.value.attempts == (("feasibility", str(e.value)),)  # no attempt ran
    with pytest.raises(PipelineFailed) as e2:
        nh_linked_embed(D, H, f, [100, 100, 101], CFG)  # sum(l-1) + |V(H)| = 301 > n
    assert e2.value.stage == "feasibility"
    with pytest.raises(PipelineFailed) as e3:
        nh_linked_embed(D, H, f, [60, 60, 60], PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=2))
    assert e3.value.stage == "feasibility"  # d < number of pattern arcs


def test_embedding_gate_is_the_exact_vertex_count():
    # sum(l - 1) + |V(H)| = 300 = n: the gate admits it and the subdivision spans D
    D = gen_random_digraph(300, 0.7, 0)
    f = {0: 0, 1: 1, 2: 2}
    sub = nh_linked_embed(D, triangle_pattern(), f, [100, 100, 100], CFG)
    assert validate_subdivision(D, sub)
    assert path_lengths(sub) == (100, 100, 100)
    assert len(sub.vertices()) == 300


def test_perfect_tiling_two_pieces():
    D = gen_random_digraph(200, 0.7, 2)
    H = single_arc_pattern()
    subs = perfect_tiling(D, H, [80, 120], CFG)
    assert validate_tiling(D, subs, [80, 120])
    assert len(subs[0].vertices()) == 80 and len(subs[1].vertices()) == 120


def test_perfect_tiling_order_checks():
    D = gen_random_digraph(200, 0.7, 2)
    H = single_arc_pattern()
    with pytest.raises(BadParameter, match="orders sum to 190, but the digraph has 200 vertices"):
        perfect_tiling(D, H, [80, 110], CFG)
    with pytest.raises(BadParameter):
        perfect_tiling(D, H, [], CFG)
    with pytest.raises(PipelineFailed) as e:
        perfect_tiling(D, H, [100, 40, 40, 20], CFG)  # k=4 > d=3
    assert e.value.stage == "feasibility"


def test_pipeline_determinism():
    D = gen_random_digraph(300, 0.7, 4)
    H = single_arc_pattern()
    a = nh_linked_embed(D, H, {0: 5, 1: 17}, [150], CFG)
    b = nh_linked_embed(D, H, {0: 5, 1: 17}, [150], CFG)
    assert a == b


def test_sparse_digraph_fails_with_stage_report():
    # sparse and small: the absorber cannot be built, so every restart
    # fails and the final error names the stage that broke
    D = gen_random_digraph(80, 0.1, 0)
    H = single_arc_pattern()
    cfg = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3, seed=0, restart_budget=2)
    with pytest.raises(PipelineFailed) as e:
        nh_linked_embed(D, H, {0: 0, 1: 1}, [60], cfg)
    assert e.value.stage in ("absorber", "cycle", "absorb", "validate")


def _starved_digraph(seed, n=400, s=150):
    # D(n, 0.7) whose s vertices in S send arcs only into a set T of s - 3.
    # On a host path every S vertex but the path's last is followed by a T
    # vertex, so with two single-arc hosts D - V(A) keeps more S vertices
    # than T vertices: their out-neighbours violate Hall's condition, and
    # no 1-factor exists whenever the absorber builds
    M = gen_random_digraph(n, 0.7, seed).bool_matrix().copy()
    r = np.random.default_rng(seed).permutation(n)
    S, T = r[:s], r[s:2 * s - 3]
    M[np.ix_(S, np.setdiff1d(np.arange(n), T))] = False
    return Digraph(n, np.argwhere(M))


def _two_disjoint_halves(half):
    M = np.zeros((2 * half, 2 * half), dtype=bool)
    M[:half, :half] = gen_random_digraph(half, 0.7, 0).bool_matrix()
    M[half:, half:] = gen_random_digraph(half, 0.7, 1).bool_matrix()
    return Digraph(2 * half, np.argwhere(M))


def test_leftover_without_a_one_factor_fails_at_the_cycle_stage_with_a_proof():
    # whichever attempts build an absorber, each one that reaches the
    # cycle stage ends with a Hall violator as its proof
    cfg = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3, seed=1)
    with pytest.raises(PipelineFailed) as e:
        perfect_tiling(_starved_digraph(1), single_arc_pattern(), [200, 200], cfg)
    proofs = [reason for stage, reason in e.value.attempts if stage == "cycle"]
    assert proofs
    assert all(re.search(r"no 1-factor: .* vertex \d+ ", reason) for reason in proofs)


def test_pipeline_failure_keeps_every_attempt():
    # the last attempt fails at the absorber, so only the history shows
    # the earlier proofs that the leftover had no 1-factor
    cfg = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3, seed=5)
    with pytest.raises(PipelineFailed) as e:
        perfect_tiling(_starved_digraph(1), single_arc_pattern(), [200, 200], cfg)
    assert len(e.value.attempts) == 3
    assert e.value.stage == "absorber" == e.value.attempts[-1][0]
    assert str(e.value).startswith(e.value.attempts[-1][1])
    assert any("no 1-factor" in reason for _, reason in e.value.attempts[:-1])
    assert "no 1-factor" in str(e.value)


def test_retries_do_not_multiply(monkeypatch):
    # no cover of two disjoint halves exists, so every attempt fails at the
    # absorber, and each attempt grows a cover exactly once
    calls = []
    monkeypatch.setattr(
        "dilink.absorber.build_d_cover", lambda *a, **k: calls.append(1) or build_d_cover(*a, **k)
    )
    cfg = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3, seed=0, restart_budget=2)
    with pytest.raises(PipelineFailed) as e:
        perfect_tiling(_two_disjoint_halves(100), single_arc_pattern(), [100, 100], cfg)
    assert e.value.stage == "absorber"
    assert [s for s, _ in e.value.attempts] == ["absorber", "absorber"]
    assert len(calls) == 2


def test_a_slot_without_room_fails_at_the_absorber_before_the_cycle(monkeypatch):
    # a length-50 path cannot carry the ladders of a 3-cover of D(300, 0.7):
    # each attempt grows one cover, finds that its slot leaves no room for
    # a segment, and ends before any cycle work starts
    calls = []
    monkeypatch.setattr(
        "dilink.absorber.build_d_cover",
        lambda *a, **k: calls.append("cover") or build_d_cover(*a, **k),
    )
    monkeypatch.setattr(
        "dilink.pipeline.hamilton_cycle", lambda *a, **k: calls.append("hamilton_cycle")
    )
    with pytest.raises(PipelineFailed) as e:
        D = gen_random_digraph(300, 0.7, 0)
        nh_linked_embed(D, single_arc_pattern(), {0: 0, 1: 1}, [50], CFG)
    assert e.value.stage == "absorber"
    assert len(e.value.attempts) == 3 and calls == ["cover"] * 3
    for stage, reason in e.value.attempts:
        assert stage == "absorber"
        assert re.fullmatch(r"slot \(0, \(0, 1\)\) has room -?\d+, below 2", reason)


def test_uncoverable_vertex_fails_at_the_absorber_stage():
    M = gen_random_digraph(200, 0.7, 0).bool_matrix().copy()
    M[0, :] = False
    with pytest.raises(PipelineFailed, match="vertex 0 has only 0 out-neighbours") as e:
        perfect_tiling(Digraph(200, np.argwhere(M)), single_arc_pattern(), [100, 100], CFG)
    assert e.value.stage == "absorber"
    assert len(e.value.attempts) == 1  # a proof about the input ends the retries
