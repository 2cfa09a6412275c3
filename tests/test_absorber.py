import dataclasses
import random
from fractions import Fraction

import pytest

from dilink import (
    Absorber,
    CoverPairSet,
    ExpansionParams,
    HSubdivision,
    absorb_paths,
    absorber_params,
    absorber_size_bound,
    build_type1_absorber,
    build_type2_absorber,
    covers,
    cut_cycle_segments,
    gen_random_digraph,
    hamilton_cycle,
    ladder_on_path,
    path_lengths,
    remove_vertices,
    single_arc_pattern,
    subdivision_order,
    triangle_pattern,
    validate_absorber,
    validate_subdivision,
    validate_tiling,
)
from dilink.absorber import _covering, cut_absorbable_segments
from dilink.errors import (
    BadParameter,
    NoCoveringPair,
    NotDisjoint,
    SizesExceedCycle,
    TooManyPaths,
)

P_DEFAULT = ExpansionParams("3/4", "3/4", "1/2")


def _dense(seed=0, n=200, p=0.7):
    return gen_random_digraph(n, p, seed)


def _leftover_segments(D, A, sizes, seed=0):
    """Disjoint paths outside the absorber, cut from a leftover cycle."""
    removal = remove_vertices(D, A.vertices())
    C = hamilton_cycle(removal.digraph, seed)
    C = tuple(removal.new_to_old[x] for x in C)
    return cut_cycle_segments(C, sizes, seed)


def test_theory_scale_parameters():
    ap = absorber_params(1)
    assert ap.xi == Fraction(1, 32)
    assert ap.d == 64
    ap2 = absorber_params("1/2")
    assert ap2.xi == Fraction(1, 128)
    assert ap2.d == 256
    with pytest.raises(BadParameter):
        absorber_params(0)


def test_size_bound_grows_with_d_and_n():
    b = absorber_size_bound(400, 0.75, 0.5, 8)
    assert b > absorber_size_bound(400, 0.75, 0.5, 4)
    assert b > absorber_size_bound(200, 0.75, 0.5, 8)
    assert absorber_size_bound(400, 0.5, 0.5, 8) > b


def test_size_bound_rejects_n_or_d_below_one():
    for n, d in ((0, 3), (100, 0)):
        with pytest.raises(BadParameter, match="must be >= 1"):
            absorber_size_bound(n, "3/4", "1/2", d)


def test_type1_build_structure():
    D = _dense()
    H = single_arc_pattern()
    f = {0: 0, 1: 1}
    A = build_type1_absorber(D, H, f, P_DEFAULT, d=3, seed=0)
    assert len(A.hosts) == 1 and A.slots == ((0, (0, 1)),)
    assert A.d == 3
    assert len(A.ladders) == len(A.pairs)
    assert validate_absorber(D, A)
    # host runs between the branch images and leaves absorption headroom
    host_path = A.hosts[0].paths[(0, 1)]
    assert host_path[0] == 0 and host_path[-1] == 1
    assert len(host_path) <= 129
    assert dict(A.hosts[0].branch_map) == f
    # every ladder really sits on its claimed path
    for i, L in enumerate(A.ladders):
        assert ladder_on_path(L, A.hosts[0].paths[A.embedding[i][1]])
    # ladder i joins pair i
    for (u, v), L in zip(A.pairs, A.ladders):
        assert L.start == u and L.end == v


def test_type1_respects_branch_images():
    D = _dense(3)
    H = triangle_pattern()
    f = {0: 10, 1: 20, 2: 30}
    A = build_type1_absorber(D, H, f, P_DEFAULT, d=3, seed=1)
    assert validate_absorber(D, A)
    assert dict(A.hosts[0].branch_map) == f
    for arc in H.arc_order:
        p = A.hosts[0].paths[arc]
        assert p[0] == f[arc[0]] and p[-1] == f[arc[1]]


def test_type2_build_structure():
    D = _dense(7)
    H = single_arc_pattern()
    A = build_type2_absorber(D, H, 2, P_DEFAULT, d=3, seed=0)
    assert A.slots == ((0, (0, 1)), (1, (0, 1)))
    assert len(A.hosts) == 2
    assert validate_absorber(D, A)
    # hosts are disjoint and leave room to grow to the exact orders
    assert not (A.hosts[0].vertices() & A.hosts[1].vertices())
    for hi, host in enumerate(A.hosts):
        assert subdivision_order(host) <= 100 - 2
    # each ladder sits on its claimed host path
    for i, L in enumerate(A.ladders):
        hi, arc = A.embedding[i]
        assert ladder_on_path(L, A.hosts[hi].paths[arc])


def test_validate_absorber_catches_tampering():
    D = _dense()
    H = single_arc_pattern()
    A = build_type1_absorber(D, H, {0: 0, 1: 1}, P_DEFAULT, d=3, seed=0)
    # a ladder without its pair can't even be constructed
    with pytest.raises(BadParameter):
        Absorber(A.pairs, A.ladders[:-1], A.hosts, dict(A.embedding), A.d, A.slots)
    problems: list[str] = []
    # swap two pairs without touching the ladders: alignment breaks
    flipped = CoverPairSet((A.pairs.pairs[1], A.pairs.pairs[0]) + A.pairs.pairs[2:])
    assert not validate_absorber(
        D, Absorber(flipped, A.ladders, A.hosts, A.embedding, A.d, A.slots), problems
    )
    assert problems
    # point a ladder at the wrong arc: embedding must fail
    wrong = Absorber(A.pairs, A.ladders, A.hosts, dict(A.embedding) | {0: (0, (9, 9))}, A.d, A.slots)
    assert not validate_absorber(D, wrong)
    # claim a higher multiplicity than the cover provides
    greedy = Absorber(A.pairs, A.ladders, A.hosts, A.embedding, 64, A.slots)
    assert not validate_absorber(D, greedy)


def test_validate_absorber_flags_a_pattern_arc_without_ladders():
    D = _dense(3)
    H = triangle_pattern()
    A = build_type1_absorber(D, H, {0: 10, 1: 20, 2: 30}, P_DEFAULT, d=3, seed=1)
    bare = (2, 0)
    keep = [i for i in range(len(A.ladders)) if A.embedding[i] != (0, bare)]
    assert 0 < len(keep) < len(A.ladders)
    T = Absorber(
        CoverPairSet(tuple(A.pairs.pairs[i] for i in keep)),
        tuple(A.ladders[i] for i in keep),
        A.hosts,
        {s: A.embedding[i] for s, i in enumerate(keep)},
        A.d,
        A.slots,
    )
    problems: list[str] = []
    assert not validate_absorber(D, T, problems)
    assert any("without any ladder" in p and str(bare) in p for p in problems)


def _spare_host(D, H, A, share: bool) -> HSubdivision:
    """A one-arc subdivision outside A, or sharing its tail with host 0."""
    inside = A.hosts[0].vertices() if share else frozenset(range(D.n))
    u, v = next(
        (u, v) for u, v in sorted(D.arcs)
        if u in inside and (share or u not in A.vertices()) and v not in A.vertices()
    )
    return HSubdivision(H, {0: u, 1: v}, {(0, 1): (u, v)})


def test_validate_absorber_flags_a_host_without_ladders():
    D = _dense(7)
    H = single_arc_pattern()
    A = build_type2_absorber(D, H, 2, P_DEFAULT, d=3, seed=0)
    spare = _spare_host(D, H, A, share=False)
    T = Absorber(
        A.pairs, A.ladders, A.hosts + (spare,), A.embedding, A.d, A.slots + ((2, (0, 1)),)
    )
    problems: list[str] = []
    assert not validate_absorber(D, T, problems)
    assert len(problems) == 1 and "without any ladder" in problems[0]


def test_validate_absorber_flags_hosts_that_share_a_vertex():
    D = _dense(7)
    H = single_arc_pattern()
    A = build_type2_absorber(D, H, 2, P_DEFAULT, d=3, seed=0)
    spare = _spare_host(D, H, A, share=True)
    T = Absorber(
        A.pairs, A.ladders, A.hosts + (spare,), A.embedding, A.d, A.slots + ((2, (0, 1)),)
    )
    problems: list[str] = []
    assert not validate_absorber(D, T, problems)
    assert "host 2 overlaps an earlier host" in problems


def test_absorb_paths_type1_roundtrip():
    D = _dense()
    H = single_arc_pattern()
    A = build_type1_absorber(D, H, {0: 0, 1: 1}, P_DEFAULT, d=3, seed=0)
    missing = 130 + 1 - len(A.hosts[0].paths[(0, 1)])
    segs = _leftover_segments(D, A, [missing])
    [sub] = absorb_paths(D, A, segs, [(0, (0, 1))])
    assert validate_subdivision(D, sub)
    assert path_lengths(sub) == (130,)
    assert sub.vertices() == A.vertices() | set(segs[0])


def test_absorb_paths_type1_multiple_segments():
    D = _dense(11, n=260)
    H = triangle_pattern()
    f = {0: 0, 1: 1, 2: 2}
    N = [55, 60, 65]
    A = build_type1_absorber(D, H, f, P_DEFAULT, d=3, seed=2)
    arcs = H.arc_order
    sizes = [N[i] + 1 - len(A.hosts[0].paths[a]) for i, a in enumerate(arcs)]
    segs = _leftover_segments(D, A, sizes, seed=1)
    [sub] = absorb_paths(D, A, segs, A.slots)
    assert validate_subdivision(D, sub)
    assert path_lengths(sub) == tuple(N)


def test_one_path_at_a_time_matches_batch_absorption():
    """Absorbing the paths singly — rebuilding the absorber around the
    enlarged host and the unused pairs after each call — ends on exactly
    the vertex set of the batched call, even in the opposite order."""
    D = _dense(3)
    H = single_arc_pattern()
    A = build_type1_absorber(D, H, {0: 0, 1: 1}, P_DEFAULT, d=3, seed=3)
    segs = _leftover_segments(D, A, [12, 9, 15], seed=3)
    [batch] = absorb_paths(D, A, segs)
    assert batch.vertices() == A.vertices() | {v for s in segs for v in s}

    cur = A
    for seg in reversed(segs):
        [out] = absorb_paths(D, cur, [seg])
        # the splice runs pair.u, seg..., pair.v: read off the pair used
        path = next(p for p in out.paths.values() if seg[0] in p)
        u = path[path.index(seg[0]) - 1]
        v = path[path.index(seg[-1]) + 1]
        j = cur.pairs.pairs.index((u, v))
        keep = [t for t in range(len(cur.pairs)) if t != j]
        cur = Absorber(
            CoverPairSet(tuple(cur.pairs.pairs[t] for t in keep)),
            tuple(cur.ladders[t] for t in keep),
            (out,),
            {s: cur.embedding[t] for s, t in enumerate(keep)},
            cur.d,
            cur.slots,
        )
    assert cur.hosts[0].vertices() == batch.vertices()
    assert validate_subdivision(D, cur.hosts[0])


def test_absorb_paths_type2_index_alignment():
    D = _dense(7)
    H = single_arc_pattern()
    A = build_type2_absorber(D, H, 2, P_DEFAULT, d=3, seed=0)
    sizes = [100 - subdivision_order(A.hosts[0]), 100 - subdivision_order(A.hosts[1])]
    segs = _leftover_segments(D, A, sizes, seed=5)
    subs = absorb_paths(D, A, segs, A.slots)
    assert len(subs) == 2
    for i, s in enumerate(subs):
        assert validate_subdivision(D, s)
        assert len(s.vertices()) == 100
        assert set(segs[i]) <= s.vertices()


def _leftover_cycle(D, A, seed=0):
    removal = remove_vertices(D, A.vertices())
    return tuple(removal.new_to_old[x] for x in hamilton_cycle(removal.digraph, seed))


def test_absorb_paths_puts_each_path_into_its_slot():
    # cut for the slots in reverse order, so segment 0 has a pair on host 1
    D = _dense(7)
    A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    flipped = dataclasses.replace(A, slots=A.slots[::-1])
    sizes = [100 - subdivision_order(h) for h in A.hosts[::-1]]
    segs = cut_absorbable_segments(D, flipped, _leftover_cycle(D, A), sizes, seed=2)
    subs = absorb_paths(D, A, segs, flipped.slots)
    assert set(segs[0]) <= subs[1].vertices() and set(segs[1]) <= subs[0].vertices()
    assert validate_tiling(D, subs, [100, 100])


def test_covering_agrees_with_covers():
    D = _dense(7)
    A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    rng = random.Random(4)
    outside = sorted(set(range(D.n)) - A.vertices())
    x = [rng.choice(outside) for _ in range(300)]
    y = [rng.choice(outside) if t % 5 else x[t] for t in range(300)]  # some x == y
    for slot in (None,) + A.slots:
        cov = _covering(D, A, x, y, slot)
        assert cov.shape == (len(A.pairs), 300)
        for j, pair in enumerate(A.pairs.pairs):
            on = slot is None or A.embedding[j] == slot
            assert cov[j].tolist() == [on and covers(D, pair, e) for e in zip(x, y)]


def test_cut_absorbable_segments_serves_every_slot():
    D = _dense(7)
    A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    C = _leftover_cycle(D, A)
    sizes = [100 - subdivision_order(h) for h in A.hosts]
    for seed in range(5):
        segs = cut_absorbable_segments(D, A, C, sizes, seed)
        assert [len(s) for s in segs] == sizes
        at = C.index(segs[0][0])  # consecutive along the cycle, in order
        assert [v for s in segs for v in s] == [C[(at + j) % len(C)] for j in range(sum(sizes))]
        for slot, seg in zip(A.slots, segs):
            assert any(covers(D, A.pairs.pairs[j], (seg[0], seg[-1]))
                       for j, at_slot in A.embedding.items() if at_slot == slot)
        subs = absorb_paths(D, A, segs, A.slots)
        assert validate_tiling(D, subs, [100, 100])


def test_cut_absorbable_segments_guardrails():
    D = _dense(7)
    A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    C = _leftover_cycle(D, A)
    with pytest.raises(NoCoveringPair) as e:
        cut_absorbable_segments(D, A, C, [4, 1])  # one vertex has no two ends to cover
    assert e.value.index == 1
    with pytest.raises(SizesExceedCycle):
        cut_absorbable_segments(D, A, C, [len(C), 2])
    with pytest.raises(TooManyPaths):
        cut_absorbable_segments(D, A, C, [4, 4, 4])  # two slots only


def test_absorb_paths_guardrails():
    D = _dense()
    H = single_arc_pattern()
    A = build_type1_absorber(D, H, {0: 0, 1: 1}, P_DEFAULT, d=3, seed=0)
    segs = _leftover_segments(D, A, [4, 4, 4, 4])
    with pytest.raises(TooManyPaths):
        absorb_paths(D, A, segs)  # 4 paths > d = 3
    with pytest.raises(NotDisjoint):
        absorb_paths(D, A, [segs[0], segs[0]])
    host_path = A.hosts[0].paths[(0, 1)]
    with pytest.raises(NotDisjoint):
        absorb_paths(D, A, [host_path[1:3]])  # inside the absorber
    from dilink.errors import InvalidPath

    with pytest.raises(InvalidPath):
        absorb_paths(D, A, [(segs[0][0], segs[0][1], segs[0][0])])  # repeated vertex


def test_absorb_paths_rejects_unservable_targets():
    D = _dense(11, n=260)
    H = triangle_pattern()
    N = [55, 60, 65]
    A = build_type1_absorber(D, H, {0: 0, 1: 1, 2: 2}, P_DEFAULT, d=3, seed=2)
    segs = _leftover_segments(D, A, [4])
    with pytest.raises(BadParameter):
        absorb_paths(D, A, segs, [(0, (0, 1)), (0, (1, 2))])  # count mismatch
    # a slot is (host index, pattern arc); an arc or a host index alone is none
    A2 = build_type2_absorber(_dense(7), single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    segs2 = _leftover_segments(_dense(7), A2, [4])
    for bad in ([], [(0, 1)], [2], [(2, (0, 1))], [(0, (1, 0))], [[0, (0, 1)]]):
        with pytest.raises(BadParameter):
            absorb_paths(_dense(7), A2, segs2, bad)


def test_build_rejects_bad_arguments():
    D = _dense()
    H = single_arc_pattern()
    with pytest.raises(BadParameter):
        build_type1_absorber(D, H, {0: 0}, P_DEFAULT, 3, 0)
    with pytest.raises(BadParameter):
        build_type1_absorber(D, H, {0: 0, 1: 0}, P_DEFAULT, 3, 0)
    with pytest.raises(BadParameter):
        build_type2_absorber(D, H, 2, P_DEFAULT, d=1, seed=0)  # k > d
    with pytest.raises(BadParameter):
        build_type2_absorber(D, H, 0, P_DEFAULT, d=3, seed=0)
    with pytest.raises(BadParameter):  # k |V(H)| = 202 branch vertices > n = 200
        build_type2_absorber(D, H, 101, P_DEFAULT, d=101, seed=0)
