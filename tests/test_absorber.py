import copy
import dataclasses
import random

import pytest

from dilink import (
    Absorber,
    ExpansionParams,
    HSubdivision,
    Ladder,
    PipelineConfig,
    absorb_paths,
    absorber_size_bound,
    build_type1_absorber,
    build_type2_absorber,
    complete_digraph,
    covers,
    cut_cycle_segments,
    gen_random_digraph,
    hamilton_cycle,
    ladder_on_path,
    path_lengths,
    single_arc_ladder,
    single_arc_pattern,
    subdivision_order,
    triangle_pattern,
    validate_absorber,
    validate_subdivision,
    validate_tiling,
)
from dilink import absorber
from dilink.absorber import cut_absorbable_segments
from dilink.errors import BadParameter, ConstructionFailed

P_DEFAULT = ExpansionParams("3/4", "3/4", "1/2")


def _dense(seed=0, n=200, p=0.7):
    return gen_random_digraph(n, p, seed)


def _leftover_segments(D, A, sizes, seed=0):
    """Disjoint paths outside the absorber, cut from a leftover cycle."""
    C = hamilton_cycle(D, seed, avoid=A.vertices())
    return cut_cycle_segments(C, sizes, seed)


def test_theory_scale_parameters():
    # d = ceil(64 / nu^2), the absorption theory's xi = nu^2 / 32
    assert PipelineConfig(gamma="1/2", nu=1, tau=1).d == 64
    assert PipelineConfig(gamma="1/2", nu="1/2", tau="1/2").d == 256
    assert PipelineConfig(gamma="1/2", nu="1/3", tau="1/2").d == 576
    with pytest.raises(BadParameter):
        PipelineConfig(gamma="1/2", nu=0, tau="1/2")


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
    # every ladder really sits on the path of its slot, the only one here
    for L in A.ladders:
        assert ladder_on_path(L, host_path)
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
    # ladder j sits on slot j mod 2, host j mod 2's path
    for j, L in enumerate(A.ladders):
        assert ladder_on_path(L, A.hosts[j % 2].paths[(0, 1)])


def test_a_build_that_fails_validation_says_why(monkeypatch):
    monkeypatch.setattr(absorber, "verify_d_cover", lambda *args: False)
    with pytest.raises(
        ConstructionFailed, match="^absorber failed validation: .*is not a 3-cover"
    ):
        build_type1_absorber(_dense(), single_arc_pattern(), {0: 0, 1: 1}, P_DEFAULT, 3, 0)


def test_validate_absorber_catches_tampering():
    D = _dense()
    H = single_arc_pattern()
    A = build_type1_absorber(D, H, {0: 0, 1: 1}, P_DEFAULT, d=3, seed=0)
    # K is the ladders' ends, so ladders sharing an end can't even be built
    assert A.pairs.pairs == tuple((L.start, L.end) for L in A.ladders)
    with pytest.raises(BadParameter, match="disjoint"):
        Absorber(A.ladders + A.ladders[:1], A.hosts, A.d, A.slots)
    # a slot on a path the host lacks carries nothing
    problems: list[str] = []
    assert not validate_absorber(D, dataclasses.replace(A, slots=((0, (9, 9)),)), problems)
    assert problems == ["slot 0 names no host path"]
    # claim a higher multiplicity than the cover provides
    greedy = Absorber(A.ladders, A.hosts, 64, A.slots)
    assert not validate_absorber(D, greedy)


@pytest.mark.parametrize("slots", [(), ((0, (0, 1)), (0, (0, 1)))], ids=["empty", "repeated"])
def test_absorber_refuses_empty_or_repeated_slots(slots):
    # ladder j sits on slots[j % len(slots)]: that needs slots, each named once
    A = build_type1_absorber(_dense(), single_arc_pattern(), {0: 0, 1: 1}, P_DEFAULT, d=3, seed=0)
    with pytest.raises(BadParameter, match="slot"):
        Absorber(A.ladders, A.hosts, A.d, slots)


K12 = complete_digraph(12)
# on K12 every row of distinct vertices is a path: a k = 1 ladder from 0
# to 3 with its connector 1 -> 4, and a host path from 10 to 11
K12_LADDER = Ladder((0, 1, 2), (3, 4, 5), {1: (1, 4)})
K12_HOST = HSubdivision(single_arc_pattern(), {0: 10, 1: 11}, {(0, 1): (10, 11)})


@pytest.mark.parametrize(
    "ladders, host, problem",
    [
        ((Ladder((0, 1), (3, 4), {}),), K12_HOST, "ladder 0 invalid"),
        ((K12_LADDER, single_arc_ladder(1, 6)), K12_HOST, "ladder 1 overlaps an earlier ladder"),
        ((K12_LADDER,), dataclasses.replace(K12_HOST, paths={(0, 1): (10, 9)}),
         "host 0 subdivision invalid"),
    ],
    ids=["ladder-of-even-rows", "ladder-through-another", "host-path-off-its-branch-vertex"],
)
def test_validate_absorber_names_the_ladder_or_host_at_fault(ladders, host, problem):
    A = Absorber(ladders, (host,), 1, ((0, (0, 1)),))
    problems: list[str] = []
    assert not validate_absorber(K12, A, problems)
    assert problem in problems


def test_absorber_refuses_no_hosts():
    with pytest.raises(BadParameter, match="^at least one host subdivision required$"):
        Absorber((K12_LADDER,), (), 1, ((0, (0, 1)),))


def test_validate_absorber_flags_ladders_dealt_to_the_wrong_paths():
    # the same ladders read under another slot order lie off their paths,
    # except the middle slot's, which keeps its place
    D = _dense(3)
    A = build_type1_absorber(D, triangle_pattern(), {0: 10, 1: 20, 2: 30}, P_DEFAULT, d=3, seed=1)
    problems: list[str] = []
    assert not validate_absorber(D, dataclasses.replace(A, slots=A.slots[::-1]), problems)
    assert problems == [
        f"a ladder of slot {g} is not embedded in host 0 arc {arc}"
        for g, (_, arc) in enumerate(A.slots[::-1]) if g != 1
    ]


def test_validate_absorber_flags_a_pattern_arc_without_ladders():
    D = _dense(3)
    H = triangle_pattern()
    A = build_type1_absorber(D, H, {0: 10, 1: 20, 2: 30}, P_DEFAULT, d=3, seed=1)
    # two ladders for three slots: the third slot's path carries none
    _, bare = A.slots[2]
    T = Absorber(A.ladders[:2], A.hosts, A.d, A.slots)
    problems: list[str] = []
    assert not validate_absorber(D, T, problems)
    assert f"host 0 arc {bare} carries no ladder" in problems


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
    # two ladders for three slots, the third on the spare host
    T = Absorber(A.ladders[:2], A.hosts + (spare,), A.d, A.slots + ((2, (0, 1)),))
    problems: list[str] = []
    assert not validate_absorber(D, T, problems)
    assert problems == [
        "K is not a 3-cover of the whole vertex set", "host 2 arc (0, 1) carries no ladder"
    ]


def test_validate_absorber_flags_hosts_that_share_a_vertex():
    D = _dense(7)
    H = single_arc_pattern()
    A = build_type2_absorber(D, H, 2, P_DEFAULT, d=3, seed=0)
    spare = _spare_host(D, H, A, share=True)
    T = Absorber(A.ladders, A.hosts + (spare,), A.d, A.slots)
    problems: list[str] = []
    assert not validate_absorber(D, T, problems)
    assert problems == ["host 2 overlaps an earlier host"]


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
        cur = Absorber(tuple(cur.ladders[t] for t in keep), (out,), cur.d, cur.slots)
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
    return hamilton_cycle(D, seed, avoid=A.vertices())


def test_absorb_paths_puts_each_path_into_its_slot():
    # list the hosts and the slots in reverse order: ladder j still sits on
    # the same path, now host 1 - j mod 2, so segment 0 has a pair on host 1
    D = _dense(7)
    A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    flipped = dataclasses.replace(A, hosts=A.hosts[::-1], slots=A.slots[::-1])
    assert flipped.slots[0] == (1, (0, 1)) and validate_absorber(D, flipped)
    sizes = [100 - subdivision_order(h) for h in A.hosts]
    segs = cut_absorbable_segments(D, flipped, _leftover_cycle(D, A), sizes, seed=2)
    subs = absorb_paths(D, flipped, segs, flipped.slots)
    assert set(segs[0]) <= subs[1].vertices() and set(segs[1]) <= subs[0].vertices()
    assert validate_tiling(D, subs, [100, 100])


def _pair_used(sub, path):
    """The pair (u, v) whose ladder absorbed path, read off the splice
    u, path..., v in the host."""
    hp = next(q for q in sub.paths.values() if path[0] in q)
    return hp[hp.index(path[0]) - 1], hp[hp.index(path[-1]) + 1]


def test_absorb_paths_picks_the_first_covering_pair_on_the_slot():
    # path x...y on slot g takes the lowest j = g (mod s) with K[j] covering
    # (x, y); with no slot, the lowest j of all
    D = _dense(7)
    A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    K, s = A.pairs.pairs, len(A.slots)
    C = _leftover_cycle(D, A)
    rng = random.Random(4)
    for _ in range(40):
        [path] = cut_cycle_segments(C, [rng.randint(2, 6)], rng.randrange(len(C)))
        for g, slot in [(None, None)] + list(enumerate(A.slots)):
            first = next((j for j in range(len(K)) if (g is None or j % s == g)
                          and covers(D, K[j], (path[0], path[-1]))), None)
            if first is None:
                no_pair = "^no unused covering pair for path #0$"
                with pytest.raises(ConstructionFailed, match=no_pair):
                    absorb_paths(D, A, [path], None if slot is None else [slot])
                continue
            subs = absorb_paths(D, A, [path], None if slot is None else [slot])
            hi = A.slots[first % s][0]
            assert _pair_used(subs[hi], path) == K[first]
            assert set(path) <= subs[hi].vertices()


@pytest.mark.parametrize("kind", ["type1", "type2"])
@pytest.mark.parametrize("d", [3, 5])
def test_any_d_outside_paths_absorb_without_slots(kind, d):
    """The counting argument: K d-covers V(D), so any d or fewer disjoint
    paths outside V(A), of two or more vertices each, get distinct
    covering pairs first-fit, and each host gains exactly its paths."""
    D = _dense(5)
    for seed in range(3):
        if kind == "type1":
            A = build_type1_absorber(D, triangle_pattern(), {0: 0, 1: 1, 2: 2}, P_DEFAULT, d, seed)
        else:
            A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d, seed)
        C = _leftover_cycle(D, A, seed)
        rng = random.Random(seed)
        for _ in range(10):
            k = rng.randint(1, d)  # k paths, 1..20 cycle vertices between them
            sizes = [rng.randint(2, 12) if t % 2 == 0 else rng.randint(1, 20)
                     for t in range(2 * k - 1)]
            paths = cut_cycle_segments(C, sizes, rng.randrange(len(C)))[::2]
            subs = absorb_paths(D, A, paths)
            for old, new in zip(A.hosts, subs):
                assert validate_subdivision(D, new)
                gained = new.vertices() - old.vertices()
                assert old.vertices() <= new.vertices()
                assert gained == {v for p in paths if p[0] in gained for v in p}
            absorbed = {v for p in paths for v in p}
            assert sum(len(h.vertices()) for h in subs) == len(A.vertices()) + len(absorbed)
            assert set().union(*(h.vertices() for h in subs)) == A.vertices() | absorbed


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
        for g, seg in enumerate(segs):  # slot g holds pairs g, g + 2, ...
            assert any(covers(D, pair, (seg[0], seg[-1])) for pair in A.pairs.pairs[g::2])
        subs = absorb_paths(D, A, segs, A.slots)
        assert validate_tiling(D, subs, [100, 100])


def test_cut_absorbable_segments_covers_each_segment_from_its_own_slot():
    # two pairs per slot, so many offsets lack a covering pair on some slot
    D = _dense(7)
    A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    few = Absorber(A.ladders[:4], A.hosts, A.d, A.slots)
    C = _leftover_cycle(D, A)
    sizes = [3, 4]

    def serves(o):  # segment g's ends are covered by a pair g, g + 2
        ends = [(C[(o + a) % len(C)], C[(o + b - 1) % len(C)]) for a, b in ((0, 3), (3, 7))]
        return all(any(covers(D, pair, e) for pair in few.pairs.pairs[g::2])
                   for g, e in enumerate(ends))

    works = {o for o in range(len(C)) if serves(o)}
    assert 0 < len(works) < len(C)
    for seed in range(20):
        segs = cut_absorbable_segments(D, few, C, sizes, seed)
        assert [len(seg) for seg in segs] == sizes and C.index(segs[0][0]) in works


def test_cut_absorbable_segments_guardrails():
    D = _dense(7)
    A = build_type2_absorber(D, single_arc_pattern(), 2, P_DEFAULT, d=3, seed=0)
    C = _leftover_cycle(D, A)
    with pytest.raises(ConstructionFailed, match=r"^no cycle offset gives segments 0\.\.1 "):
        cut_absorbable_segments(D, A, C, [4, 1])  # one vertex has no two ends to cover
    with pytest.raises(BadParameter, match=rf"^segment sizes sum to {len(C) + 2} > {len(C)} "):
        cut_absorbable_segments(D, A, C, [len(C), 2])
    with pytest.raises(BadParameter, match="^3 segments exceed the 2 slots$"):
        cut_absorbable_segments(D, A, C, [4, 4, 4])  # two slots only
    # a cycle through all of V(D) runs through V(A)
    with pytest.raises(BadParameter, match="^the cycle meets the absorber$"):
        cut_absorbable_segments(D, A, hamilton_cycle(D, 0), [4, 4])


def test_absorb_paths_guardrails():
    D = _dense()
    H = single_arc_pattern()
    A = build_type1_absorber(D, H, {0: 0, 1: 1}, P_DEFAULT, d=3, seed=0)
    segs = _leftover_segments(D, A, [4, 4, 4, 4])
    with pytest.raises(BadParameter, match="^4 paths exceed d = 3$"):
        absorb_paths(D, A, segs)
    with pytest.raises(BadParameter, match="^path 1 meets an earlier path$"):
        absorb_paths(D, A, [segs[0], segs[0]])
    host_path = A.hosts[0].paths[(0, 1)]
    with pytest.raises(BadParameter, match="^path 0 meets the absorber$"):
        absorb_paths(D, A, [host_path[1:3]])
    with pytest.raises(BadParameter, match="^path 0 is not a valid path of the digraph$"):
        absorb_paths(D, A, [(segs[0][0], segs[0][1], segs[0][0])])  # repeated vertex
    with pytest.raises(BadParameter, match="^path 0 has fewer than 2 vertices$"):
        absorb_paths(D, A, [segs[0][:1]])  # x = y: no pair covers one vertex


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
    # a repeated slot: first fit could not promise two paths a pair each
    segs3 = _leftover_segments(_dense(7), A2, [4, 4])
    with pytest.raises(BadParameter, match="distinct slot"):
        absorb_paths(_dense(7), A2, segs3, [A2.slots[0], A2.slots[0]])


def test_absorb_paths_names_the_first_path_left_without_a_pair():
    # claiming d = 64 of a 3-cover lets 2-vertex paths through the count
    # check until first fit runs out of pairs; nothing changes before that
    D = _dense()
    A = build_type1_absorber(D, single_arc_pattern(), {0: 0, 1: 1}, P_DEFAULT, d=3, seed=0)
    greedy = dataclasses.replace(A, d=64)
    paths = _leftover_segments(D, A, [2] * 64)
    free, stuck = list(A.pairs), None
    for i, (x, y) in enumerate(paths):  # first fit, pair by pair
        pair = next((q for q in free if covers(D, q, (x, y))), None)
        if pair is None:
            stuck = i
            break
        free.remove(pair)
    assert stuck is not None
    hosts = copy.deepcopy(A.hosts)
    with pytest.raises(ConstructionFailed, match=rf"^no unused covering pair for path #{stuck}$"):
        absorb_paths(D, greedy, paths)
    assert A.hosts == greedy.hosts == hosts
    assert len(absorb_paths(D, greedy, paths[:stuck])) == 1


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
