"""Acceptance gate: one test per shipped guarantee.  Each test records a
one-line verdict that conftest echoes after the run, so the scorecard is
visible in any pytest invocation.  All tests are deterministic (fixed
master seeds)."""

import functools
import itertools
import math
import random
from fractions import Fraction

from helpers import (
    ACCEPTANCE_LINES,
    free_mask,
    make_ladder_instance,
    oracle_connect,
    oracle_robust_outexpander,
    random_arc_set,
)

from dilink import (
    Digraph,
    ExpansionParams,
    HSubdivision,
    PipelineConfig,
    Verdict,
    absorb_path,
    absorber_size_bound,
    asymptotic_nash_williams,
    brute_force_subdivision,
    build_d_cover,
    build_type1_absorber,
    build_type2_absorber,
    certify_inexpander_exact,
    certify_outexpander_exact,
    certify_survives_deletion,
    complete_digraph,
    cover_size_formula,
    deletion_tolerance,
    directed_cycle,
    gen_random_digraph,
    inexpansion_params,
    min_prescribed_length,
    nash_williams,
    nh_linked_embed,
    oriented_semidegree,
    path_lengths,
    perfect_tiling,
    posa_type,
    shortest_path_avoiding,
    single_arc_pattern,
    triangle_pattern,
    validate_absorber,
    validate_path,
    validate_subdivision,
    validate_tiling,
    verify_d_cover,
)
from dilink.errors import ConstructionFailed, DilinkError


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[criterion {num:02d}] {state} {name}: {detail}")


# --------------------------------------------------------------------------
# 1. rung swaps absorb a path without disturbing anything else


def test_criterion_01_ladder_swap_correctness():
    rng = random.Random(11)
    trials, good = 1000, 0
    for t in range(trials):
        D, sub, L, arc, P = make_ladder_instance(rng, k=t % 5)
        assert D.n <= 200
        out = absorb_path(D, sub, L, arc, P)
        if (
            validate_subdivision(D, out)
            and dict(out.branch_map) == dict(sub.branch_map)
            and out.vertices() == sub.vertices() | set(P)
        ):
            good += 1
    ok = good == trials
    _report(1, "ladder swap", ok, f"{good}/{trials} randomized swaps valid")
    assert ok


# --------------------------------------------------------------------------
# 2. the exact expansion certifier agrees with the raw definition


def _violates_definition(D: Digraph, S: frozenset, nu: Fraction, tau: Fraction) -> bool:
    """Hand-rolled re-check of one counterexample, sharing no code with
    either the certifier or the test oracle."""
    n = D.n
    s = len(S)
    if not (tau * n < s < (1 - tau) * n):
        return False
    need = math.ceil(nu * n)
    reach = 0
    for x in range(n):
        hits = sum(1 for u in S if D.has_arc(u, x))
        if hits >= need:
            reach += 1
    return reach < s + nu * n


def test_criterion_02_exact_certifier_agrees_with_definition():
    rng = random.Random(22)
    settings = [
        (ExpansionParams("1/6", "1/6"), Fraction(1, 6)),
        (ExpansionParams("1/3", "1/3"), Fraction(1, 3)),
    ]
    trials, mismatches, refuted, bad_cex = 10_000, 0, 0, 0
    for _ in range(trials):
        n = rng.randint(2, 6)
        D = Digraph(n, random_arc_set(rng, n, rng.random()))
        for p, frac in settings:
            rep = certify_outexpander_exact(D, p)
            orc = oracle_robust_outexpander(D, frac, frac)
            if (rep.verdict is Verdict.CERTIFIED_EXACT) != (orc is None):
                mismatches += 1
            if rep.verdict is Verdict.REFUTED:
                refuted += 1
                if not _violates_definition(D, rep.counterexample, frac, frac):
                    bad_cex += 1
    ok = mismatches == 0 and bad_cex == 0
    _report(2, "exact certifier", ok,
            f"{trials} arc sets x2 params, {mismatches} oracle mismatches, "
            f"{refuted} refutations all re-verified" if ok else
            f"{mismatches} mismatches, {bad_cex} bogus counterexamples")
    assert ok


# --------------------------------------------------------------------------
# 3 + 4. certified expanders survive small deletions and are in-expanders

_FAMILY_A = (ExpansionParams("1/3", "1/3", "3/4"), 31_000, 0.93, 0.98, 0)
_FAMILY_B = (ExpansionParams("1/5", "1/5", "1/2"), 32_000, 0.94, 0.98, 9)


@functools.lru_cache(maxsize=1)
def _certified_expanders() -> tuple:
    """200 digraphs on 12 vertices, each certified exactly: 100 at
    (1/3, 1/3) and 100 at (1/5, 1/5) with min semidegree >= 9 (which
    pins down the non-vacuous deletion and in-expansion regimes)."""
    out = []
    for p, base, lo, hi, floor in (_FAMILY_A, _FAMILY_B):
        got, attempt = 0, 0
        while got < 100:
            attempt += 1
            assert attempt < 10_000, "instance generation stalled"
            rng = random.Random(base + attempt)
            D = gen_random_digraph(12, rng.uniform(lo, hi), base + attempt)
            M = D.bool_matrix()
            if min(M.sum(axis=0).min(), M.sum(axis=1).min()) < floor:
                continue
            if certify_outexpander_exact(D, p).verdict is Verdict.CERTIFIED_EXACT:
                out.append((D, p))
                got += 1
    return tuple(out)


def _deletion_sets(rng: random.Random, n: int, tol: int) -> list:
    sets: list = [()]
    for size in range(1, tol + 1):
        sets.extend(itertools.combinations(range(n), size))
    if len(sets) > 50:
        sets = [()] + rng.sample(sets[1:], 49)
    return sets


def test_criterion_03_expansion_survives_small_deletions():
    rng = random.Random(33)
    instances = _certified_expanders()
    digraphs, checks, failed = 0, 0, 0
    for D, p in instances:
        digraphs += 1
        tol = deletion_tolerance(D, p)
        for V0 in _deletion_sets(rng, D.n, tol):
            checks += 1
            rep = certify_survives_deletion(D, p, V0, max_exact_n=14)
            if rep.verdict is not Verdict.CERTIFIED_EXACT:
                failed += 1
    ok = failed == 0 and digraphs == 200
    _report(3, "deletion resilience", ok,
            f"{digraphs} certified expanders, {checks} deletion sets "
            f"(exhaustive below 50), {failed} failed re-certification")
    assert ok


def test_criterion_04_inexpansion_from_outexpansion():
    instances = _certified_expanders()
    eligible, failed = 0, 0
    for D, p in instances:
        q = inexpansion_params(p)  # raises if the ratio gates fail
        eligible += 1
        rep = certify_inexpander_exact(D, q, max_exact_n=14)
        if rep.verdict is not Verdict.CERTIFIED_EXACT:
            failed += 1
    ok = failed == 0 and eligible == 200
    _report(4, "in-expansion", ok,
            f"{eligible}/200 instances meet the gates, {failed} failed "
            f"in-certification at (nu^2, 2tau)")
    assert ok


# --------------------------------------------------------------------------
# 5. cover construction: success rate, verification, shortest prefix, size bound


def test_criterion_05_cover_construction_size_and_validity():
    D = gen_random_digraph(500, 0.5, 0)
    formula = cover_size_formula(500, "0.4", 8)
    assert formula == 10373  # frozen: ceil(24 * gamma^-2 * (d ln(24 d gamma^-2) + 2 ln n))
    bound = min(formula, 500 // 2)
    succeeded, bad, unneeded, oversized, sizes = 0, 0, 0, 0, []
    for seed in range(100):
        try:
            K = build_d_cover(D, 8, seed)
        except ConstructionFailed:  # build_d_cover raises no other one
            continue
        succeeded += 1
        sizes.append(len(K))
        bad += not verify_d_cover(D, K, 8)
        unneeded += verify_d_cover(D, K.pairs[:-1], 8)
        oversized += len(K) > bound
    ok = succeeded >= 99 and bad == unneeded == oversized == 0
    _report(5, "cover construction", ok,
            f"{succeeded}/100 seeds built, {bad} invalid, {unneeded} with an unneeded "
            f"last pair, sizes {min(sizes, default=0)}-{max(sizes, default=0)} <= {bound}")
    assert ok


# --------------------------------------------------------------------------
# 6. disjoint connector routing, plus oracle agreement at tiny scale


def _route_in_turn(D, pairs, max_order, rng):
    """Route the pairs one after another as the absorber threads its
    hosts, on one mask of free vertices: every terminal taken first, then
    each path's interior."""
    free = free_mask(D.n, [v for pair in pairs for v in pair])
    paths = []
    for s, t in pairs:
        path = shortest_path_avoiding(D, s, t, free, max_order, rng)
        if path is None:
            return None
        paths.append(path)
        free[list(path[1:-1])] = False
    return paths


def test_criterion_06_disjoint_connector_routing():
    D = gen_random_digraph(100, 0.5, 0)
    succeeded, bad = 0, 0
    for seed in range(100):
        rng = random.Random(seed)
        terms = rng.sample(range(100), 10)
        pairs = tuple((terms[2 * i], terms[2 * i + 1]) for i in range(5))
        paths = _route_in_turn(D, pairs, 5, random.Random(seed))
        if paths is None:
            continue
        succeeded += 1
        seen: set = set()
        for path, (s, t) in zip(paths, pairs):
            if (
                not validate_path(D, path)
                or path[0] != s
                or path[-1] != t
                or len(path) > 5
                or set(path) & seen
            ):
                bad += 1
            seen |= set(path)

    # the router finds a path exactly when a complete search does
    rng = random.Random(66)
    trials, oracle_hits, agreed, absent_agreed = 0, 0, 0, 0
    while oracle_hits < 500:
        n = rng.randint(4, 9)
        T = gen_random_digraph(n, rng.uniform(0.3, 0.9), rng.randrange(1 << 30))
        s, t = rng.sample(range(n), 2)
        blocked = set(rng.sample(range(n), rng.randint(0, n - 2))) - {s, t}
        cap = rng.randint(2, 5)
        expected = oracle_connect(T, ((s, t),), blocked, cap)
        path = shortest_path_avoiding(T, s, t, free_mask(n, blocked), cap, random.Random(trials))
        trials += 1
        if expected is None:
            absent_agreed += path is None
            continue
        oracle_hits += 1
        agreed += (
            path is not None
            and validate_path(T, path)
            and (path[0], path[-1]) == (s, t)
            and len(path) <= cap
            and not set(path[1:-1]) & blocked
        )
    absent = trials - oracle_hits
    ok = succeeded >= 99 and bad == 0 and agreed == 500 and absent_agreed == absent
    _report(6, "connector routing", ok,
            f"{succeeded}/100 seeds routed in turn ({bad} invalid), oracle agreement "
            f"{agreed}/500 paths and {absent_agreed}/{absent} absences at n<=9")
    assert ok


# --------------------------------------------------------------------------
# 7. absorbers of both types validate and respect the size bound


def test_criterion_07_absorber_validity_and_size():
    D = gen_random_digraph(400, 0.6, 0)
    p = ExpansionParams("3/4", "3/4", "1/2")
    bound = absorber_size_bound(400, Fraction(3, 4), Fraction(1, 2), 8)
    H = single_arc_pattern()
    built, invalid, oversize = 0, 0, 0
    for seed in range(50):
        rng = random.Random(seed)
        x, y = rng.sample(range(400), 2)
        A = build_type1_absorber(D, H, {0: x, 1: y}, p, d=8, seed=seed)
        built += 1
        if not validate_absorber(D, A):
            invalid += 1
        if len(A.vertices()) > bound:
            oversize += 1
    for seed in range(50):
        A = build_type2_absorber(D, H, 2, p, d=8, seed=seed)
        built += 1
        if not validate_absorber(D, A):
            invalid += 1
        if len(A.vertices()) > bound:
            oversize += 1
    ok = built == 100 and invalid == 0 and oversize == 0
    _report(7, "absorbers", ok,
            f"{built}/100 built (50 each type), {invalid} invalid, "
            f"{oversize} above the size bound {bound:.0f}")
    assert ok


# --------------------------------------------------------------------------
# 8. end-to-end exact-length embedding on a dense digraph


def test_criterion_08_exact_length_embedding_end_to_end():
    D = gen_random_digraph(300, 0.7, 0)
    H = triangle_pattern()
    floor = min_prescribed_length(Fraction(3, 4))
    assert floor == 50
    good = 0
    for seed in range(50):
        rng = random.Random(seed)
        f = dict(zip(range(3), rng.sample(range(300), 3)))
        N = [rng.randint(floor, 60) for _ in range(3)]
        assert sum(l + 1 for l in N) <= 300
        cfg = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3,
                             seed=seed, restart_budget=3)
        try:
            sub = nh_linked_embed(D, H, f, N, cfg)
        except DilinkError:
            continue
        if (
            validate_subdivision(D, sub)
            and path_lengths(sub) == tuple(N)
            and dict(sub.branch_map) == f
        ):
            good += 1
    ok = good >= 48  # >= 95% of 50
    _report(8, "exact-length embedding", ok,
            f"{good}/50 seeds embedded a triangle subdivision with exact "
            f"lengths and branch map")
    assert ok


# --------------------------------------------------------------------------
# 9. end-to-end perfect tiling into two pieces of exact orders


def test_criterion_09_perfect_tiling_end_to_end():
    D = gen_random_digraph(400, 0.7, 0)
    H = single_arc_pattern()
    results = {}
    for n1 in (150, 200):
        orders = [n1, 400 - n1]
        good = 0
        for seed in range(50):
            cfg = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3,
                                 seed=seed, restart_budget=3)
            try:
                subs = perfect_tiling(D, H, orders, cfg)
            except DilinkError:
                continue
            if validate_tiling(D, subs, orders):
                good += 1
        results[n1] = good
    ok = all(v >= 48 for v in results.values())
    _report(9, "perfect tiling", ok,
            f"orders (150,250): {results[150]}/50, orders (200,200): "
            f"{results[200]}/50 tiled exactly")
    assert ok


# --------------------------------------------------------------------------
# 10. tiny-scale equivalence with the brute-force oracle


def test_criterion_10_tiny_scale_oracle_equivalence():
    H = single_arc_pattern()
    rng = random.Random(1010)
    found, none_cases, bad_witness, contradictions = 0, 0, 0, 0
    for t in range(300):
        n = rng.randint(2, 9)
        D = gen_random_digraph(n, rng.uniform(0.5, 1.0), rng.randrange(1 << 30))
        x, y = rng.sample(range(n), 2)
        l = rng.randint(1, 6)
        w = brute_force_subdivision(D, H, {0: x, 1: y}, [l])
        if w is not None:
            found += 1
            if not (validate_subdivision(D, w) and path_lengths(w) == (l,)):
                bad_witness += 1
            continue
        none_cases += 1
        # constructive routing must not conjure a witness the exhaustive
        # search proved absent
        path = shortest_path_avoiding(D, x, y, free_mask(n), l + 1, random.Random(t))
        if path is None:
            continue
        cand = HSubdivision(H, {0: x, 1: y}, {(0, 1): path})
        if validate_subdivision(D, cand) and path_lengths(cand) == (l,):
            contradictions += 1
    ok = bad_witness == 0 and contradictions == 0 and found + none_cases == 300
    _report(10, "oracle equivalence", ok,
            f"300 triples: {found} witnesses all valid, {none_cases} absences, "
            f"{contradictions} constructive contradictions")
    assert ok


# --------------------------------------------------------------------------
# 11. degree checkers: known families plus monotonicity under arc addition


def _oriented_projection(D: Digraph) -> Digraph:
    arcs: set = set()
    for u, v in sorted(D.arcs):
        if (v, u) not in arcs:
            arcs.add((u, v))
    return Digraph(D.n, arcs)


def _absent_arc(rng: random.Random, D: Digraph, no_digon: bool = False):
    cands = [
        (u, v)
        for u in range(D.n)
        for v in range(D.n)
        if u != v and not D.has_arc(u, v) and not (no_digon and D.has_arc(v, u))
    ]
    return rng.choice(cands) if cands else None


def _with_arc(D: Digraph, arc) -> Digraph:
    return Digraph(D.n, set(D.arcs) | {arc})


def test_criterion_11_degree_checker_cross_validation():
    for n in range(3, 13):
        assert nash_williams(complete_digraph(n)).satisfied
    for n in range(4, 13):
        assert not nash_williams(directed_cycle(n)).satisfied

    rng = random.Random(110)
    trials, violations = 10_000, 0
    done = 0
    while done < trials:
        n = rng.randint(3, 12)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.0, 0.9)))
        arc = _absent_arc(rng, D)
        O = _oriented_projection(D)
        oarc = _absent_arc(rng, O, no_digon=True)
        if arc is None or oarc is None:
            continue
        done += 1
        Dp = _with_arc(D, arc)
        Op = _with_arc(O, oarc)
        if nash_williams(D).satisfied and not nash_williams(Dp).satisfied:
            violations += 1
        if (
            asymptotic_nash_williams(D, "0.1").satisfied
            and not asymptotic_nash_williams(Dp, "0.1").satisfied
        ):
            violations += 1
        if posa_type(D, "0.1").satisfied and not posa_type(Dp, "0.1").satisfied:
            violations += 1
        if (
            oriented_semidegree(O, "0.05").satisfied
            and not oriented_semidegree(Op, "0.05").satisfied
        ):
            violations += 1
    ok = violations == 0
    _report(11, "degree checkers", ok,
            f"complete/cycle families as expected, {trials} arc-addition "
            f"trials x4 checkers, {violations} monotonicity violations")
    assert ok


# --------------------------------------------------------------------------
# 12. end-to-end perfect tiling into many tiles of the minimum order


def test_criterion_12_tiling_into_many_tiles():
    D = gen_random_digraph(1000, 0.7, 0)
    H = single_arc_pattern()
    orders = [50] * 20  # the minimum prescribed length at nu = 3/4
    good = 0
    for seed in range(50):
        cfg = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=20,
                             seed=seed, restart_budget=3)
        try:
            subs = perfect_tiling(D, H, orders, cfg)
        except DilinkError:
            continue
        if validate_tiling(D, subs, orders):
            good += 1
    ok = good >= 48
    _report(12, "many tiles", ok,
            f"{good}/50 seeds tiled D(1000, 0.7) into 20 tiles of order 50 exactly")
    assert ok
