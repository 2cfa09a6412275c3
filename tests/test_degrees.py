import math
import random
from fractions import Fraction

import pytest

from dilink import (
    Digraph,
    asymptotic_nash_williams,
    complete_digraph,
    directed_cycle,
    gen_random_digraph,
    nash_williams,
    oriented_semidegree,
    posa_type,
    rotational_tournament,
)
from dilink.errors import BadParameter, NotOriented


def test_complete_satisfies_paired_condition():
    for n in range(3, 13):
        assert nash_williams(complete_digraph(n)).satisfied


def test_cycle_fails_paired_condition_with_diagnosis():
    for n in range(4, 13):
        rep = nash_williams(directed_cycle(n))
        assert not rep
        assert rep.failing_index == 1
        assert rep.failing_clause in ("out", "in")


def test_paired_condition_rejects_tiny_digraphs():
    with pytest.raises(BadParameter, match="need at least 3 vertices, got 2"):
        nash_williams(Digraph(2, [(0, 1), (1, 0)]))


def test_near_complete_still_satisfies():
    # drop one arc from K_8: sequences barely move
    K = complete_digraph(8)
    arcs = set(K.arcs)
    arcs.remove((0, 1))
    assert nash_williams(Digraph(8, arcs)).satisfied


def test_asymptotic_variant_needs_real_slack():
    # the complete digraph absorbs any slack up to its degrees
    assert asymptotic_nash_williams(complete_digraph(10), 0.2).satisfied
    assert not asymptotic_nash_williams(directed_cycle(10), 0.2).satisfied
    # gamma so large that d+ >= i + gamma*n fails and the partner index
    # n - i - ceil(gamma*n) collapses below 1: unsatisfiable by design
    rep = asymptotic_nash_williams(complete_digraph(6), "9/10")
    assert not rep.satisfied
    assert rep.failing_index == 1


@pytest.mark.parametrize("gamma", [0, 1, "-1/2", 2])
def test_slack_conditions_reject_gamma_outside_the_unit_interval(gamma):
    for check in (asymptotic_nash_williams, posa_type):
        with pytest.raises(BadParameter, match="gamma must lie in"):
            check(complete_digraph(6), gamma)


def test_slack_conditions_refuse_digraphs_too_small_to_judge():
    with pytest.raises(BadParameter, match="^empty digraph$"):
        asymptotic_nash_williams(Digraph(0, []), "1/4")
    for n in range(3):
        with pytest.raises(BadParameter, match=f"^need at least 3 vertices, got {n}$"):
            posa_type(complete_digraph(n), "1/4")


def test_sorted_growth_condition():
    assert posa_type(complete_digraph(9), 0.25).satisfied
    rep = posa_type(directed_cycle(9), 0.25)
    assert not rep.satisfied and rep.failing_index == 1
    # odd-order extra clause: the middle entry must clear (1/2+gamma)n
    assert posa_type(complete_digraph(7), "1/8").satisfied


def test_oriented_checker_rejects_digons():
    with pytest.raises(NotOriented):
        oriented_semidegree(Digraph(2, [(0, 1), (1, 0)]), 0)


def test_oriented_checker_on_tournaments():
    # rotational tournament on n vertices has all semidegrees (n-1)/2
    rep = oriented_semidegree(rotational_tournament(9), "1/18")
    assert rep.semidegree_ok  # 4 >= ceil((3/8 + 1/18) * 9) = 4
    assert rep.degree_sum_ok  # 4 + 4 + 8 = 16 >= ceil(27/2 + 1/2) = 14
    assert rep.satisfied
    rep2 = oriented_semidegree(rotational_tournament(9), "1/2")
    assert not rep2.semidegree_ok
    assert not rep2.satisfied


def _sorted_degrees(D):
    """D's out-degrees and in-degrees, each sorted nondecreasing."""
    M = D.bool_matrix()
    return tuple(sorted(M.sum(axis=1).tolist())), tuple(sorted(M.sum(axis=0).tolist()))


def _all_ordered_pairs(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def _digraph_from_mask(n, pairs, mask):
    return Digraph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def _partner_positions_carry_equal_values(seqs, n, g):
    # with slack g the second clause reads the sorted sequences at
    # position n-i-g instead of n-i; when both positions hold the same
    # value (in both sequences, for every i in range) the two checkers
    # evaluate literally identical inequalities
    for i in range(1, (n + 1) // 2):
        j = n - i - g
        for seq in seqs:
            if j >= 1 and seq[j - 1] != seq[n - i - 1]:
                return False
    return True


def test_slack_variant_vs_exact_variant_at_vanishing_slack():
    """With 0 < gamma*n < 1 the slack condition implies the exact one,
    and the verdicts coincide whenever the shifted partner positions
    carry the same sorted values."""

    def check(D, gamma):
        nw = nash_williams(D).satisfied
        anw = asymptotic_nash_williams(D, gamma).satisfied
        # the slack variant reads a lower (hence no larger) sorted entry,
        # so it can only be the more demanding of the two
        assert not (anw and not nw)
        if _partner_positions_carry_equal_values(_sorted_degrees(D), D.n, 1):
            assert nw == anw
            return True, nw
        return False, nw

    # every digraph on 3 and 4 vertices
    coinciding = satisfied_coinciding = 0
    for n in (3, 4):
        pairs = _all_ordered_pairs(n)
        gamma = Fraction(1, 2 * n)
        for mask in range(1 << len(pairs)):
            same, sat = check(_digraph_from_mask(n, pairs, mask), gamma)
            coinciding += same
            satisfied_coinciding += same and sat
    # random samples at n = 5, 6
    rng = random.Random(160)
    for n in (5, 6):
        pairs = _all_ordered_pairs(n)
        for _ in range(300):
            same, sat = check(
                _digraph_from_mask(n, pairs, rng.getrandbits(len(pairs))),
                Fraction(1, 2 * n),
            )
            coinciding += same
            satisfied_coinciding += same and sat
    # the restricted comparison must not be vacuous on either side
    assert coinciding > 1000 and satisfied_coinciding > 50

    # ...and the restriction is doing real work: where the partner
    # positions differ the verdicts genuinely can split
    D = Digraph(4, set(complete_digraph(4).arcs) - {(0, 1), (0, 2)})
    assert nash_williams(D).satisfied
    assert not asymptotic_nash_williams(D, Fraction(1, 10)).satisfied


def _recheck_paired(seqs, n, rep):
    first, partner = seqs
    if rep.failing_clause == "in":
        first, partner = partner, first
    i = rep.failing_index
    return first[i - 1] < i + 1 and partner[n - i - 1] < n - i


def _recheck_paired_slack(seqs, n, rep, gamma):
    g = math.ceil(Fraction(gamma) * n)
    first, partner = seqs
    if rep.failing_clause == "in":
        first, partner = partner, first
    i = rep.failing_index
    j = n - i - g
    partner_holds = j >= 1 and partner[j - 1] >= n - i
    return first[i - 1] < i + g and not partner_holds


def _recheck_growth(seqs, n, rep, gamma):
    seq = seqs[0] if rep.failing_clause.endswith("out") else seqs[1]
    i = rep.failing_index
    if rep.failing_clause.startswith("odd"):
        return seq[i - 1] < math.ceil((Fraction(1, 2) + Fraction(gamma)) * n)
    return seq[i - 1] < i + math.ceil(Fraction(gamma) * n)


def test_failure_diagnoses_reproduce_on_the_sorted_profiles():
    """Whenever a checker reports (failing_index, failing_clause), the
    cited inequality really is violated by the sorted degree sequences."""
    instances = [directed_cycle(n) for n in range(4, 13)]
    instances += [Digraph(n, []) for n in (5, 8)]
    rng = random.Random(0)
    for seed in range(150):
        r = random.Random(seed)
        n = r.choice([5, 7, 9, 11])
        pairs = _all_ordered_pairs(n)
        instances.append(Digraph(n, [p for p in pairs if r.random() < r.choice([0.4, 0.55, 0.7])]))
    for _ in range(60):
        n = rng.randrange(4, 13)
        instances.append(gen_random_digraph(n, rng.uniform(0.1, 0.6), rng.randrange(10**6)))

    failures = 0
    clauses = {"paired": set(), "slack": set(), "growth": set()}
    for D in instances:
        n, seqs = D.n, _sorted_degrees(D)
        rep = nash_williams(D)
        if not rep.satisfied:
            failures += 1
            clauses["paired"].add(rep.failing_clause)
            assert _recheck_paired(seqs, n, rep)
        # small gamma keeps the partner clause alive; large gamma pushes
        # its index below 1 (treated as unsatisfiable)
        for gamma in (Fraction(1, 2 * n), Fraction(2, 5)):
            rep = asymptotic_nash_williams(D, gamma)
            if not rep.satisfied:
                failures += 1
                clauses["slack"].add(rep.failing_clause)
                assert _recheck_paired_slack(seqs, n, rep, gamma)
            rep = posa_type(D, gamma)
            if not rep.satisfied:
                failures += 1
                clauses["growth"].add(rep.failing_clause)
                assert _recheck_growth(seqs, n, rep, gamma)

    assert failures > 300
    assert clauses["paired"] == {"out", "in"}
    assert clauses["slack"] == {"out", "in"}
    assert clauses["growth"] == {"out", "in", "odd-out", "odd-in"}


def _add_random_absent_arc(rng, D, *, keep_oriented=False):
    while True:
        u, v = rng.randrange(D.n), rng.randrange(D.n)
        if u == v or D.has_arc(u, v):
            continue
        if keep_oriented and D.has_arc(v, u):
            continue
        return Digraph(D.n, set(D.arcs) | {(u, v)})


@pytest.mark.parametrize("seed", range(5))
def test_monotone_under_arc_addition(seed):
    """Adding an arc can only help every degree condition."""
    rng = random.Random(900 + seed)
    for _ in range(60):
        n = rng.randrange(4, 13)
        D = gen_random_digraph(n, rng.uniform(0.2, 0.8), rng.randrange(10**6))
        if D.arc_count == n * (n - 1):
            continue
        D2 = _add_random_absent_arc(rng, D)
        gamma = rng.choice(["1/10", "1/5", "3/10"])
        assert not (nash_williams(D).satisfied and not nash_williams(D2).satisfied)
        assert not (
            asymptotic_nash_williams(D, gamma).satisfied
            and not asymptotic_nash_williams(D2, gamma).satisfied
        )
        assert not (posa_type(D, gamma).satisfied and not posa_type(D2, gamma).satisfied)


def test_verdicts_are_invariant_under_relabelling():
    """The checkers read only the sorted degree sequences, so relabelling
    the vertices leaves every verdict and first failure as it was."""
    rng = random.Random(31)
    checks = (
        nash_williams,
        lambda G: asymptotic_nash_williams(G, "1/10"),
        lambda G: posa_type(G, "1/10"),
    )
    for _ in range(40):
        n = rng.randrange(3, 15)
        D = gen_random_digraph(n, rng.uniform(0, 1), rng.randrange(10**6))
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = Digraph(n, [(perm[u], perm[v]) for u, v in D.arcs])
        assert [check(relabelled) for check in checks] == [check(D) for check in checks]
