import random
from fractions import Fraction

import pytest

from dilink import (
    Digraph,
    ExpansionParams,
    ExpansionReport,
    Verdict,
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
    robust_out_neighbourhood,
    shrink_params_for_deletion,
)
from dilink import expansion
from dilink.errors import BadParameter, LabelOutOfRange

from helpers import oracle_min_violating_set, oracle_robust_outexpander, random_arc_set


def test_params_validation():
    ExpansionParams("1/6", "1/6")
    ExpansionParams(Fraction(1, 3), Fraction(1, 2), Fraction(9, 10))
    with pytest.raises(BadParameter):
        ExpansionParams("1/2", "1/3")  # nu > tau
    with pytest.raises(BadParameter):
        ExpansionParams(0, "1/3")
    with pytest.raises(BadParameter):
        ExpansionParams("1/6", "1/6", gamma=1)


@pytest.mark.parametrize(
    "verdict, counterexample",
    [
        (Verdict.REFUTED, None),
        (Verdict.CERTIFIED_EXACT, frozenset({0})),
        (Verdict.NO_COUNTEREXAMPLE_FOUND, frozenset()),
    ],
    ids=["refuted-without", "certified-with", "not-found-with-empty"],
)
def test_a_report_holds_a_counterexample_exactly_when_it_refutes(verdict, counterexample):
    with pytest.raises(BadParameter, match="^counterexample present iff verdict is refuted$"):
        ExpansionReport(verdict, counterexample)


def test_robust_neighbourhoods_by_hand():
    # 0 -> 1, 0 -> 2, 3 -> 2.  With nu = 1/4 on n = 4 the threshold is
    # one in-neighbour inside S.
    D = Digraph(4, [(0, 1), (0, 2), (3, 2)])
    assert robust_out_neighbourhood(D, {0}, "1/4") == frozenset({1, 2})
    assert robust_out_neighbourhood(D, {0, 3}, "1/4") == frozenset({1, 2})
    # threshold two: only 2 has two in-neighbours inside {0, 3}
    assert robust_out_neighbourhood(D, {0, 3}, "1/2") == frozenset({2})
    # the in-neighbourhood is the out-neighbourhood under arc reversal
    assert robust_out_neighbourhood(D.reverse(), {2}, "1/4") == frozenset({0, 3})


def definition_neighbourhoods(D, S, nu):
    """(RN+, RN-) of S read off has_arc: vertices with at least nu*n
    in-neighbours, respectively out-neighbours, inside S."""
    S = set(S)
    out = {x for x in D.vertices() if sum(D.has_arc(u, x) for u in S) >= nu * D.n}
    inn = {x for x in D.vertices() if sum(D.has_arc(x, v) for v in S) >= nu * D.n}
    return out, inn


def test_robust_neighbourhoods_match_the_definition():
    rng = random.Random(85)
    for _ in range(200):
        n = rng.randrange(1, 25)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.1, 0.95)))
        S = [rng.randrange(n) for _ in range(rng.randrange(0, 2 * n))]  # repeats count once
        nu = Fraction(rng.randrange(1, n + 1), rng.choice([n, n + 1, 2 * n]))
        out, inn = definition_neighbourhoods(D, S, nu)
        assert robust_out_neighbourhood(D, S, nu) == out
        assert robust_out_neighbourhood(D.reverse(), S, nu) == inn


def test_robust_neighbourhoods_match_the_definition_exhaustively():
    """Over every S (all 2^n of them), in both directions: the
    in-neighbourhood is the out-neighbourhood of the reversed digraph."""
    rng = random.Random(84)
    hosts = [directed_cycle(6), complete_digraph(5)]
    hosts += [Digraph(8, random_arc_set(rng, 8, rng.uniform(0.3, 0.7))) for _ in range(3)]
    for D in hosts:
        R = D.reverse()
        for nu in (Fraction(1, 8), Fraction(1, 2)):
            for mask in range(1 << D.n):
                S = {v for v in range(D.n) if mask >> v & 1}
                out, inn = definition_neighbourhoods(D, S, nu)
                assert robust_out_neighbourhood(D, S, nu) == out
                assert robust_out_neighbourhood(R, S, nu) == inn


@pytest.mark.parametrize("S", [{-1}, {0, 5}, {2, -3, 4}, [7]])
def test_robust_neighbourhoods_reject_labels_outside_the_digraph(S):
    D = complete_digraph(5)
    with pytest.raises(LabelOutOfRange):
        robust_out_neighbourhood(D, S, "1/5")


def test_robust_neighbourhood_is_monotone_in_set_and_antitone_in_nu():
    """Growing S can only grow the robust neighbourhood; raising nu can
    only shrink it."""
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randrange(2, 16)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.2, 0.9)))
        small = {v for v in range(n) if rng.random() < 0.4}
        big = small | {v for v in range(n) if rng.random() < 0.4}
        nu = Fraction(rng.randrange(1, n + 1), n)
        assert robust_out_neighbourhood(D, small, nu) <= robust_out_neighbourhood(D, big, nu)
        higher = min(nu + Fraction(rng.randrange(0, n + 1), n), Fraction(1))
        assert robust_out_neighbourhood(D, big, higher) <= robust_out_neighbourhood(D, big, nu)


def test_complete_digraph_certifies():
    p = ExpansionParams("1/6", "1/6")
    assert certify_outexpander_exact(complete_digraph(6), p).verdict is (
        Verdict.CERTIFIED_EXACT
    )
    assert certify_inexpander_exact(complete_digraph(6), p).verdict is (
        Verdict.CERTIFIED_EXACT
    )


def test_directed_cycle_is_refuted_with_reverifying_counterexample():
    p = ExpansionParams("1/6", "1/6")
    rep = certify_outexpander_exact(directed_cycle(6), p)
    assert rep.verdict is Verdict.REFUTED
    # the counterexample violates the definition, independently rechecked
    S = rep.counterexample
    n = 6
    hits = sum(
        1
        for x in range(n)
        if sum(1 for u in S if directed_cycle(6).has_arc(u, x)) >= Fraction(1, 6) * n
    )
    assert hits < len(S) + Fraction(1, 6) * n


def test_empty_quantifier_range_certifies_vacuously():
    # tau = 1/2 leaves no sizes with tau*n < s < (1-tau)*n; n <= 1 leaves none at all
    cases = [(directed_cycle(4), ExpansionParams("1/2", "1/2"))]
    cases += [(Digraph(n, []), ExpansionParams("1/6", "1/6")) for n in (0, 1)]
    for D, p in cases:
        assert oracle_min_violating_set(D, p.nu, p.tau) is None
        for rep in (
            certify_outexpander_exact(D, p),
            certify_inexpander_exact(D, p),
            certify_survives_deletion(D, p, ()),
        ):
            assert rep.verdict is Verdict.CERTIFIED_EXACT


def test_exact_cap_is_enforced():
    p = ExpansionParams("1/6", "1/6")
    with pytest.raises(BadParameter, match="n=9 exceeds the exact enumeration cap 8"):
        certify_outexpander_exact(complete_digraph(9), p, max_exact_n=8)


def test_the_in_and_deletion_certifiers_refuse_above_the_cap_before_any_copy(monkeypatch):
    # each once built its n^2 copy first: 0.5 s and 61 MB at n = 8000
    def copied(*args):
        raise RuntimeError("copied")

    monkeypatch.setattr(Digraph, "reverse", copied)
    monkeypatch.setattr(expansion, "remove_vertices", copied)
    p = ExpansionParams("1/3", "1/3")  # deletion tolerance floor(n/12)
    with pytest.raises(BadParameter, match="n=30 exceeds the exact enumeration cap 20"):
        certify_inexpander_exact(complete_digraph(30), p)
    # the cap is on the vertices left, after the size and label checks
    with pytest.raises(BadParameter, match="n=28 exceeds the exact enumeration cap 20"):
        certify_survives_deletion(complete_digraph(30), p, [0, 29])
    with pytest.raises(LabelOutOfRange):
        certify_survives_deletion(complete_digraph(30), p, [0, 30])
    with pytest.raises(BadParameter, match="exceeds tolerance"):
        certify_survives_deletion(complete_digraph(30), p, [0, 1, 2])
    with pytest.raises(RuntimeError, match="copied"):
        certify_survives_deletion(complete_digraph(21), p, [0], max_exact_n=20)


@pytest.mark.parametrize("nu,tau", [("1/6", "1/6"), ("1/3", "1/3")])
def test_certifier_matches_definition_checker(nu, tau):
    rng = random.Random(42)
    p = ExpansionParams(nu, tau)
    for _ in range(300):
        n = rng.randrange(2, 7)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.1, 0.9)))
        expected = oracle_robust_outexpander(D, Fraction(nu), Fraction(tau))
        rep = certify_outexpander_exact(D, p)
        if expected is None:
            assert rep.verdict is Verdict.CERTIFIED_EXACT
        else:
            assert rep.verdict is Verdict.REFUTED
            assert rep.counterexample == expected  # same (size, lex) minimum


@pytest.mark.parametrize("n", [13, 14, 15, 17])
def test_exact_certifiers_match_the_oracle_across_the_table_block(n):
    # the subset-sum table holds 2^14 sets: n = 13, 14 take one block, 15 and 17 take 2 and 8
    p = ExpansionParams("1/5", "1/5")
    q = shrink_params_for_deletion(p)
    for density, verdict in ((0.97, Verdict.CERTIFIED_EXACT), (0.6, Verdict.REFUTED)):
        D = gen_random_digraph(n, density, n)
        rep = certify_outexpander_exact(D, p)
        assert rep.verdict is verdict
        assert rep.counterexample == oracle_min_violating_set(D, p.nu, p.tau)
        rep = certify_inexpander_exact(D, p)
        assert rep.counterexample == oracle_min_violating_set(D.reverse(), p.nu, p.tau)
        rep = certify_survives_deletion(D, p, ())
        assert rep.counterexample == oracle_min_violating_set(D, q.nu, q.tau)


def test_counterexample_from_a_later_table_block():
    # at n = 17 vertex 14 lies outside the table's 2^14 block; it has no out-arcs, and
    # vertex 15 reaches only 0..6, so {0, 1, 2, 15} violates too but ranks lower
    n = 17
    D = Digraph(n, [
        (u, x) for u in range(n) if u != 14
        for x in (range(7) if u == 15 else range(n)) if x != u
    ])
    p = ExpansionParams("1/5", "1/5")
    assert oracle_min_violating_set(D, p.nu, p.tau) == {0, 1, 2, 14}
    assert certify_outexpander_exact(D, p).counterexample == {0, 1, 2, 14}


def test_falsifier_agrees_and_counterexamples_verify():
    rng = random.Random(7)
    p = ExpansionParams("1/4", "1/4")
    refuted = 0
    for trial in range(120):
        n = rng.randrange(3, 9)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.2, 0.9)))
        truth = oracle_robust_outexpander(D, Fraction(1, 4), Fraction(1, 4))
        rep = falsify_outexpander_sampled(D, p, trials=400, seed=trial)
        if truth is None:
            assert rep.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
        elif rep.verdict is Verdict.REFUTED:
            refuted += 1
            S = rep.counterexample
            assert Fraction(1, 4) * n < len(S) < Fraction(3, 4) * n
            # the returned set itself violates the definition
            out, _ = definition_neighbourhoods(D, S, Fraction(1, 4))
            assert len(out) < len(S) + Fraction(1, 4) * n
    assert refuted > 20  # the sampler actually finds most violations


def test_falsifier_counterexamples_violate_the_definition_at_larger_n():
    rng = random.Random(8)
    refuted = 0
    for trial in range(40):
        n = rng.randrange(20, 50)
        D = gen_random_digraph(n, rng.uniform(0.1, 0.6), trial)
        p = ExpansionParams(Fraction(1, 8), Fraction(1, 5))
        rep = falsify_outexpander_sampled(D, p, trials=60, seed=trial)
        if rep.verdict is Verdict.REFUTED:
            refuted += 1
            S = rep.counterexample
            assert 1 <= rep.sampled_trials <= 60
            assert Fraction(1, 5) * n < len(S) < Fraction(4, 5) * n
            out, _ = definition_neighbourhoods(D, S, p.nu)
            assert len(out) < len(S) + p.nu * n
    assert refuted > 10


def test_falsifier_is_deterministic_in_seed_and_trials():
    D = gen_random_digraph(12, 0.4, 3)
    p = ExpansionParams("1/5", "1/5")
    a = falsify_outexpander_sampled(D, p, trials=500, seed=9)
    b = falsify_outexpander_sampled(D, p, trials=500, seed=9)
    assert a == b


def test_derived_parameters_are_exact():
    p = derive_params_from_degrees("1/2")
    assert p.tau == Fraction(1, 32)
    assert p.nu == Fraction(1, 1024)
    assert p.gamma == Fraction(1, 2)
    with pytest.raises(BadParameter):
        derive_params_from_degrees(0)


def test_deletion_parameters_and_tolerance():
    p = ExpansionParams("1/3", "1/3")
    q = shrink_params_for_deletion(p)
    assert (q.nu, q.tau) == (Fraction(1, 6), Fraction(2, 3))
    assert deletion_tolerance(complete_digraph(12), p) == 1
    # tau doubling saturates at 1
    assert shrink_params_for_deletion(ExpansionParams("1/2", "3/4")).tau == 1


def test_deletion_certification_on_complete_digraphs():
    p = ExpansionParams("1/3", "1/3")
    D = complete_digraph(12)
    assert certify_outexpander_exact(D, p).verdict is Verdict.CERTIFIED_EXACT
    for v in (0, 5, 11):
        rep = certify_survives_deletion(D, p, {v})
        assert rep.verdict is Verdict.CERTIFIED_EXACT
    with pytest.raises(BadParameter):
        certify_survives_deletion(D, p, {0, 1})  # above the tolerance


def test_inexpansion_parameter_guard():
    ok = ExpansionParams("1/5", "1/5", gamma="1/2")
    q = inexpansion_params(ok)
    assert (q.nu, q.tau) == (Fraction(1, 25), Fraction(2, 5))
    with pytest.raises(BadParameter):
        inexpansion_params(ExpansionParams("1/3", "1/3", gamma="1/2"))  # 2tau >= gamma
