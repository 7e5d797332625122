import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote.axioms import (
    IOL_EXHAUSTIVE_CAP,
    CapExceeded,
    as_choice_fn,
    check_anonymity,
    check_choice_set_convexity,
    check_consistency_pair,
    check_consistency_splits,
    check_independence_of_losers,
    check_neutrality,
    check_weak_efficiency,
    committees_between,
    convex_hull,
    find_min_continuity_lambda,
    replay,
    verdict_to_json,
)
from abcvote.profiles import (
    Profile,
    all_ballots,
    all_ballots_profile,
    parse_profile,
    profile_to_vector,
)
from abcvote import rules
from abcvote.rules import (
    NAMED_RULES,
    AbcScoringTable,
    Rule,
    committee_scores,
    continuity_lambda_bound,
    named_rule,
    winners,
)

from conftest import raw_profiles
from test_kernel import tables


def fs(*xs):
    return frozenset(xs)


def random_profile(rng, m, max_n=4):
    return Profile.from_ballots(m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, max_n))])


# --- adversarial rules used as negative controls ---------------------------


def dictator_rule(k):
    """First (lowest-label) voter's ballot decides; violates anonymity."""

    def choose(profile):
        _, ballot = min(profile.ballots)
        best, arg = -1, []
        from itertools import combinations

        for committee in combinations(range(profile.m), k):
            overlap = len(ballot & set(committee))
            if overlap > best:
                best, arg = overlap, [committee]
            elif overlap == best:
                arg.append(committee)
        return frozenset(arg)

    return choose


def biased_av(k):
    """AV plus a bonus point for committees containing candidate 0; violates neutrality."""

    def choose(profile):
        rule = named_rule("av", k, profile.m)
        scored = [(w, s + (1 if 0 in w else 0)) for w, s in committee_scores(rule, profile)]
        best = max(s for _, s in scored)
        return frozenset(w for w, s in scored if s == best)

    return choose


def table_rule(table, fallback):
    """Choice sets looked up by profile vector, falling back to a library rule;
    used to build inconsistent rules from explicit counterexample tables."""

    def choose(profile):
        key = profile_to_vector(profile)
        if key in table:
            return table[key]
        return winners(fallback, profile)

    return choose


def lex_tiebreak_av(k):
    """AV refined to its lexicographically least winner; violates continuity."""

    def choose(profile):
        return frozenset({min(winners(named_rule("av", k, profile.m), profile))})

    return choose


class TestAnonymity:
    def test_scoring_rules_pass(self):
        rng = random.Random(31)
        for _ in range(15):
            m = rng.randint(2, 4)
            profile = random_profile(rng, m)
            k = rng.randint(1, m - 1)
            for name in ("av", "pav", "sav"):
                assert check_anonymity(named_rule(name, k, m), profile).passed

    def test_dictator_fails_with_swap_witness(self):
        profile = Profile.from_ballots(2, [fs(0), fs(1)])
        verdict = check_anonymity(dictator_rule(1), profile)
        assert not verdict.passed
        assert verdict.witness["voter_permutation"] == {0: 1, 1: 0}
        assert replay(verdict, dictator_rule(1))

    def test_single_voter_vacuous(self):
        verdict = check_anonymity(dictator_rule(1), Profile.from_ballots(2, [fs(0)]))
        assert verdict.passed and verdict.checked == 1

    def test_sample_mode_deterministic(self):
        profile = Profile.from_ballots(3, [fs(0), fs(1), fs(2)])
        rule = named_rule("av", 1, 3)
        a = check_anonymity(rule, profile, mode="sample", seed=5, count=10)
        b = check_anonymity(rule, profile, mode="sample", seed=5, count=10)
        assert (a.passed, a.checked) == (b.passed, b.checked) == (True, 10)


class TestNeutrality:
    def test_pav_exhaustive_small(self):
        for m in (2, 3, 4):
            for n in (1, 2):
                for profile in raw_profiles(m, n):
                    assert check_neutrality(named_rule("pav", 1, m), profile).passed

    def test_biased_rule_fails(self):
        profile = Profile.from_ballots(2, [fs(1)])
        verdict = check_neutrality(biased_av(1), profile)
        assert not verdict.passed
        assert verdict.witness["candidate_permutation"] == (1, 0)
        assert replay(verdict, biased_av(1))

    def test_all_ballots_profile_forces_full_tie(self):
        profile = all_ballots_profile(3)
        for name in ("av", "pav", "ccav", "sav", "msav", "triv"):
            rule = named_rule(name, 2, 3)
            assert winners(rule, profile) == fs((0, 1), (0, 2), (1, 2))
            assert check_neutrality(rule, profile).passed
        assert not check_neutrality(biased_av(2), profile).passed


class TestConsistency:
    def test_av_pair_example(self):
        a = Profile.from_ballots(2, [fs(0)])
        b = Profile.from_ballots(2, [fs(0, 1)])
        rule = named_rule("av", 1, 2)
        assert winners(rule, a) == fs((0,))
        assert winners(rule, b) == fs((0,), (1,))
        assert check_consistency_pair(rule, a, b).passed

    def test_disjoint_choices_vacuous(self):
        a = Profile.from_ballots(2, [fs(0)])
        b = Profile.from_ballots(2, [fs(1)])
        verdict = check_consistency_pair(named_rule("av", 1, 2), a, b)
        assert verdict.passed

    def test_table_driven_mock_fails(self):
        a = Profile.from_ballots(2, [fs(0)])
        b = Profile.from_ballots(2, [fs(0, 1)])
        av = named_rule("av", 1, 2)
        table = {
            profile_to_vector(Profile.from_ballots(2, [fs(0), fs(0, 1)])): fs((1,)),
        }
        mock = table_rule(table, av)
        verdict = check_consistency_pair(mock, a, b)
        assert not verdict.passed
        assert replay(verdict, mock)

    def test_splits_pass_for_scoring_rules(self):
        rng = random.Random(32)
        for _ in range(10):
            m = rng.randint(2, 4)
            profile = random_profile(rng, m, max_n=5)
            for name in ("av", "pav", "sav", "msav"):
                assert check_consistency_splits(named_rule(name, 1, m), profile).passed

    def test_two_voters_one_split(self):
        profile = Profile.from_ballots(2, [fs(0), fs(1)])
        verdict = check_consistency_splits(named_rule("av", 1, 2), profile)
        assert verdict.passed and verdict.checked == 1

    def test_split_count(self):
        profile = Profile.from_ballots(2, [fs(0), fs(1), fs(0, 1), fs(0)])
        verdict = check_consistency_splits(named_rule("av", 1, 2), profile)
        assert verdict.checked == 2 ** (4 - 1) - 1

    def test_voter_cap(self):
        profile = Profile.from_ballots(2, [fs(0)] * 11)
        with pytest.raises(ValueError):
            check_consistency_splits(named_rule("av", 1, 2), profile)

    def test_split_mock_fails_with_witness(self):
        profile = Profile.from_ballots(2, [fs(0), fs(0, 1)])
        av = named_rule("av", 1, 2)
        table = {profile_to_vector(profile): fs((1,))}
        mock = table_rule(table, av)
        verdict = check_consistency_splits(mock, profile)
        assert not verdict.passed
        assert replay(verdict, mock)


class TestContinuity:
    def test_min_lambda_av_example(self):
        a = Profile.from_ballots(2, [fs(0)])
        b = Profile.from_ballots(2, [fs(1)])
        assert find_min_continuity_lambda(named_rule("av", 1, 2), a, b, 10) == 2

    def test_full_tie_gives_one(self):
        a = Profile.from_ballots(3, [fs(0, 1, 2)])
        b = Profile.from_ballots(3, [fs(0)])
        assert find_min_continuity_lambda(named_rule("av", 2, 3), a, b, 10) == 1

    def test_lex_tiebreak_not_found(self):
        a = Profile.from_ballots(2, [fs(0), fs(1)])
        b = Profile.from_ballots(2, [fs(1)])
        rule = lex_tiebreak_av(1)
        assert frozenset(rule(a)) == fs((0,))
        assert find_min_continuity_lambda(rule, a, b, 25) is None

    def test_min_lambda_within_analytic_bound(self):
        rng = random.Random(33)
        for _ in range(20):
            m = rng.randint(2, 4)
            k = rng.randint(1, m - 1)
            a, b = random_profile(rng, m), random_profile(rng, m)
            for name in ("av", "pav", "ccav", "sav", "triv"):
                rule = named_rule(name, k, m)
                bound = continuity_lambda_bound(rule, a, b)
                lam = find_min_continuity_lambda(rule, a, b, bound)
                assert lam is not None and lam <= bound

    def test_min_lambda_scores_each_profile_once(self, monkeypatch):
        # lambda*2 > lambda*1 + 5 first holds at lambda = 6
        a = Profile.from_ballots(2, [fs(0), fs(0), fs(1)])
        b = Profile.from_ballots(2, [fs(1)] * 5)
        calls = []
        kernel = rules._kernel
        monkeypatch.setattr(rules, "_kernel", lambda *args: calls.append(args) or kernel(*args))
        assert find_min_continuity_lambda(named_rule("av", 1, 2), a, b, 64) == 6
        assert len(calls) == 2
        assert find_min_continuity_lambda(named_rule("av", 1, 2), a, b, 5) is None

    def test_generic_path_matches_rule_path(self):
        a = Profile.from_ballots(3, [fs(0), fs(1, 2)])
        b = Profile.from_ballots(3, [fs(1)])
        rule = named_rule("pav", 2, 3)
        assert find_min_continuity_lambda(rule, a, b, 10) == find_min_continuity_lambda(
            as_choice_fn(rule), a, b, 10
        )


class TestWeakEfficiency:
    def test_av_swap_stays_winning(self):
        profile = Profile.from_ballots(3, [fs(0)])
        rule = named_rule("av", 2, 3)
        assert winners(rule, profile) == fs((0, 1), (0, 2))
        assert check_weak_efficiency(rule, profile).passed

    def test_min_approval_rule_fails(self):
        from abcvote.search import min_approval_rule

        profile = Profile.from_ballots(3, [fs(0)])
        verdict = check_weak_efficiency(min_approval_rule(1), profile)
        assert not verdict.passed
        assert replay(verdict, min_approval_rule(1))

    def test_every_candidate_approved_vacuous(self):
        profile = Profile.from_ballots(3, [fs(0, 1), fs(2)])
        verdict = check_weak_efficiency(named_rule("av", 1, 3), profile)
        assert verdict.passed and verdict.checked == 0


class TestIndependenceOfLosers:
    def test_pav_passes_small(self):
        rng = random.Random(34)
        for _ in range(15):
            m = rng.randint(2, 4)
            k = rng.randint(1, m - 1)
            profile = random_profile(rng, m, max_n=3)
            assert check_independence_of_losers(named_rule("pav", k, m), profile).passed

    def test_sav_counterexample(self):
        profile = Profile.from_ballots(3, [fs(0, 1), fs(0, 1), fs(2)])
        rule = named_rule("sav", 1, 3)
        assert winners(rule, profile) == fs((0,), (1,), (2,))
        verdict = check_independence_of_losers(rule, profile)
        assert not verdict.passed
        assert verdict.witness["committee"] in fs((0,), (1,), (2,))
        assert replay(verdict, rule)

    def test_all_ballots_inside_winner_vacuous(self):
        profile = Profile.from_ballots(2, [fs(0)])
        verdict = check_independence_of_losers(named_rule("av", 1, 2), profile)
        assert verdict.passed

    def test_cap_enforced(self):
        profile = Profile.from_ballots(6, [fs(0, 1, 2, 3, 4, 5)] * 4)
        with pytest.raises(ValueError):
            check_independence_of_losers(named_rule("ccav", 1, 6), profile, cap=2**4)

    def test_sample_mode_deterministic(self):
        profile = Profile.from_ballots(3, [fs(0, 1), fs(0, 1), fs(2)])
        rule = named_rule("sav", 1, 3)
        a = check_independence_of_losers(rule, profile, mode="sample", seed=3, count=50)
        b = check_independence_of_losers(rule, profile, mode="sample", seed=3, count=50)
        assert a.passed == b.passed
        if not a.passed:
            assert a.witness == b.witness


@st.composite
def small_tables(draw, m, k):
    """Scoring tables whose row for each ballot size is a non-decreasing run of
    small integers: ties are common and short ballots may weigh more, so
    independence of losers often fails."""
    rows = [
        list(itertools.accumulate(draw(st.lists(st.integers(0, m - y), min_size=k + 1, max_size=k + 1))))
        for y in range(m)
    ]
    values = tuple(tuple(Fraction(rows[y][x]) for y in range(m)) for x in range(k + 1))
    return Rule("small-table", k, AbcScoringTable(k, m, values))


@st.composite
def iol_instances(draw):
    """A library rule or a random scoring table at m <= 5, a profile of 1-3
    voters and a cap, often a small one."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, m - 1))
    named = st.sampled_from(NAMED_RULES).map(lambda name: named_rule(name, k, m))
    rule = draw(st.one_of(named, small_tables(m, k), tables(m, k)))
    masks = draw(st.lists(st.integers(1, 2**m - 1), min_size=1, max_size=3))
    profile = Profile.from_ballots(m, [frozenset(c for c in range(m) if mask >> c & 1) for mask in masks])
    return rule, profile, draw(st.sampled_from((2, 8, 32, IOL_EXHAUSTIVE_CAP, IOL_EXHAUSTIVE_CAP)))


def _iol_outcome(rule, profile, cap):
    try:
        verdict = check_independence_of_losers(rule, profile, cap=cap)
    except CapExceeded as err:
        return "cap exceeded", str(err)
    return verdict.passed, verdict.checked, verdict.witness


@settings(max_examples=400, deadline=None)
@given(iol_instances())
def test_iol_least_margins_match_the_walk(instance):
    """A library rule is decided by per-voter least margins; the same rule as
    a bare choice function walks every reduced profile.  Verdict, count,
    witness and cap message must all agree."""
    rule, profile, cap = instance
    assert _iol_outcome(rule, profile, cap) == _iol_outcome(as_choice_fn(rule), profile, cap)


class TestConvexHull:
    def test_disjoint_pair_spans_everything(self):
        hull = convex_hull(fs((0, 2), (1, 3)))
        assert hull == fs((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_singleton_fixpoint(self):
        assert convex_hull(fs((0, 1))) == fs((0, 1))

    def test_overlapping_pair_already_closed(self):
        assert convex_hull(fs((0, 1), (0, 2))) == fs((0, 1), (0, 2))

    def test_between_enumeration(self):
        assert set(committees_between((0, 1), (0, 2))) == {(0, 1), (0, 2)}
        assert set(committees_between((0, 1), (2, 3))) == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        }

    def test_hull_properties(self):
        rng = random.Random(35)
        from itertools import combinations

        for _ in range(30):
            m = rng.randint(3, 5)
            k = rng.randint(2, m - 1)
            pool = list(combinations(range(m), k))
            small = frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            large = small | frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            assert small <= convex_hull(small)
            assert convex_hull(convex_hull(small)) == convex_hull(small)
            assert convex_hull(small) <= convex_hull(large)


class TestChoiceSetConvexity:
    def test_bswav_rules_pass(self):
        rng = random.Random(36)
        for _ in range(15):
            m = rng.randint(3, 4)
            k = rng.randint(1, m - 1)
            profile = random_profile(rng, m)
            for name in ("av", "sav", "msav"):
                assert check_choice_set_convexity(named_rule(name, k, m), profile).passed

    def test_pav_two_voter_counterexample(self):
        profile = Profile.from_ballots(4, [fs(0, 1), fs(2, 3)])
        rule = named_rule("pav", 2, 4)
        assert winners(rule, profile) == fs((0, 2), (0, 3), (1, 2), (1, 3))
        verdict = check_choice_set_convexity(rule, profile)
        assert not verdict.passed
        assert verdict.witness["between"] in fs((0, 1), (2, 3))
        assert replay(verdict, rule)

    def test_k1_always_passes(self):
        rng = random.Random(37)
        for _ in range(15):
            m = rng.randint(2, 5)
            profile = random_profile(rng, m)
            for name in ("av", "pav", "ccav", "sav"):
                assert check_choice_set_convexity(named_rule(name, 1, m), profile).passed


class TestSerialization:
    def test_fail_verdict_round_trips_profile(self):
        profile = Profile.from_ballots(3, [fs(0, 1), fs(0, 1), fs(2)])
        rule = named_rule("sav", 1, 3)
        verdict = check_independence_of_losers(rule, profile)
        record = verdict_to_json(verdict)
        assert record["axiom"] == "independence-of-losers"
        assert record["passed"] is False
        reduced = parse_profile(record["witness"]["reduced_profile"])
        assert reduced.m == 3
        assert record["witness"]["committee"] == list(verdict.witness["committee"])

    def test_pass_verdict_has_null_witness(self):
        verdict = check_anonymity(named_rule("av", 1, 2), Profile.from_ballots(2, [fs(0)]))
        assert verdict_to_json(verdict)["witness"] is None
