import ast
import inspect
import itertools
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcvote.axioms import (
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
from abcvote import axioms, rules
from abcvote.rules import (
    IOL_EXHAUSTIVE_CAP,
    NAMED_RULES,
    AbcScoringTable,
    Rule,
    committee_scores,
    continuity_lambda_bound,
    named_rule,
    winners,
)

from conftest import oracle_survives_every_reduction, raw_profiles
from test_kernel import bswav_specs, tables, thiele_specs


def fs(*xs):
    return frozenset(xs)


def random_profile(rng, m, max_n=4):
    return Profile.from_ballots(m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, max_n))])


# --- adversarial rules used as negative controls ---------------------------


def dictator_rule(k):
    """The first voter's ballot decides; violates anonymity."""

    def choose(profile):
        ballot = profile.ballot_list()[0]
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
        # the cap bounds only a choice function's walk; a rule passes all 2**10 - 1 splits by its form
        profile = Profile.from_ballots(2, [fs(0)] * 11)
        with pytest.raises(ValueError, match=r"^profile has 11 voters, over the split cap 10$"):
            check_consistency_splits(as_choice_fn(named_rule("av", 1, 2)), profile)
        verdict = check_consistency_splits(named_rule("av", 1, 2), profile)
        assert (verdict.passed, verdict.checked) == (True, 2**10 - 1)
        assert check_consistency_splits(named_rule("av", 1, 2), Profile.from_ballots(2, [fs(0)] * 20)).checked == 524287
        # ten voters are still walked
        assert check_consistency_splits(as_choice_fn(named_rule("av", 1, 2)), Profile.from_ballots(2, [fs(0)] * 10)).checked == 2**9 - 1

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

    def test_only_a_failing_winner_is_walked(self, monkeypatch):
        # sav's winners (0, 1) and (0, 2) survive every reduction and are counted
        # without a walk; (0, 3) fails, and only its reductions are listed
        profile = Profile.from_ballots(4, [fs(0, 3), fs(1, 2)])
        rule = named_rule("sav", 2, 4)
        walked = check_independence_of_losers(as_choice_fn(rule), profile)
        listed = []
        reductions = rules._reductions_for
        monkeypatch.setattr(rules, "_reductions_for", lambda ballot, own: listed.append(own) or reductions(ballot, own))
        verdict = check_independence_of_losers(rule, profile)
        assert set(listed) == {0b1001}
        assert (verdict.passed, verdict.checked, verdict.witness) == (False, walked.checked, walked.witness)
        assert verdict.witness["committee"] == (0, 3)

    def test_all_ballots_inside_winner_vacuous(self):
        profile = Profile.from_ballots(2, [fs(0)])
        verdict = check_independence_of_losers(named_rule("av", 1, 2), profile)
        assert verdict.passed

    def test_cap_counts_only_reductions_that_exist(self, monkeypatch):
        # {1,2} misses the winner (0,): it keeps one of its members, 3 reductions, not 4
        profile = Profile.from_ballots(3, [fs(0), fs(0), fs(1, 2)])
        monkeypatch.setattr(rules, "IOL_EXHAUSTIVE_CAP", 3)
        verdict = check_independence_of_losers(as_choice_fn(named_rule("av", 1, 3)), profile)
        assert (verdict.passed, verdict.checked) == (True, 3)

    def test_cap_enforced(self):
        # four full ballots at m = 6: each winner of ccav has 32**4 = 2**20 reductions
        full = Profile.from_ballots(6, [fs(0, 1, 2, 3, 4, 5)] * 4)
        rule = named_rule("ccav", 1, 6)
        with pytest.raises(CapExceeded, match=r"^1048576 reduced profiles for committee \(0,\), over cap 65536$"):
            check_independence_of_losers(as_choice_fn(rule), full)
        # the rule's winners survive and are counted without a walk
        assert check_independence_of_losers(rule, full).checked == 6 * 2**20
        # sav's winners (0,) and (1,) survive, 4 * 2**20 reduced profiles each; (2,) fails, and its
        # first witness, with the second voter's {0,1} cut to {1}, is found past the walk's cap
        profile = Profile.from_ballots(6, [fs(0, 1), fs(0, 1), fs(2)] + [fs(0, 1, 2, 3, 4, 5)] * 4)
        with pytest.raises(CapExceeded, match=r"^4194304 reduced profiles for committee \(0,\), over cap 65536$"):
            check_independence_of_losers(as_choice_fn(named_rule("sav", 1, 6)), profile)
        verdict = check_independence_of_losers(named_rule("sav", 1, 6), profile)
        assert (verdict.passed, verdict.checked) == (False, 8 * 2**20 + 2**20 + 1)
        reduced = Profile.from_ballots(6, [fs(0, 1), fs(1), fs(2)] + [fs(0, 1, 2, 3, 4, 5)] * 4)
        assert (verdict.witness["committee"], verdict.witness["reduced_profile"]) == ((2,), reduced)

    def test_reductions_tried_over_the_cap(self, monkeypatch):
        # sav's one winner (3,) first loses where the second voter's {0,1,2} is cut to {1},
        # its 6th reduction: 5 are tried past the voters' first ones
        profile = Profile.from_ballots(4, [fs(0, 1), fs(0, 1, 2), fs(3)])
        rule = named_rule("sav", 1, 4)
        monkeypatch.setattr(rules, "IOL_EXHAUSTIVE_CAP", 5)
        assert rules.first_losing_reduction(rule, profile, (3,)) == (6, Profile.from_ballots(4, [fs(0, 1), fs(1), fs(3)]))
        monkeypatch.setattr(rules, "IOL_EXHAUSTIVE_CAP", 4)
        with pytest.raises(CapExceeded, match=r"^over 4 reductions tried for committee \(3,\)$"):
            rules.first_losing_reduction(rule, profile, (3,))
        with pytest.raises(CapExceeded, match=r"^over 4 reductions tried for committee \(3,\)$"):
            check_independence_of_losers(rule, profile)
        # sav's (2,) on four full ballots behind {0,1}, {0,1}, {2}: the second voter's {0,1}
        # is cut to {1}, its second reduction, and every other voter keeps its first
        wide = Profile.from_ballots(6, [fs(0, 1), fs(0, 1), fs(2)] + [fs(0, 1, 2, 3, 4, 5)] * 4)
        monkeypatch.setattr(rules, "IOL_EXHAUSTIVE_CAP", 1)
        assert rules.first_losing_reduction(named_rule("sav", 1, 6), wide, (2,))[0] == 2**20 + 1
        monkeypatch.setattr(rules, "IOL_EXHAUSTIVE_CAP", 0)
        # a surviving winner tries none
        assert rules.first_losing_reduction(named_rule("sav", 1, 6), wide, (0,)) is None

    def test_voters_first_reductions_are_not_counted(self, monkeypatch):
        # sav's (2,) with three voters each of {0}, {1}, {2}, one more {2} and two {0,1}:
        # 9 reduced profiles for (2,), under a cap below the 12 voters, so its first
        # witness is found as the walk finds it
        profile = Profile.from_ballots(3, [fs(0), fs(1), fs(2)] * 3 + [fs(2), fs(0, 1), fs(0, 1)])
        rule = named_rule("sav", 1, 3)
        monkeypatch.setattr(rules, "IOL_EXHAUSTIVE_CAP", 9)
        decided = check_independence_of_losers(rule, profile)
        walked = check_independence_of_losers(as_choice_fn(rule), profile)
        assert (decided.passed, decided.checked, decided.witness) == (walked.passed, walked.checked, walked.witness)
        assert (decided.passed, decided.witness["committee"]) == (False, (2,))

    def test_least_margins_decide_past_the_cap(self):
        # one voter approving all of m = 18: each of ccav's 18 winners at k = 1 has
        # 2**17 reduced profiles, over the cap; its least margins take 18 lookups
        wide = Profile.from_ballots(18, [fs(*range(18))])
        verdict = check_independence_of_losers(named_rule("ccav", 1, 18), wide)
        assert (verdict.passed, verdict.checked) == (True, 18 * 2**17)

    def test_least_margins_run_where_the_walk_is_within_the_cap(self):
        # av's one winner (0,) at m = 20, with 2**12 reduced profiles
        profile = Profile.from_ballots(20, [fs(*range(13)), fs(0)])
        rule = named_rule("av", 1, 20)
        verdict = check_independence_of_losers(rule, profile)
        assert verdict == check_independence_of_losers(as_choice_fn(rule), profile)
        assert (verdict.passed, verdict.checked) == (True, 2**12)

    def test_first_witness_among_few_losing_reductions(self):
        # sav's one winner (1,) first loses on the 33rd of its 96 reduced profiles, and loses
        # on 7 in all: 20 random draws among them miss every one about a fifth of the time
        profile = parse_profile("m=5\n2 3\n0 1 4\n1 3\n1 2 4\n")
        rule = named_rule("sav", 1, 5)
        verdict = check_independence_of_losers(rule, profile)
        assert verdict == check_independence_of_losers(as_choice_fn(rule), profile)
        assert (verdict.passed, verdict.checked, verdict.witness["committee"]) == (False, 33, (1,))
        assert verdict.witness["reduced_profile"] == parse_profile("m=5\n3\n0 1 4\n1 3\n1 2 4\n")


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
    return Rule("small-table", k, AbcScoringTable(values))


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
        with mock.patch.object(rules, "IOL_EXHAUSTIVE_CAP", cap):
            verdict = check_independence_of_losers(rule, profile)
    except CapExceeded as err:
        return "cap exceeded", str(err)
    return verdict.passed, verdict.checked, verdict.witness


@settings(max_examples=400, deadline=None)
@given(iol_instances())
# sav's (1,) first loses on its 33rd reduced profile, after 5 reductions tried
@example((named_rule("sav", 1, 5), parse_profile("m=5\n2 3\n0 1 4\n1 3\n1 2 4\n"), 2))
@example((named_rule("sav", 1, 5), parse_profile("m=5\n2 3\n0 1 4\n1 3\n1 2 4\n"), 8))
@example((named_rule("sav", 1, 3), parse_profile("m=3\n0 1\n0 1\n2\n"), IOL_EXHAUSTIVE_CAP))
@example((named_rule("msav", 2, 4), parse_profile("m=4\n1 2 3\n0 3\n0 1 2\n"), 32))
def test_iol_least_margins_match_the_walk(instance):
    """A library rule decides each winner, and finds its first losing reduced
    profile, by per-voter least margins; the same rule as a bare choice
    function walks every reduced profile.  Wherever the rule does not refuse
    under the drawn cap, its verdict, count and witness equal the walk's
    under the full cap, which no walk at these sizes meets.  The rule refuses
    only when it tries more reductions than the cap for a losing winner, and
    only where the walk under the same cap refuses too."""
    rule, profile, cap = instance
    decided = _iol_outcome(rule, profile, cap)
    if decided[0] == "cap exceeded":
        assert re.fullmatch(rf"over {cap} reductions tried for committee \(.*\)", decided[1])
        committee = ast.literal_eval(decided[1].rsplit(" committee ", 1)[1])
        assert rules.first_losing_reduction(rule, profile, committee) is not None
        assert _iol_outcome(as_choice_fn(rule), profile, cap)[0] == "cap exceeded"
    else:
        assert decided == _iol_outcome(as_choice_fn(rule), profile, IOL_EXHAUSTIVE_CAP)


def test_iol_first_witness_matches_the_walk_on_seeded_instances():
    """The same comparison on 2,000 seeded instances of the rules that fail
    independence of losers (sav, msav and random ballot-size weights and
    tables) at m <= 5 and 2-3 voters, so that over a hundred first
    witnesses are compared, not the few that the drawn examples reach."""
    rng = random.Random(28)
    failed = 0
    for _ in range(2000):
        m = rng.randint(2, 5)
        k = rng.randint(1, m - 1)
        kind = rng.randrange(3)
        if kind == 0:
            rule = named_rule(rng.choice(("sav", "msav")), k, m)
        elif kind == 1:
            rule = rules.bswav_rule("weights", k, [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(m)])
        else:
            rows = [list(itertools.accumulate(rng.randint(0, 3) for _ in range(k + 1))) for _ in range(m)]
            values = tuple(tuple(Fraction(row[x]) for row in rows) for x in range(k + 1))
            rule = Rule("table", k, AbcScoringTable(values))
        profile = Profile.from_ballots(m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(2, 3))])
        decided = check_independence_of_losers(rule, profile)
        walked = check_independence_of_losers(as_choice_fn(rule), profile)
        assert (decided.passed, decided.checked, decided.witness) == (walked.passed, walked.checked, walked.witness)
        failed += not decided.passed
    assert failed > 100, failed


@pytest.mark.parametrize("name", NAMED_RULES)
def test_iol_library_rule_matches_the_walk_on_every_small_profile(name):
    """Each library rule, on every profile of 1-2 voters at m = 3 and m = 4
    and every k < m: its least-margins verdict, count and witness equal the
    walk of the same rule as a bare choice function."""
    failed = 0
    for m in (3, 4):
        for n in (1, 2):
            for ballots in itertools.combinations_with_replacement(all_ballots(m), n):
                profile = Profile.from_ballots(m, list(ballots))
                for k in range(1, m):
                    rule = named_rule(name, k, m)
                    decided = check_independence_of_losers(rule, profile)
                    walked = check_independence_of_losers(as_choice_fn(rule), profile)
                    assert (decided.passed, decided.checked, decided.witness) == (
                        walked.passed, walked.checked, walked.witness), (k, profile)
                    failed += not decided.passed
    # the Thiele rules satisfy independence of losers; sav and msav do not
    assert (failed > 0) == (name in ("sav", "msav"))


@st.composite
def reduction_instances(draw):
    """A rule at m <= 7, as `scoring_rules` draws it, and a profile of 1-5 voters."""
    m = draw(st.integers(2, 7))
    k = draw(st.integers(1, m - 1))
    return draw(scoring_rules(m, k)), draw(_profiles(m, 1, 5))


@settings(max_examples=200, deadline=None)
@given(reduction_instances())
# (1, 2) fails against (0, 3) only by the reduction of {0,3} that keeps both
@example((rules.parse_rule_spec("thiele:0,0,1", 2, 4), Profile.from_ballots(4, [fs(0, 3)])))
# sav's (1,) fails against (0,) only by the reduction of {1,2} that keeps its one non-member
@example((named_rule("sav", 1, 3), Profile.from_ballots(3, [fs(0), fs(1, 2)])))
def test_least_margins_match_the_submask_oracle(instance):
    """The least margins read off (|A ∩ W ∩ W'|, |A ∩ W' outside W|) decide
    every committee as the walk over each voter's 2**d reductions does."""
    rule, profile = instance
    for committee in itertools.combinations(range(profile.m), rule.k):
        expected = oracle_survives_every_reduction(rule.score, profile, committee, rule.k)
        assert (rules.first_losing_reduction(rule, profile, committee) is None) == expected


def _by_form_outcome(check, rule, *args):
    """What a checker returns or raises: (passed, checked), or the error's type and message."""
    try:
        verdict = check(rule, *args)
    except Exception as err:  # the shortcut must refuse exactly as the walk does
        return type(err), str(err)
    return verdict.passed, verdict.checked


@st.composite
def scoring_rules(draw, m, k):
    """A library rule, a random `thiele:` or `bswav:` spec, or a random scoring table."""
    named = st.sampled_from(NAMED_RULES).map(lambda name: named_rule(name, k, m))
    return draw(st.one_of(named, thiele_specs(m, k), bswav_specs(m, k), small_tables(m, k), tables(m, k)))


def _profiles(m, min_size, max_size):
    masks = st.lists(st.integers(1, 2**m - 1), min_size=min_size, max_size=max_size)
    return masks.map(lambda ms: Profile.from_ballots(m, [frozenset(c for c in range(m) if x >> c & 1) for x in ms]))


@st.composite
def by_form_instances(draw):
    """A rule at m <= 5, a profile of 1-5 voters and a second one of 1-3 voters."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, m - 1))
    rule = draw(scoring_rules(m, k))
    return rule, draw(_profiles(m, 1, 5)), draw(_profiles(m, 1, 3))


@settings(max_examples=300, deadline=None)
@given(by_form_instances())
def test_by_form_axioms_match_the_walk(instance):
    """A `Rule` passes anonymity, neutrality and consistency without a kernel
    call; the same rule as a bare choice function walks every permutation,
    pair and split.  Verdict and count must agree."""
    rule, profile, other = instance
    walk = as_choice_fn(rule)
    for check, args in (
        (check_anonymity, (profile,)),
        (check_neutrality, (profile,)),
        (check_consistency_pair, (profile, other)),
        (check_consistency_pair, (other, profile)),
        (check_consistency_splits, (profile,)),
    ):
        outcome = _by_form_outcome(check, rule, *args)
        assert outcome == _by_form_outcome(check, walk, *args)
        assert outcome[0] is True


def test_by_form_axioms_call_no_kernel(monkeypatch):
    calls = []
    kernel = rules._kernel
    monkeypatch.setattr(rules, "_kernel", lambda *args: calls.append(args) or kernel(*args))
    profile = Profile.from_ballots(4, [fs(0, 1), fs(2), fs(1, 3), fs(0, 1)])
    other = Profile.from_ballots(4, [fs(3), fs(0, 2)])
    for name in NAMED_RULES:
        rule = named_rule(name, 2, 4)
        assert check_anonymity(rule, profile).checked == 24
        assert check_neutrality(rule, profile).checked == 24
        assert check_consistency_pair(rule, profile, other).checked == 1
        assert check_consistency_splits(rule, profile).checked == 7
    assert calls == []
    check_anonymity(as_choice_fn(named_rule("av", 2, 4)), profile)
    assert len(calls) == 25


HUGE_M = 20_000_000_000
BSWAV_M3 = rules.parse_rule_spec("bswav:1,1/2,1/3", 1, 3)


@pytest.mark.parametrize(
    "check, rule, args",
    [
        # a ballot-size rule built for m = 3 on a profile over 4 candidates
        (check_anonymity, BSWAV_M3, (Profile.from_ballots(4, [fs(0)]),)),
        (check_neutrality, BSWAV_M3, (Profile.from_ballots(4, [fs(0)]),)),
        (check_consistency_pair, BSWAV_M3, (Profile.from_ballots(4, [fs(0)]), Profile.from_ballots(4, [fs(1)]))),
        (check_consistency_splits, BSWAV_M3, (Profile.from_ballots(4, [fs(0), fs(1)]),)),
        # a pair whose profiles differ in m
        (check_consistency_pair, named_rule("av", 1, 3),
         (Profile.from_ballots(3, [fs(0)]), Profile.from_ballots(4, [fs(1)]))),
        # the committee limit, before any mask of the 2 * 10**10 candidates is built
        (check_anonymity, named_rule("av", 1, HUGE_M), (Profile.from_ballots(HUGE_M, [fs(0, 1), fs(0, 1), fs(2)]),)),
        (check_neutrality, named_rule("av", 1, HUGE_M), (Profile.from_ballots(HUGE_M, [fs(0, 1), fs(2)]),)),
        (check_consistency_pair, named_rule("av", 1, HUGE_M),
         (Profile.from_ballots(HUGE_M, [fs(0, 1)]), Profile.from_ballots(HUGE_M, [fs(2)]))),
        # the permutation walks' caps
        (check_anonymity, named_rule("pav", 2, 3), (Profile.from_ballots(3, [fs(0)] * 9),)),
        (check_neutrality, named_rule("sav", 2, 9), (Profile.from_ballots(9, [fs(0, 1), fs(8)]),)),
    ],
)
def test_by_form_refuses_as_the_walk_does(check, rule, args):
    outcome = _by_form_outcome(check, rule, *args)
    assert outcome == _by_form_outcome(check, as_choice_fn(rule), *args)
    assert isinstance(outcome[0], type) and issubclass(outcome[0], Exception)


@pytest.mark.parametrize("axiom", axioms.AXIOMS, ids=[axiom.name for axiom in axioms.AXIOMS])
def test_the_table_runs_the_checker_its_module_holds(axiom, monkeypatch):
    """A wrapper installed on the checker's module after the table was built is what runs."""
    module = inspect.getmodule(axiom.checker)
    assert axiom.check is axiom.checker
    wrapper = lambda *args, **kwargs: axiom.checker(*args, **kwargs)  # noqa: E731
    monkeypatch.setattr(module, axiom.checker.__name__, wrapper)
    assert axiom.check is wrapper


@pytest.mark.parametrize(
    "axiom, profile, message",
    [
        ("anonymity", Profile.from_ballots(3, [fs(0), fs(1, 2)] * 4 + [fs(2)]),
         "anonymity is checked on at most 8 voters"),
        ("neutrality", Profile.from_ballots(9, [fs(0, 1), fs(8), fs(3, 4, 5)]),
         "neutrality is checked on at most 8 candidates"),
    ],
    ids=["anonymity", "neutrality"],
)
def test_permutation_walks_over_the_cap_raise(axiom, profile, message):
    rule = named_rule("pav", 2, profile.m)
    for evaluated in (rule, as_choice_fn(rule)):
        with pytest.raises(CapExceeded, match=f"^{message}$"):
            axioms.lookup(axiom).check(evaluated, profile)


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
