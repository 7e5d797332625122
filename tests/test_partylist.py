
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from abcvote import partylist
from abcvote.axioms import replay
from abcvote.partylist import (
    NotPartyListError,
    check_aversion_unanimous,
    check_excellence,
    check_msav_threshold,
    check_party_proportionality,
    detect_party_structure,
    gen_excellence_witness_profile,
    gen_pav_witness_profile,
    gen_sav_witness_profile,
    require_party_structure,
)
from abcvote.profiles import Profile
from abcvote.rules import named_rule, winners
from abcvote.search import enumerate_profiles, unanimity_threshold_instance


def fs(*xs):
    return frozenset(xs)


def party_list_grid(m_max=4, n_max=4):
    for n in range(1, n_max + 1):
        for m in range(2, m_max + 1):
            for profile in enumerate_profiles(m, n):
                if detect_party_structure(profile) is not None:
                    yield profile


HUGE_M_CHECK = """
import resource, sys
sys.path.insert(0, {src!r})
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from abcvote import partylist
from abcvote.profiles import Profile
from abcvote.rules import named_rule
m = 20_000_000_000
try:
    partylist.{check}(named_rule("av", 1, m), Profile.from_ballots(m, [{{0, 1}}, {{0, 1}}, {{2}}]))
except ValueError as err:
    print(err)
"""


@pytest.mark.parametrize(
    "check", ["check_excellence", "check_party_proportionality", "check_aversion_unanimous", "check_msav_threshold"]
)
def test_rule_at_huge_m_meets_the_committee_limit_first(check):
    # the structure lists every candidate nobody approves as a singleton party, 2 * 10**10
    # of them here, which died of a MemoryError; the choice set is computed first
    src = str(Path(partylist.__file__).resolve().parents[1])
    code = HUGE_M_CHECK.format(src=src, limit=2_000_000 * 1024, check=check)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert (out.returncode, out.stdout) == (0, "C(20000000000,1) committees exceed the enumeration limit 200000\n")


class TestDetection:
    def test_direct_grouping(self):
        profile = Profile.from_ballots(3, [fs(0, 1), fs(0, 1), fs(2)])
        structure = detect_party_structure(profile)
        assert structure.parties == ((0, 1), (2,))
        assert structure.counts == (2, 1)

    def test_overlap_is_not_party_list(self):
        profile = Profile.from_ballots(3, [fs(0, 1), fs(1, 2)])
        assert detect_party_structure(profile) is None
        with pytest.raises(NotPartyListError):
            require_party_structure(profile)

    def test_zero_count_singleton_completion(self):
        profile = Profile.from_ballots(3, [fs(0)])
        structure = detect_party_structure(profile)
        assert structure.parties == ((0,), (1,), (2,))
        assert structure.counts == (1, 0, 0)

    def test_ratio(self):
        structure = detect_party_structure(Profile.from_ballots(4, [fs(0, 1)] * 3 + [fs(2)]))
        assert structure.ratio(0) == Fraction(3, 2)
        assert structure.counts == (3, 1, 0)


class TestPartyExport:
    def test_party_lines_appended_as_comments(self):
        from abcvote.partylist import format_with_parties
        from abcvote.profiles import parse_profile, profile_to_vector

        profile = Profile.from_ballots(4, [fs(0, 1), fs(0, 1), fs(2)])
        text = format_with_parties(profile)
        assert text.endswith("# party 0 1 n=2\n# party 2 n=1\n# party 3 n=0\n")
        again = parse_profile(text)
        assert profile_to_vector(again) == profile_to_vector(profile)

    def test_export_rejects_non_party_profiles(self):
        from abcvote.partylist import format_with_parties

        with pytest.raises(NotPartyListError):
            format_with_parties(Profile.from_ballots(3, [fs(0, 1), fs(1, 2)]))


class TestExcellence:
    def test_av_passes_on_tiny_grid(self):
        for profile in party_list_grid(m_max=4, n_max=3):
            for k in range(1, profile.m):
                assert check_excellence(named_rule("av", k, profile.m), profile).passed

    def test_ccav_fails_on_low_witness(self):
        # ccav has s(2) = 1 = 2 - 1, so the low case with t = 3 > k separates it
        profile = gen_excellence_witness_profile(2, 3, 2, 4, "low")
        rule = named_rule("ccav", 2, 4)
        verdict = check_excellence(rule, profile)
        assert not verdict.passed
        assert replay(verdict, rule)

    def test_pav_fails_on_low_witness(self):
        # pav has s(2) = 3/2 = 2 - 1/2; t = 5 gives t*delta > k
        profile = gen_excellence_witness_profile(2, 5, 2, 4, "low")
        rule = named_rule("pav", 2, 4)
        verdict = check_excellence(rule, profile)
        assert not verdict.passed
        assert replay(verdict, rule)

    def test_single_party_vacuous(self):
        profile = Profile.from_ballots(3, [fs(0, 1, 2)] * 2)
        verdict = check_excellence(named_rule("ccav", 2, 3), profile)
        assert verdict.passed

    def test_requires_party_list(self):
        with pytest.raises(NotPartyListError):
            check_excellence(named_rule("av", 1, 3), Profile.from_ballots(3, [fs(0, 1), fs(1, 2)]))


class TestPartyProportionality:
    def test_pav_passes_on_tiny_grid(self):
        for profile in party_list_grid(m_max=4, n_max=3):
            for k in range(1, profile.m):
                assert check_party_proportionality(named_rule("pav", k, profile.m), profile).passed

    def test_av_fails_example(self):
        profile = Profile.from_ballots(3, [fs(0, 1)] * 4 + [fs(2)] * 3)
        rule = named_rule("av", 2, 3)
        assert winners(rule, profile) == fs((0, 1))
        verdict = check_party_proportionality(rule, profile)
        assert not verdict.passed
        assert verdict.witness["contained_party"] == (0, 1)
        assert verdict.witness["better_party"] == (2,)
        assert replay(verdict, rule)

    def test_sav_passes_same_profile(self):
        profile = Profile.from_ballots(3, [fs(0, 1)] * 4 + [fs(2)] * 3)
        rule = named_rule("sav", 2, 3)
        assert winners(rule, profile) == fs((0, 2), (1, 2))
        assert check_party_proportionality(rule, profile).passed


class TestAversionToUnanimous:
    def test_sav_passes_on_tiny_grid(self):
        for profile in party_list_grid(m_max=4, n_max=4):
            for k in range(1, profile.m):
                assert check_aversion_unanimous(named_rule("sav", k, profile.m), profile).passed

    def test_pav_fails_threshold_instance(self):
        profile = unanimity_threshold_instance()
        rule = named_rule("pav", 2, 4)
        assert all(set(w) <= {0, 1, 2} for w in winners(rule, profile))
        verdict = check_aversion_unanimous(rule, profile)
        assert not verdict.passed
        assert verdict.witness["unanimous_party"] == (0, 1, 2)
        assert verdict.witness["singleton_party"] == (3,)
        assert replay(verdict, rule)

    def test_vacuous_when_winners_span_parties(self):
        profile = Profile.from_ballots(4, [fs(0, 1, 2)] * 6 + [fs(3)] * 3)
        rule = named_rule("sav", 2, 4)
        assert any(3 in w for w in winners(rule, profile))
        assert check_aversion_unanimous(rule, profile).passed


class TestMsavThreshold:
    def test_msav_passes_on_tiny_grid(self):
        for profile in party_list_grid(m_max=4, n_max=4):
            for k in range(1, profile.m):
                assert check_msav_threshold(named_rule("msav", k, profile.m), profile).passed

    def test_msav_passes_generated_family(self):
        for t in (2, 3, 4):
            for case in ("high", "low"):
                profile = gen_sav_witness_profile(3, t, 2, 4, case)
                assert check_msav_threshold(named_rule("msav", 2, 4), profile).passed

    def test_sav_fails_threshold_somewhere(self):
        # sav refuses unanimity once a singleton reaches n_i/|P_i| = 3 voters,
        # below the n_i/k = 9/2 threshold: high case t=3 puts singletons at 4
        profile = gen_sav_witness_profile(3, 3, 2, 4, "high")
        rule = named_rule("sav", 2, 4)
        verdict = check_msav_threshold(rule, profile)
        assert not verdict.passed
        assert replay(verdict, rule)

    def test_witness_k_is_the_rules_k(self):
        # k is read off the chosen committees, so a witness records the rule's own k
        failures = 0
        for profile in party_list_grid(m_max=4, n_max=4):
            for k in range(1, profile.m):
                for rule in (named_rule("sav", k, profile.m), named_rule("pav", k, profile.m)):
                    verdict = check_msav_threshold(rule, profile)
                    if not verdict.passed:
                        failures += 1
                        assert verdict.witness["k"] == k
        assert failures

    def test_empty_choice_set_is_refused(self):
        profile = unanimity_threshold_instance()
        with pytest.raises(ValueError, match="none was chosen"):
            check_msav_threshold(lambda p: frozenset(), profile)


class TestGenerators:
    def test_excellence_shapes(self):
        high = gen_excellence_witness_profile(2, 3, 2, 4, "high")
        assert high.ballot_list() == [fs(0, 1)] * 3 + [fs(2)] * 4 + [fs(3)] * 4
        low = gen_excellence_witness_profile(2, 3, 2, 4, "low")
        assert low.ballot_list() == [fs(0, 1)] * 3 + [fs(2)] * 2 + [fs(3)] * 2

    def test_pav_witness_shapes(self):
        high = gen_pav_witness_profile(2, 2, 2, 4, "high")
        assert high.ballot_list() == [fs(0, 1)] * 4 + [fs(2)] * 3 + [fs(3)] * 3

    def test_sav_witness_shapes(self):
        high = gen_sav_witness_profile(3, 2, 2, 4, "high")
        assert high.ballot_list() == [fs(0, 1, 2)] * 6 + [fs(3)] * 3

    def test_generators_always_party_list(self):
        for l, t, k, m in ((2, 2, 2, 4), (2, 3, 3, 4), (3, 2, 2, 4)):
            for case in ("high", "low"):
                if l <= k:
                    assert detect_party_structure(gen_excellence_witness_profile(l, t, k, m, case))
                    assert detect_party_structure(gen_pav_witness_profile(l, t, k, m, case))
                assert detect_party_structure(gen_sav_witness_profile(l, t, k, m, case))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_excellence_witness_profile(1, 3, 2, 4, "high")
        with pytest.raises(ValueError):
            gen_excellence_witness_profile(2, 1, 2, 4, "high")
        with pytest.raises(ValueError):
            gen_pav_witness_profile(3, 2, 2, 4, "high")
        with pytest.raises(ValueError):
            gen_sav_witness_profile(4, 2, 2, 4, "low")
        with pytest.raises(ValueError):
            gen_sav_witness_profile(2, 2, 2, 4, "mid")

    def test_av_on_pav_witness_fails_proportionality(self):
        profile = gen_pav_witness_profile(2, 2, 2, 4, "high")
        rule = named_rule("av", 2, 4)
        assert winners(rule, profile) == fs((0, 1))
        assert not check_party_proportionality(rule, profile).passed

    def test_pav_on_its_witnesses_passes(self):
        for t in (2, 3):
            for case in ("high", "low"):
                profile = gen_pav_witness_profile(2, t, 2, 4, case)
                assert check_party_proportionality(named_rule("pav", 2, 4), profile).passed

    def test_sav_vs_msav_on_sav_witness(self):
        profile = gen_sav_witness_profile(3, 2, 2, 4, "high")
        sav, msav = named_rule("sav", 2, 4), named_rule("msav", 2, 4)
        # sav: candidate scores 2,2,2,3 so every winner includes candidate 3
        assert all(3 in w for w in winners(sav, profile))
        assert check_aversion_unanimous(sav, profile).passed
        assert check_party_proportionality(sav, profile).passed
        # msav: alpha_3 = 1/2 lifts the party scores into a full tie
        assert len(winners(msav, profile)) == 6

    def test_msav_fails_strict_aversion_on_large_t(self):
        # t=3 high: party scores 9/2 beat the singleton's 4, but 9/3 = 3 < 4
        profile = gen_sav_witness_profile(3, 3, 2, 4, "high")
        msav = named_rule("msav", 2, 4)
        verdict = check_aversion_unanimous(msav, profile)
        assert not verdict.passed
        assert replay(verdict, msav)
        assert check_aversion_unanimous(named_rule("sav", 2, 4), profile).passed


class TestConverseSearches:
    def test_non_av_thiele_rules_fail_excellence_on_family(self):
        for name in ("pav", "ccav"):
            rule = named_rule(name, 2, 4)
            failed = False
            for t in (2, 3, 4, 5):
                for case in ("high", "low"):
                    profile = gen_excellence_witness_profile(2, t, 2, 4, case)
                    if not check_excellence(rule, profile).passed:
                        failed = True
            assert failed, f"{name} should fail excellence on some generated witness"

    def test_non_pav_thiele_rules_fail_proportionality_on_family(self):
        for name in ("av", "ccav"):
            rule = named_rule(name, 2, 4)
            failed = False
            for t in (2, 3, 4, 5):
                for case in ("high", "low"):
                    profile = gen_pav_witness_profile(2, t, 2, 4, case)
                    if not check_party_proportionality(rule, profile).passed:
                        failed = True
            assert failed, f"{name} should fail party-proportionality on some generated witness"

    def test_msav_fails_an_axiom_on_sav_family(self):
        msav = named_rule("msav", 2, 4)
        failed = False
        for l in (2, 3):
            for t in (2, 3, 4):
                for case in ("high", "low"):
                    profile = gen_sav_witness_profile(l, t, 2, 4, case)
                    if not check_party_proportionality(msav, profile).passed:
                        failed = True
                    if not check_aversion_unanimous(msav, profile).passed:
                        failed = True
        assert failed
