
from collections import Counter

import pytest

from abcvote import search
from abcvote.axioms import replay
from abcvote.profiles import Profile, canonical_form, profile_to_vector
from abcvote.rules import named_rule, thiele_rule, winners
from abcvote.search import (
    SearchBounds,

    enumerate_profiles,
    find_counterexample,

    min_approval_rule,
    separation_suite,
)

from conftest import raw_profiles


def fs(*xs):
    return frozenset(xs)


def tiebreak_av_factory(m, k):
    """AV with ties broken towards the least committee, which fails continuity."""

    def choose(profile):
        return frozenset({min(winners(named_rule("av", k, m), profile))})

    return choose


class TestEnumerateProfiles:
    def test_m2_n1_counts(self):
        assert len(list(enumerate_profiles(2, 1, canonical=False))) == 3
        assert len(list(enumerate_profiles(2, 1, canonical=True))) == 2

    def test_m2_n2_raw_count(self):
        assert len(list(enumerate_profiles(2, 2, canonical=False))) == 6

    def test_raw_matches_independent_enumeration(self):
        for m in (2, 3):
            for n in (1, 2, 3):
                ours = [profile_to_vector(p) for p in enumerate_profiles(m, n, canonical=False)]
                oracle = [profile_to_vector(p) for p in raw_profiles(m, n)]
                assert sorted(ours, key=lambda v: v.dense()) == sorted(oracle, key=lambda v: v.dense())

    def test_canonical_stream_has_no_equivalent_pair(self):
        for m in (2, 3):
            for n in (1, 2, 3):
                forms = [canonical_form(p).dense() for p in enumerate_profiles(m, n)]
                assert len(forms) == len(set(forms))

    def test_orbit_sizes_cover_raw_count(self):
        for m in (2, 3):
            for n in (1, 2, 3):
                raw = list(enumerate_profiles(m, n, canonical=False))
                orbits = Counter(canonical_form(p).dense() for p in raw)
                reps = {canonical_form(p).dense() for p in enumerate_profiles(m, n)}
                assert reps == set(orbits)
                assert sum(orbits.values()) == len(raw)

    def test_stream_is_deterministic(self):
        first = [profile_to_vector(p).dense() for p in enumerate_profiles(3, 2)]
        second = [profile_to_vector(p).dense() for p in enumerate_profiles(3, 2)]
        assert first == second

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_profiles(7, 1))
        with pytest.raises(ValueError):
            list(enumerate_profiles(3, 7))
        with pytest.raises(ValueError):
            SearchBounds(m_max=7)


class TestFindCounterexample:
    def test_sav_iol_witness_found(self):
        result = find_counterexample("sav", "independence-of-losers", SearchBounds(3, (1,), 3))
        assert result.found
        rule = named_rule("sav", 1, result.verdict.witness["profile"].m)
        assert replay(result.verdict, rule)

    def test_witness_that_fails_replay_raises(self, monkeypatch):
        # the replay check must be an explicit raise, which `python -O` keeps
        monkeypatch.setattr(search, "replay", lambda verdict, rule: False)
        with pytest.raises(RuntimeError, match="does not replay"):
            find_counterexample("sav", "independence-of-losers", SearchBounds(3, (1,), 3))
        with pytest.raises(RuntimeError, match="does not replay"):
            find_counterexample(tiebreak_av_factory, "continuity", SearchBounds(2, (1,), 2, lambda_cap=20))

    def test_pav_convexity_witness(self):
        result = find_counterexample("pav", "choice-set-convexity", SearchBounds(4, (2,), 2))
        assert result.found
        witness = result.verdict.witness
        ballots = sorted(witness["profile"].ballot_list(), key=sorted)
        # the orbit of the two-voter disjoint-pair profile
        assert len(ballots) == 2 and not ballots[0] & ballots[1]
        assert len(ballots[0]) == len(ballots[1]) == 2

    def test_av_convexity_exhausted(self):
        result = find_counterexample("av", "choice-set-convexity", SearchBounds(4, (1, 2, 3), 2))
        assert not result.found
        assert result.instances == 93

    def test_exhausted_count_reproducible(self):
        bounds = SearchBounds(3, (1, 2), 2)
        a = find_counterexample("av", "independence-of-losers", bounds)
        b = find_counterexample("av", "independence-of-losers", bounds)
        assert (a.found, a.instances) == (b.found, b.instances)

    def test_consistency_pairs_for_scoring_rule_exhausted(self):
        result = find_counterexample("pav", "consistency", SearchBounds(3, (1, 2), 2))
        assert not result.found
        assert result.instances > 0

    def test_continuity_search_finds_lambdas(self):
        result = find_counterexample("av", "continuity", SearchBounds(3, (1,), 2))
        assert not result.found

    def test_continuity_not_found_for_tiebreak_rule(self):
        bounds = SearchBounds(2, (1,), 2, lambda_cap=20)
        result = find_counterexample(tiebreak_av_factory, "continuity", bounds)
        assert result.found
        assert result.verdict.axiom == "continuity"

    def test_party_axiom_search_skips_non_party_profiles(self):
        result = find_counterexample("av", "excellence", SearchBounds(3, (1, 2), 2))
        assert not result.found
        party_count = sum(
            1
            for n in (1, 2)
            for m in (2, 3)
            for p in enumerate_profiles(m, n)
            for _ in range(len([k for k in (1, 2) if k <= m - 1]))
            if __import__("abcvote.partylist", fromlist=["x"]).detect_party_structure(p) is not None
        )
        assert result.instances == party_count

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            find_counterexample("av", "committee-monotonicity", SearchBounds())

    def test_iol_cap_falls_back_to_sampling(self):
        # a tiny cap forces the seeded sampling path; av still never fails
        bounds = SearchBounds(3, (1,), 3, iol_cap=2)
        result = find_counterexample("av", "independence-of-losers", bounds)
        assert not result.found
        again = find_counterexample("av", "independence-of-losers", bounds)
        assert (result.found, result.instances) == (again.found, again.instances)

    def test_min_approval_rule_shape(self):
        choose = min_approval_rule(1)
        assert choose(Profile.from_ballots(3, [fs(0)])) == fs((1,), (2,))


class TestSeparationSuite:
    def test_all_expectations_met(self):
        report = separation_suite()
        assert report.ok
        for entry in report.entries:
            assert entry.ok, f"{entry.rule}/{entry.axiom}: {entry.observed}"

    def test_report_is_deterministic(self):
        assert separation_suite().render() == separation_suite().render()

    def test_corrupted_pav_flags_mismatch(self):
        # swap in an AV table under the pav name: the convexity violation vanishes
        fake = {"pav": lambda m, k: thiele_rule("pav", list(range(k + 1)))}
        report = separation_suite(factories=fake)
        assert not report.ok
        broken = [e for e in report.entries if not e.ok]
        assert any(e.rule == "pav" and e.axiom == "choice-set-convexity" for e in broken)

    def test_triv_entries_annotated_degenerate(self):
        report = separation_suite()
        assert all(e.degenerate for e in report.entries if e.rule == "triv")
        assert any(e.degenerate for e in report.entries)

    def test_uniqueness_note_present(self):
        report = separation_suite()
        assert any("uniqueness" in note for note in report.notes)

    def test_json_shape(self):
        report = separation_suite()
        data = report.to_json()
        assert data["ok"] is True
        assert {e["rule"] for e in data["entries"]} >= {"av", "pav", "sav", "msav", "triv"}
