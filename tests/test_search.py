
import itertools
import operator
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote import axioms, rules, search
from abcvote.axioms import as_choice_fn, replay
from abcvote.profiles import MAX_CANONICAL_M, Profile, canonical_form, profile_to_vector
from abcvote.rules import named_rule, thiele_rule, winners
from abcvote.search import (
    SearchBounds,

    enumerate_profiles,
    find_counterexample,

    min_approval_rule,
    separation_suite,
)

from conftest import all_subsets_nonempty, oracle_canonical_form, oracle_profile_scores, raw_profiles


def fs(*xs):
    return frozenset(xs)


def tiebreak_av_factory(m, k):
    """AV with ties broken towards the least committee, which fails continuity."""

    def choose(profile):
        return frozenset({min(winners(named_rule("av", k, m), profile))})

    return choose


@pytest.fixture
def fresh_walks(monkeypatch):
    """An empty store of kept spaces for the test, so that its first walk of a space walks."""
    monkeypatch.setattr(search, "_kept", {})


class CountingTable(tuple):
    """A ballot permutation table that counts its lookups."""

    lookups = 0

    def __getitem__(self, i):
        CountingTable.lookups += 1
        return tuple.__getitem__(self, i)


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
                assert sorted(ours, key=lambda v: v.entries) == sorted(oracle, key=lambda v: v.entries)

    def test_canonical_stream_has_no_equivalent_pair(self):
        for m in (2, 3):
            for n in (1, 2, 3):
                forms = [canonical_form(p) for p in enumerate_profiles(m, n)]
                assert len(forms) == len(set(forms))

    def test_orbit_sizes_cover_raw_count(self):
        for m in (2, 3):
            for n in (1, 2, 3):
                raw = list(enumerate_profiles(m, n, canonical=False))
                orbits = Counter(canonical_form(p) for p in raw)
                reps = {canonical_form(p) for p in enumerate_profiles(m, n)}
                assert reps == set(orbits)
                assert sum(orbits.values()) == len(raw)

    def test_stream_is_deterministic(self, fresh_walks):
        walked = [profile_to_vector(p) for p in enumerate_profiles(3, 2)]
        assert (3, 2) in search._kept
        replayed = [profile_to_vector(p) for p in enumerate_profiles(3, 2)]
        search._kept.clear()
        assert replayed == walked == [profile_to_vector(p) for p in enumerate_profiles(3, 2)]

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_profiles(7, 1))
        with pytest.raises(ValueError):
            list(enumerate_profiles(3, 7))
        with pytest.raises(ValueError):
            SearchBounds(m_max=7)
        # committees have size k <= m - 1: no m <= 3 admits k = 4
        with pytest.raises(ValueError, match="needs m_max of at least 5"):
            SearchBounds(m_max=3, k_set=(4, 5))
        assert SearchBounds(m_max=3, k_set=(2, 5)).k_set == (2, 5)


class TestKeptSpaces:
    """A canonical space walked to the end is kept and replayed; nothing else is."""

    @pytest.mark.parametrize("m, n", [(m, n) for m in (2, 3, 4, 5) for n in (1, 2, 3)])
    def test_replay_equals_a_fresh_walk(self, fresh_walks, m, n):
        walked = list(enumerate_profiles(m, n))
        replayed = list(enumerate_profiles(m, n))
        assert all(map(operator.is_, replayed, walked)) and len(replayed) == len(walked)
        search._kept.clear()
        fresh = list(enumerate_profiles(m, n))
        assert [p.masks for p in replayed] == [p.masks for p in fresh]
        assert not any(map(operator.is_, replayed, fresh))

    def test_second_walk_does_no_table_lookups(self, fresh_walks, monkeypatch):
        tables = search.ballot_permutation_tables
        monkeypatch.setattr(search, "ballot_permutation_tables", lambda m: tuple(map(CountingTable, tables(m))))
        monkeypatch.setattr(CountingTable, "lookups", 0)
        first = list(enumerate_profiles(4, 3))
        assert CountingTable.lookups > 0
        CountingTable.lookups = 0
        second = list(enumerate_profiles(4, 3))
        assert CountingTable.lookups == 0
        assert all(map(operator.is_, second, first)) and len(second) == len(first) == 65
        # pair searches read both sides through the stream: the kept profiles themselves, no lookup
        ones, twos = list(enumerate_profiles(4, 1)), list(enumerate_profiles(4, 2))
        CountingTable.lookups = 0
        pairs = list(search._pairs(4, 4))
        assert CountingTable.lookups == 0
        kept = [*itertools.product(ones, first), *itertools.product(twos, twos), *itertools.product(first, ones)]
        assert len(pairs) == len(kept) and all(a is c and b is d for (a, b), (c, d) in zip(pairs, kept))

    def test_walk_stopped_early_keeps_nothing(self, fresh_walks):
        stream = enumerate_profiles(5, 3)
        assert len(list(itertools.islice(stream, 7))) == 7
        stream.close()
        assert (5, 3) not in search._kept
        assert len(list(enumerate_profiles(5, 3))) == burnside_orbit_count(5, 3) == 156
        assert len(search._kept[5, 3]) == 156

    def test_search_with_a_witness_keeps_nothing_of_where_it_stopped(self, fresh_walks):
        # k = 2 needs m >= 3: walks n = 1 at m = 3, 4, then (3, 2), and stops inside (4, 2)
        result = find_counterexample("pav", "choice-set-convexity", SearchBounds(4, (2,), 2))
        assert result.found
        assert set(search._kept) == {(3, 1), (4, 1), (3, 2)}
        assert len(list(enumerate_profiles(4, 2))) == burnside_orbit_count(4, 2)

    @pytest.mark.parametrize("limit, kept", [(65, True), (64, False), (20, False)])
    def test_space_over_the_limit_is_not_kept(self, fresh_walks, monkeypatch, limit, kept):
        # (4, 3) has 65 representatives among 680 multisets; at 20 * 4! = 480 < 680
        # the walk keeps none from the start, at 64 it drops them on the 65th
        monkeypatch.setattr(search, "MAX_KEPT_PROFILES", limit)
        for _ in range(2):
            assert len(list(enumerate_profiles(4, 3))) == 65
            assert ((4, 3) in search._kept) == kept

    def test_walk_too_large_to_keep_holds_no_profile(self, fresh_walks, monkeypatch):
        # 680 multisets > 20 * 4!: a profile the caller lets go is freed at once
        monkeypatch.setattr(search, "MAX_KEPT_PROFILES", 20)
        stream = enumerate_profiles(4, 3)
        refs = [weakref.ref(profile) for profile in itertools.islice(stream, 15)]
        assert all(ref() is None for ref in refs[:-1])  # the walk still holds the one it last yielded
        stream.close()

    def test_raw_walks_are_never_kept(self, fresh_walks):
        assert len(list(enumerate_profiles(3, 2, canonical=False))) == 28
        assert not search._kept


def burnside_orbit_count(m, n):
    """Candidate-renaming orbits of n-multisets of ballots, by Burnside's lemma.

    A permutation fixes a multiset iff the multiset is constant on every
    cycle of the ballot permutation it induces, so it fixes the coefficient
    of x^n in the product over those cycles of 1 / (1 - x^length).
    """
    ballots = all_subsets_nonempty(m)
    position = {ballot: i for i, ballot in enumerate(ballots)}
    perms = list(itertools.permutations(range(m)))
    fixed = 0
    for tau in perms:
        image = [position[frozenset(tau[c] for c in ballot)] for ballot in ballots]
        series = [1] + [0] * n
        seen = set()
        for start in range(len(ballots)):
            if start in seen:
                continue
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = image[i]
                length += 1
            for d in range(length, n + 1):
                series[d] += series[d - length]
        fixed += series[n]
    if fixed % len(perms):
        raise ValueError("Burnside sum is not a multiple of the group order")
    return fixed // len(perms)


class TestCanonicalOracles:
    """The table-driven canonicity test against representative-independent
    orbit counts and against the naive m! dense-vector scan."""

    @pytest.mark.parametrize(
        "m, n", [(m, n) for m in (2, 3, 4, 5) for n in (1, 2, 3, 4)] + [(6, 1), (6, 2), (6, 3)]
    )
    def test_orbit_count_matches_burnside(self, m, n):
        assert len(list(enumerate_profiles(m, n))) == burnside_orbit_count(m, n)

    def test_known_m6_counts(self):
        assert [burnside_orbit_count(6, n) for n in (2, 3)] == [43, 336]

    @pytest.mark.parametrize("m, n", [(m, n) for m in (2, 3, 4) for n in (1, 2, 3)] + [(5, 2)])
    def test_stream_is_raw_filtered_by_oracle(self, m, n):
        expected = [p.masks for p in raw_profiles(m, n) if oracle_canonical_form(p) == p]
        assert [p.masks for p in enumerate_profiles(m, n)] == expected
        assert all(canonical_form(p) == p for p in enumerate_profiles(m, n))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_canonical_form_matches_oracle(self, data):
        m = data.draw(st.integers(2, 5))
        pool = data.draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=3))
        ballots = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
        order = data.draw(st.permutations(range(len(ballots))))
        profile = Profile.from_ballots(m, [frozenset(ballots[i]) for i in order])
        assert canonical_form(profile) == oracle_canonical_form(profile)

    def test_canonical_form_m_capped(self):
        wide = Profile.from_ballots(MAX_CANONICAL_M + 1, [fs(0)])
        with pytest.raises(ValueError, match="canonical forms need"):
            canonical_form(wide)

    def test_tables_not_built_at_import(self):
        src = str(Path(search.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import abcvote as a; "
        code += "print(a.profiles.ballot_permutation_tables.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.stdout == "0\n"


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

    def test_iol_walk_over_the_cap_raises(self, monkeypatch):
        # a choice function walks every reduced profile; over the cap the search stops,
        # and never reports "exhausted" for a walk it did not finish
        factory = lambda m, k: as_choice_fn(named_rule("av", k, m))
        bounds = SearchBounds(3, (1,), 2)
        walked = find_counterexample(factory, "iol", bounds)
        assert (walked.found, walked.instances) == (False, 18)
        monkeypatch.setattr(rules, "IOL_EXHAUSTIVE_CAP", 2)
        with pytest.raises(axioms.CapExceeded, match=r"^4 reduced profiles for committee \(0,\), over cap 2$"):
            find_counterexample(factory, "iol", bounds)
        # the rule itself is decided by least margins: no winner of av loses, so none tries a reduction
        decided = find_counterexample("av", "iol", bounds)
        assert (decided.found, decided.instances) == (False, 18)

    def test_min_approval_rule_shape(self):
        choose = min_approval_rule(1)
        assert choose(Profile.from_ballots(3, [fs(0)])) == fs((1,), (2,))
        with pytest.raises(ValueError, match=r"^committee size k=3 must satisfy 1 <= k <= m-1=2$"):
            min_approval_rule(3)(Profile.from_ballots(3, [fs(0)]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_min_approval_rule_matches_the_oracle(self, data):
        # the committees of least approval score, every tied one included
        m = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(1, m - 1))
        masks = data.draw(st.lists(st.integers(1, 2**m - 1), min_size=1, max_size=6))
        profile = Profile.from_ballots(m, [frozenset(c for c in range(m) if mask >> c & 1) for mask in masks])
        scored = oracle_profile_scores(lambda x, y: x, profile, k)
        least = min(score for _, score in scored)
        assert min_approval_rule(k)(profile) == frozenset(w for w, score in scored if score == least)


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
