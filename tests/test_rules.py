import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from abcvote.profiles import (
    Profile,
    ProfileVector,
    all_ballots,
    all_ballots_profile,
    apply_candidate_permutation,
    ballot_mask,
    profile_to_vector,
    scale_profile,
    add_profiles,
)
from abcvote import rules
from abcvote.rules import (
    AbcScoringTable,
    BswavWeights,
    Rule,
    ThieleScore,
    bswav_rule,
    committee_score,
    continuity_lambda_bound,
    format_rational,
    named_rule,
    parse_rational,
    parse_rule_spec,
    scaled_pair_winners,
    thiele_rule,
    winners,
    winners_from_vector,
)

from conftest import oracle_winners, raw_profiles

F = Fraction


def fs(*xs):
    return frozenset(xs)


LIBRARY = ["av", "pav", "ccav", "sav", "msav", "triv"]


def library_rules(m, k):
    return [named_rule(name, k, m) for name in LIBRARY]


class TestNamedRules:
    def test_pav_harmonic(self):
        rule = named_rule("pav", 3, 5)
        assert rule.scoring.values == (F(0), F(1), F(3, 2), F(11, 6))

    def test_sav_weights(self):
        rule = named_rule("sav", 2, 4)
        assert rule.scoring.alpha == (F(1), F(1, 2), F(1, 3), F(1, 4))

    def test_msav_weights(self):
        rule = named_rule("msav", 2, 4)
        assert rule.scoring.alpha == (F(1), F(1, 2), F(1, 2), F(1, 2))

    def test_av_and_ccav_and_triv(self):
        assert named_rule("av", 2, 4).scoring.values == (F(0), F(1), F(2))
        assert named_rule("ccav", 3, 4).scoring.values == (F(0), F(1), F(1), F(1))
        assert named_rule("triv", 2, 4).scoring.values == (F(0), F(0), F(0))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_rule("phragmen", 2, 4)


class TestScoringValidation:
    def test_thiele_must_start_at_zero(self):
        with pytest.raises(ValueError):
            ThieleScore(1, (F(1), F(2)))

    def test_thiele_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            ThieleScore(2, (F(0), F(2), F(1)))

    def test_bswav_nonnegative(self):
        with pytest.raises(ValueError):
            BswavWeights(2, (F(1), F(-1)))

    def test_table_active_range_only(self):
        # k=2, m=3: a size-2 ballot always intersects a committee in 1 or 2
        # candidates, so a spike at the inactive (x=0, y=2) entry is fine...
        values = (
            (F(0), F(99), F(0)),
            (F(1), F(1), F(0)),
            (F(1), F(2), F(1)),
        )
        AbcScoringTable(2, 3, values)
        # ...but a dip inside the active range of y=2 is rejected.
        bad = (
            (F(0), F(0), F(0)),
            (F(1), F(3), F(0)),
            (F(1), F(2), F(1)),
        )
        with pytest.raises(ValueError):
            AbcScoringTable(2, 3, bad)

    def test_rule_k_consistency(self):
        with pytest.raises(ValueError):
            Rule("x", 2, ThieleScore(3, (F(0), F(1), F(2), F(3))))
        with pytest.raises(ValueError):
            Rule("x", 4, BswavWeights(4, (F(1),) * 4))


class TestCommitteeScore:
    PROFILE = Profile.from_ballots(4, [fs(0, 1), fs(0), fs(2, 3)])

    def test_pav_example(self):
        rule = named_rule("pav", 2, 4)
        assert committee_score(rule, self.PROFILE, (0, 1)) == F(5, 2)

    def test_sav_example(self):
        rule = named_rule("sav", 2, 4)
        assert committee_score(rule, self.PROFILE, (0, 2)) == F(2)

    def test_triv_scores_zero(self):
        rule = named_rule("triv", 2, 4)
        for committee in itertools.combinations(range(4), 2):
            assert committee_score(rule, self.PROFILE, committee) == 0

    def test_dimension_mismatch(self):
        rule = named_rule("sav", 2, 5)
        with pytest.raises(ValueError):
            committee_score(rule, self.PROFILE, (0, 1))
        with pytest.raises(ValueError):
            committee_score(named_rule("av", 2, 4), self.PROFILE, (0, 1, 2))


class TestWinners:
    PROFILE = Profile.from_ballots(4, [fs(0, 1), fs(0), fs(2, 3)])

    def test_av_example(self):
        assert winners(named_rule("av", 2, 4), self.PROFILE) == fs((0, 1), (0, 2), (0, 3))

    def test_pav_example(self):
        assert winners(named_rule("pav", 2, 4), self.PROFILE) == fs((0, 2), (0, 3))

    def test_full_ballot_total_tie(self):
        profile = Profile.from_ballots(4, [fs(0, 1, 2, 3)])
        for rule in library_rules(4, 2):
            assert len(winners(rule, profile)) == comb(4, 2)

    def test_against_oracle(self):
        rng = random.Random(21)
        for _ in range(60):
            m = rng.randint(2, 5)
            k = rng.randint(1, m - 1)
            profile = Profile.from_ballots(
                m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, 4))]
            )
            for rule in library_rules(m, k):
                assert winners(rule, profile) == oracle_winners(rule.score, profile, k)

    def test_never_empty_exhaustive(self):
        for m in range(2, 5):
            for n in range(1, 4):
                for profile in raw_profiles(m, n):
                    for k in range(1, m):
                        for rule in library_rules(m, k):
                            assert winners(rule, profile)

    def test_enumeration_cap(self, monkeypatch):
        # C(24, 12) = 2,704,156 committees: rejected before any is built, and
        # before any ballot becomes a mask, which at a huge m can take gigabytes
        # (a vector's entries are masks already)
        profile = Profile.from_ballots(24, [fs(0)])
        rule = named_rule("av", 12, 24)
        cached = rules._committee_masks.cache_info().currsize
        monkeypatch.setattr(rules, "_profile_terms", lambda *args: pytest.fail("terms built over the committee limit"))
        with pytest.raises(ValueError, match="enumeration limit"):
            winners(rule, profile)
        with pytest.raises(ValueError, match="enumeration limit"):
            winners_from_vector(rule, profile_to_vector(profile), 12)
        with pytest.raises(ValueError, match="enumeration limit"):
            continuity_lambda_bound(rule, profile, profile)
        assert rules._committee_masks.cache_info().currsize == cached

    def test_committee_limit_is_the_binomial(self):
        # the limit skips comb() at a large min(k, m - k); it must still refuse exactly
        # C(m, k) > MAX_COMMITTEES, and then the committees whose 80 B, k members and
        # mask of m * k / (k + 1) bits on average, at 4 B per 30 bits, would take more
        # than MAX_COMMITTEE_BYTES
        for m in [*range(2, 52), 632, 633, 21_935, 21_936, 200_000, 200_001]:
            for k in {*range(1, min(m, 24) + 2), m // 2, m - 2, m - 1, m, m + 1}:
                count = comb(m, k)
                wide = count * (80 + 8 * k + 4 * m * k // (30 * (k + 1))) > rules.MAX_COMMITTEE_BYTES
                try:
                    rules.check_committee_limit(m, k)
                except ValueError as err:
                    if count > rules.MAX_COMMITTEES:
                        assert str(err) == f"C({m},{k}) committees exceed the enumeration limit 200000"
                    else:
                        message = f"C({m},{k}) committees with their {m}-bit masks exceed the memory limit 34000000 B"
                        assert wide and str(err) == message
                else:
                    assert count <= rules.MAX_COMMITTEES and not wide, (m, k)
        # one-member committees: the masks of 21,935 candidates took 34.7 MB (tracemalloc)
        rules.check_committee_limit(21_935, 1)
        with pytest.raises(ValueError, match="memory limit"):
            rules.check_committee_limit(21_936, 1)

    def test_committee_width_limit_keeps_every_pair_up_to_m_20(self):
        # (20000, 19999) and (200000, 1) passed the count alone and then died of a MemoryError;
        # C(22, 15) = 170,544 committees of 15 members come to about 35 MB
        for m, k in [(20_000, 19_999), (200_000, 1), (22, 15)]:
            with pytest.raises(ValueError, match="memory limit"):
                rules.check_committee_limit(m, k)
        for m in range(2, 21):
            for k in range(1, m):
                rules.check_committee_limit(m, k)

    @pytest.mark.parametrize("spec", ["sav", "msav", "bswav"])
    def test_ballot_size_rules_refuse_over_the_limit(self, spec):
        # the kernel takes the lcm of their m weights, which `score` would pay at a huge m:
        # the weights are bounded as the m one-member committees are, whatever C(m, k)
        # (C(700, 2) = 244,650 and C(21935, 3) are over the count limit)
        def parse(k, m):
            text = "bswav:" + ",".join(f"1/{x}" for x in range(1, m + 1)) if spec == "bswav" else spec
            return parse_rule_spec(text, k, m)

        for m, k in [(700, 2), (21_935, 1), (21_935, 3)]:
            assert parse(k, m).k == k
        with pytest.raises(ValueError, match=r"C\(21936,1\) committees .* memory limit"):
            parse(3, 21_936)

    def test_kernel_never_hashes_the_rule(self, monkeypatch):
        # the integer tables live on the rule, so a kernel call finds its table
        # without hashing or comparing the rule's Fractions
        profile = Profile.from_ballots(4, [fs(0, 1), fs(0), fs(2, 3), fs(0, 1), fs(1, 3)])
        new_sizes = Profile.from_ballots(4, [fs(0, 1, 2), fs(3), fs(1, 2, 3)])

        def refuse(*_):
            raise AssertionError("the kernel hashed or compared the rule's parameters")

        for name in ("pav", "sav"):
            rule = named_rule(name, 2, 4)
            chosen = winners(rule, profile)
            twin = named_rule(name, 2, 4)
            assert rule == twin and hash(rule) == hash(twin)
            monkeypatch.setattr(type(rule.scoring), "__hash__", refuse)
            monkeypatch.setattr(type(rule.scoring), "__eq__", refuse)
            assert winners(rule, profile) == chosen
            assert winners(rule, new_sizes) == oracle_winners(rule.score, new_sizes, 2)
            monkeypatch.undo()

    def test_many_candidates_small_committee(self):
        # the limit is on C(m, k), not on m: C(30, 2) = 435 committees
        rng = random.Random(30)
        profile = Profile.from_ballots(30, [fs(*rng.sample(range(30), rng.randint(1, 4))) for _ in range(12)])
        for rule in library_rules(30, 2):
            assert winners(rule, profile) == oracle_winners(rule.score, profile, 2)

    def test_av_cross_family_agreement(self):
        for m in range(2, 5):
            for k in range(1, m):
                av_thiele = named_rule("av", k, m)
                av_bswav = bswav_rule("av-as-bswav", k, [F(1)] * m)
                for n in range(1, 4):
                    for profile in raw_profiles(m, n):
                        assert winners(av_thiele, profile) == winners(av_bswav, profile)

    def test_positive_scaling_invariance(self):
        rng = random.Random(22)
        for _ in range(25):
            m = rng.randint(2, 4)
            k = rng.randint(1, m - 1)
            profile = Profile.from_ballots(
                m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, 4))]
            )
            pav = named_rule("pav", k, m)
            scaled = thiele_rule("pav-scaled", [v * F(7, 3) for v in pav.scoring.values])
            assert winners(pav, profile) == winners(scaled, profile)
            sav = named_rule("sav", k, m)
            scaled_sav = bswav_rule("sav-scaled", k, [a * F(5, 2) for a in sav.scoring.alpha])
            assert winners(sav, profile) == winners(scaled_sav, profile)

    def test_full_ballot_inertness(self):
        rng = random.Random(23)
        for _ in range(25):
            m = rng.randint(2, 4)
            k = rng.randint(1, m - 1)
            profile = Profile.from_ballots(
                m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, 3))]
            )
            padded = add_profiles(profile, Profile.from_ballots(m, [fs(*range(m))]), relabel=True)
            for rule in library_rules(m, k):
                assert winners(rule, profile) == winners(rule, padded)

    def test_consistency_by_construction(self):
        for a in raw_profiles(3, 2):
            for b in raw_profiles(3, 2):
                joint = add_profiles(a, b, relabel=True)
                for k in (1, 2):
                    for rule in library_rules(3, k):
                        wa, wb = winners(rule, a), winners(rule, b)
                        if wa & wb:
                            assert winners(rule, joint) == wa & wb

    def test_anonymity_neutrality_by_construction(self):
        rng = random.Random(24)
        for _ in range(20):
            m = rng.randint(2, 4)
            k = rng.randint(1, m - 1)
            profile = Profile.from_ballots(
                m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, 4))]
            )
            labels = list(profile.labels())
            shuffled = labels[:]
            rng.shuffle(shuffled)
            relabelled = profile.relabel(dict(zip(labels, shuffled)))
            tau = list(range(m))
            rng.shuffle(tau)
            tau = tuple(tau)
            renamed = apply_candidate_permutation(profile, tau)
            for rule in library_rules(m, k):
                base = winners(rule, profile)
                assert winners(rule, relabelled) == base
                image = frozenset(tuple(sorted(tau[c] for c in w)) for w in base)
                assert winners(rule, renamed) == image


class TestProfileTerms:
    """A profile's kernel terms are counted once and kept on it, outside its value."""

    def test_kept_terms_equal_a_fresh_count(self):
        for m in (2, 3, 4):
            for n in (1, 2, 3):
                for profile in raw_profiles(m, n):
                    counts = Counter(ballot for _, ballot in profile.ballots)
                    expected = tuple((sum(1 << c for c in ballot), count) for ballot, count in counts.items())
                    terms = rules._profile_terms(profile)
                    assert terms == expected
                    assert rules._profile_terms(profile) is terms
                    winners(named_rule("pav", 1, m), profile)
                    assert profile._terms is terms

    def test_terms_stay_out_of_equality_hash_and_repr(self):
        scored = Profile.from_ballots(4, [fs(0, 1), fs(0), fs(0, 1), fs(2, 3)])
        twin = Profile.from_ballots(4, [fs(0, 1), fs(0), fs(0, 1), fs(2, 3)])
        winners(named_rule("pav", 2, 4), scored)
        assert scored._terms == ((0b11, 2), (0b1, 1), (0b1100, 1)) and twin._terms is None
        assert scored == twin and hash(scored) == hash(twin) and repr(scored) == repr(twin)
        assert "_terms" not in repr(scored)
        assert {scored: 1}[twin] == 1
        # a derived profile counts its own terms
        assert add_profiles(scored, twin, relabel=True)._terms is None


class TestVectorPath:
    def test_agrees_with_profile_path(self):
        rng = random.Random(25)
        for _ in range(40):
            m = rng.randint(2, 5)
            k = rng.randint(1, m - 1)
            profile = Profile.from_ballots(
                m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, 4))]
            )
            vector = profile_to_vector(profile)
            for rule in library_rules(m, k):
                assert winners_from_vector(rule, vector, k) == winners(rule, profile)

    def test_all_ones_vector_total_tie(self):
        vector = profile_to_vector(all_ballots_profile(3))
        rule = named_rule("av", 1, 3)
        assert winners_from_vector(rule, vector, 1) == fs((0,), (1,), (2,))

    def test_negative_multiplicity(self):
        vector = ProfileVector.from_dict(2, {ballot_mask(fs(0)): -1, ballot_mask(fs(1)): 1})
        assert winners_from_vector(named_rule("av", 1, 2), vector, 1) == fs((1,))

    def test_zero_vector_total_tie(self):
        vector = ProfileVector.from_dict(3, {})
        assert winners_from_vector(named_rule("pav", 2, 3), vector, 2) == fs((0, 1), (0, 2), (1, 2))


class TestContinuityBound:
    def test_av_example(self):
        a = Profile.from_ballots(2, [fs(0)] * 3)
        b = Profile.from_ballots(2, [fs(1)])
        rule = named_rule("av", 1, 2)
        lam = continuity_lambda_bound(rule, a, b)
        assert winners(rule, add_profiles(scale_profile(a, lam), b, relabel=True)) == fs((0,))

    def test_total_tie_gives_one(self):
        a = Profile.from_ballots(3, [fs(0, 1, 2)])
        b = Profile.from_ballots(3, [fs(0)])
        assert continuity_lambda_bound(named_rule("av", 2, 3), a, b) == 1

    def test_bound_is_sound_on_random_instances(self):
        rng = random.Random(26)
        for _ in range(25):
            m = rng.randint(2, 4)
            k = rng.randint(1, m - 1)
            a = Profile.from_ballots(m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, 3))])
            b = Profile.from_ballots(m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, 3))])
            for rule in library_rules(m, k):
                target = winners(rule, a)
                lam_star = continuity_lambda_bound(rule, a, b)
                for lam in range(lam_star, lam_star + 4):
                    combined = add_profiles(scale_profile(a, lam), b, relabel=True)
                    assert winners(rule, combined) <= target

    def test_scaled_pair_matches_direct_path(self):
        rng = random.Random(27)
        for _ in range(20):
            m = rng.randint(2, 4)
            k = rng.randint(1, m - 1)
            a = Profile.from_ballots(m, [rng.choice(all_ballots(m)) for _ in range(2)])
            b = Profile.from_ballots(m, [rng.choice(all_ballots(m))])
            lam = rng.randint(1, 5)
            for rule in library_rules(m, k):
                direct = winners(rule, add_profiles(scale_profile(a, lam), b, relabel=True))
                assert scaled_pair_winners(rule, a, b, lam) == direct


class TestRuleSpecSyntax:
    def test_thiele_spec_matches_pav(self):
        rule = parse_rule_spec("thiele:0,1,3/2", 2, 4)
        profile = Profile.from_ballots(4, [fs(0, 1), fs(0), fs(2, 3)])
        assert winners(rule, profile) == winners(named_rule("pav", 2, 4), profile)

    def test_bswav_spec(self):
        rule = parse_rule_spec("bswav:1,1/2,1/3,1/4", 2, 4)
        assert rule.scoring == named_rule("sav", 2, 4).scoring

    def test_named_spec(self):
        assert parse_rule_spec("av", 2, 4).scoring == named_rule("av", 2, 4).scoring

    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            parse_rule_spec("thiele:0,1", 2, 4)
        with pytest.raises(ValueError):
            parse_rule_spec("bswav:1,1/2", 2, 4)

    @pytest.mark.parametrize("spec, k", [("av", -1), ("msav", 0), ("thiele:0", 0)])
    def test_committee_size_below_one_rejected(self, spec, k):
        with pytest.raises(ValueError, match="at least 1"):
            parse_rule_spec(spec, k, 4)

    @pytest.mark.parametrize("name, k, m", [("msav", 0, 4), ("av", -1, 0)])
    def test_named_rule_rejects_committee_size_below_one(self, name, k, m):
        with pytest.raises(ValueError, match="at least 1"):
            named_rule(name, k, m)

    def test_rationals(self):
        assert parse_rational("3/2") == F(3, 2)
        assert parse_rational("-2") == F(-2)
        assert format_rational(F(3, 2)) == "3/2"
        assert format_rational(F(4, 2)) == "2"


class TestScoringTableRule:
    def test_table_reproducing_pav(self):
        k, m = 2, 4
        pav = named_rule("pav", k, m)
        values = tuple(tuple(pav.score(x, y) for y in range(1, m + 1)) for x in range(k + 1))
        table_rule = Rule("pav-as-table", k, AbcScoringTable(k, m, values))
        for n in range(1, 3):
            for profile in raw_profiles(m, n):
                assert winners(table_rule, profile) == winners(pav, profile)
