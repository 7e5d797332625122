import random
from fractions import Fraction
from math import comb

import pytest

from abcvote.profiles import (
    Profile,
    ProfileFormatError,
    ProfileVector,
    add_profiles,
    all_ballots,
    all_ballots_profile,
    apply_candidate_permutation,
    ballot_index,
    canonical_form,
    enumerate_committees,
    format_profile,
    index_ballot,
    num_ballots,
    parse_profile,
    profile_to_vector,
    scale_profile,
    vector_to_profile,
)


def fs(*xs):
    return frozenset(xs)


def random_profile(rng, m, max_n=4):
    n = rng.randint(1, max_n)
    pool = all_ballots(m)
    return Profile.from_ballots(m, [rng.choice(pool) for _ in range(n)])


class TestEnumerateCommittees:
    def test_m3_k2(self):
        assert enumerate_committees(3, 2) == [(0, 1), (0, 2), (1, 2)]

    def test_singletons(self):
        assert enumerate_committees(4, 1) == [(0,), (1,), (2,), (3,)]

    def test_count_5_2(self):
        assert len(enumerate_committees(5, 2)) == comb(5, 2)

    def test_counts_exhaustive(self):
        for m in range(2, 13):
            for k in range(1, m):
                committees = enumerate_committees(m, k)
                assert len(set(committees)) == len(committees) == comb(m, k)
                assert committees == sorted(committees)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            enumerate_committees(3, 0)
        with pytest.raises(ValueError):
            enumerate_committees(3, 3)
        with pytest.raises(ValueError):
            enumerate_committees(1, 1)


class TestBallotBijection:
    def test_size_then_lex_m2(self):
        assert ballot_index(fs(0), 2) == 0
        assert ballot_index(fs(1), 2) == 1
        assert ballot_index(fs(0, 1), 2) == 2

    def test_m3_order(self):
        order = [fs(0), fs(1), fs(2), fs(0, 1), fs(0, 2), fs(1, 2), fs(0, 1, 2)]
        assert [ballot_index(b, 3) for b in order] == list(range(7))
        assert ballot_index(fs(0, 2), 3) == 4

    def test_round_trip_m3(self):
        for i in range(7):
            assert ballot_index(index_ballot(i, 3), 3) == i

    def test_round_trip_exhaustive(self):
        for m in range(2, 11):
            seen = set()
            for i in range(num_ballots(m)):
                ballot = index_ballot(i, m)
                assert ballot_index(ballot, m) == i
                seen.add(ballot)
            assert len(seen) == num_ballots(m)

    def test_empty_ballot_rejected(self):
        with pytest.raises(ValueError):
            ballot_index(frozenset(), 3)

    @pytest.mark.parametrize("m", [2, 3, 7, 64])
    def test_index_range_ends_at_the_full_ballot(self, m):
        # the range check uses bit lengths, not 2**m - 1 itself
        assert index_ballot(2**m - 2, m) == frozenset(range(m))
        assert ProfileVector(m, ((0, Fraction(1)), (2**m - 2, Fraction(1)))).entries[-1][0] == 2**m - 2
        for index in (-1, 2**m - 1, 2**m):
            with pytest.raises(ValueError, match="out of range"):
                index_ballot(index, m)
            with pytest.raises(ValueError, match="out of range"):
                ProfileVector(m, ((index, Fraction(1)),))


class TestProfileVector:
    def test_direct_count(self):
        profile = Profile.from_ballots(2, [fs(0), fs(0), fs(0, 1)])
        assert profile_to_vector(profile).as_dict() == {0: 2, 2: 1}

    def test_full_ballot_last_index(self):
        profile = Profile.from_ballots(3, [fs(0, 1, 2)])
        assert profile_to_vector(profile).as_dict() == {6: 1}

    def test_all_ballots_once(self):
        vector = profile_to_vector(all_ballots_profile(3))
        assert vector.as_dict() == {i: 1 for i in range(7)}

    def test_sum_is_voter_count(self):
        rng = random.Random(7)
        for _ in range(25):
            profile = random_profile(rng, rng.randint(2, 5))
            assert profile_to_vector(profile).total() == profile.n_voters

    def test_round_trip_through_profile(self):
        rng = random.Random(8)
        for _ in range(25):
            profile = random_profile(rng, rng.randint(2, 5))
            vector = profile_to_vector(profile)
            assert profile_to_vector(vector_to_profile(vector)) == vector

    def test_rational_entries_allowed(self):
        vector = ProfileVector.from_dict(2, {0: Fraction(-1, 3), 2: 5})
        assert vector.dense() == (Fraction(-1, 3), Fraction(0), Fraction(5))


class TestProfileAlgebra:
    def test_disjoint_sum(self):
        a = Profile(2, ((0, fs(0)),))
        b = Profile(2, ((1, fs(1)),))
        total = add_profiles(a, b)
        assert total.n_voters == 2
        assert profile_to_vector(total).as_dict() == {0: 1, 1: 1}

    def test_doubling_with_relabel(self):
        a = Profile.from_ballots(3, [fs(0, 1), fs(2)])
        doubled = add_profiles(a, a, relabel=True)
        assert profile_to_vector(doubled) == profile_to_vector(a).scale(2)

    def test_overlap_without_flag_is_error(self):
        a = Profile.from_ballots(2, [fs(0)])
        with pytest.raises(ValueError):
            add_profiles(a, a)

    def test_vector_additivity(self):
        rng = random.Random(9)
        for _ in range(30):
            m = rng.randint(2, 5)
            a, b = random_profile(rng, m), random_profile(rng, m)
            total = add_profiles(a, b, relabel=True)
            assert profile_to_vector(total) == profile_to_vector(a) + profile_to_vector(b)

    def test_scale_three_copies(self):
        scaled = scale_profile(Profile.from_ballots(2, [fs(0, 1)]), 3)
        assert scaled.ballot_list() == [fs(0, 1)] * 3
        assert scaled.labels() == (0, 1, 2)

    def test_scale_identity(self):
        a = Profile.from_ballots(3, [fs(0), fs(1, 2)])
        assert profile_to_vector(scale_profile(a, 1)) == profile_to_vector(a)

    def test_scale_property(self):
        rng = random.Random(10)
        for _ in range(20):
            a = random_profile(rng, rng.randint(2, 4))
            assert profile_to_vector(scale_profile(a, 5)) == profile_to_vector(a).scale(5)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_profile(Profile.from_ballots(2, [fs(0)]), 0)


class TestCandidatePermutation:
    def test_swap(self):
        profile = Profile.from_ballots(2, [fs(0), fs(0, 1)])
        swapped = apply_candidate_permutation(profile, (1, 0))
        assert swapped.ballot_list() == [fs(1), fs(0, 1)]
        assert swapped.labels() == profile.labels()

    def test_identity(self):
        profile = Profile.from_ballots(3, [fs(0, 2)])
        assert apply_candidate_permutation(profile, (0, 1, 2)) == profile

    def test_involution(self):
        profile = Profile.from_ballots(4, [fs(0, 3), fs(1)])
        tau = (3, 2, 1, 0)
        assert apply_candidate_permutation(apply_candidate_permutation(profile, tau), tau) == profile

    def test_non_bijective_rejected(self):
        with pytest.raises(ValueError):
            apply_candidate_permutation(Profile.from_ballots(2, [fs(0)]), (0, 0))


class TestCanonicalForm:
    def test_singletons_share_form(self):
        a = Profile.from_ballots(2, [fs(1)])
        b = Profile.from_ballots(2, [fs(0)])
        assert canonical_form(a) == canonical_form(b)

    def test_swap_equivalent(self):
        a = Profile.from_ballots(2, [fs(0), fs(0, 1)])
        b = Profile.from_ballots(2, [fs(1), fs(0, 1)])
        assert canonical_form(a) == canonical_form(b)

    def test_symmetric_profile_is_its_own_form(self):
        profile = Profile.from_ballots(2, [fs(0), fs(1)])
        assert canonical_form(profile) == profile_to_vector(profile)

    def test_invariance_under_relabel_and_rename(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rng.randint(2, 5)
            profile = random_profile(rng, m)
            tau = list(range(m))
            rng.shuffle(tau)
            renamed = apply_candidate_permutation(profile, tuple(tau))
            shuffled_labels = list(renamed.labels())
            rng.shuffle(shuffled_labels)
            mapping = dict(zip(renamed.labels(), shuffled_labels))
            assert canonical_form(renamed.relabel(mapping)) == canonical_form(profile)


class TestTextFormat:
    def test_parse_basic(self):
        text = "# an election\nm=4\n0 1\n0 1\n2\n"
        profile = parse_profile(text)
        assert profile.m == 4
        assert profile.ballot_list() == [fs(0, 1), fs(0, 1), fs(2)]
        assert profile.labels() == (0, 1, 2)

    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(25):
            profile = random_profile(rng, rng.randint(2, 5))
            again = parse_profile(format_profile(profile))
            assert profile_to_vector(again) == profile_to_vector(profile)

    def test_not_increasing_rejected(self):
        with pytest.raises(ProfileFormatError) as err:
            parse_profile("m=2\n1 0\n")
        assert err.value.line_no == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("m=2\n0 2\n")

    def test_malformed_line_after_repeats_names_its_own_line(self):
        # each distinct line is checked once; a bad one is reported where it first occurs
        with pytest.raises(ProfileFormatError) as err:
            parse_profile("m=3\n" + "0 1\n" * 200 + "0 3\n" + "0 3\n")
        assert (err.value.line_no, err.value.message) == (202, "ballot indices must lie in 0..2")

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("m=12\n0 1_0\n", 2),
            ("m=3\n+1\n", 2),
            ("m=3\n0 -1\n", 2),
            ("m=3\n\u0661\n", 2),
            ("m=3\n0\u00a01\n", 2),
            ("# c\nm=1_0\n0\n", 2),
            ("m=+3\n0\n", 1),
            ("m=\u0663\n0\n", 1),
        ],
    )
    def test_only_ascii_digits_accepted(self, text, line_no):
        with pytest.raises(ProfileFormatError) as err:
            parse_profile(text)
        assert err.value.line_no == line_no

    def test_missing_header_rejected(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("0 1\n")

    def test_comments_and_blanks_ignored(self):
        profile = parse_profile("\n# x\nm=2\n\n# y\n0\n\n")
        assert profile.ballot_list() == [fs(0)]
