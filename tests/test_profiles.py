import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote import profiles as profiles_module
from abcvote.profiles import (
    Profile,
    ProfileFormatError,
    ProfileVector,
    add_profiles,
    all_ballots,
    all_ballots_profile,
    apply_candidate_permutation,
    ballot_mask,
    canonical_form,
    enumerate_committees,
    format_profile,
    mask_ballot,
    parse_profile,
    profile_to_vector,
    scale_profile,
)

from conftest import all_subsets_nonempty, oracle_ballot, oracle_ballots, oracle_canonical_form, oracle_mask


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


class TestBallotMasks:
    def test_all_ballots_by_size_then_lex(self):
        assert all_ballots(3) == [fs(0), fs(1), fs(2), fs(0, 1), fs(0, 2), fs(1, 2), fs(0, 1, 2)]
        for m in range(2, 9):
            assert all_ballots(m) == all_subsets_nonempty(m)

    def test_masks_m3(self):
        assert [ballot_mask(b) for b in all_ballots(3)] == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]

    def test_round_trip_exhaustive(self):
        for m in range(2, 9):
            ballots = all_subsets_nonempty(m)
            masks = [ballot_mask(b) for b in ballots]
            assert sorted(masks) == list(range(1, 2**m))
            assert [mask_ballot(mask) for mask in masks] == ballots

    @pytest.mark.parametrize("m", [2, 3, 7, 64])
    def test_mask_range_ends_at_the_full_ballot(self, m):
        # the range check uses bit lengths, not 2**m itself
        full = 2**m - 1
        assert ProfileVector(m, ((1, Fraction(1)), (full, Fraction(1)))).entries[-1][0] == full
        for mask in (-1, 0, 2**m, 2**m + 1):
            with pytest.raises(ValueError, match="out of range"):
                ProfileVector(m, ((mask, Fraction(1)),))

    def test_entries_sorted_by_mask(self):
        with pytest.raises(ValueError, match="sorted by ballot mask"):
            ProfileVector(3, ((0b100, Fraction(1)), (0b011, Fraction(1))))


@st.composite
def profiles(draw):
    """Profiles of up to 8 voters over 2-6 candidates, voters drawn from a few distinct ballots."""
    m = draw(st.integers(2, 6))
    pool = draw(st.lists(st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=4))
    return Profile.from_ballots(m, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))


class TestProfile:
    """A profile is one ballot mask per voter; the frozenset views are decoded from it."""

    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_text_round_trip(self, profile):
        again = parse_profile(format_profile(profile))
        assert again == profile and again.terms == profile.terms

    @settings(max_examples=150, deadline=None)
    @given(profiles(), st.data())
    def test_terms_count_the_decoded_ballots_in_order_of_first_occurrence(self, profile, data):
        # the parsed profile's terms come from its line counts; spacing that differs
        # between copies of one ballot must not split its term
        lines = [" ".join(map(str, sorted(ballot))) for ballot in oracle_ballots(profile)]
        spaced = [data.draw(st.sampled_from([line, f" {line}", line.replace(" ", "  ")])) for line in lines]
        for built in (profile, parse_profile("m=%d\n%s\n" % (profile.m, "\n".join(spaced)))):
            decoded = [(oracle_ballot(mask, built.m), count) for mask, count in built.terms]
            voters = oracle_ballots(built)
            assert decoded == list(Counter(voters).items())
            assert built.ballot_list() == voters

    @pytest.mark.parametrize(
        "m, masks, message",
        [
            (3, (0b001, 0), "ballot mask 0 out of range for m=3"),
            (3, (0b1000,), "ballot mask 8 out of range for m=3"),
            (3, (0b111, 2**70), f"ballot mask {2**70} out of range for m=3"),
            (3, (), "profile must contain at least one ballot"),
            (1, (0b1,), "need at least 2 candidates"),
        ],
    )
    def test_constructor_rejects(self, m, masks, message):
        with pytest.raises(ValueError) as err:
            Profile(m, masks)
        assert str(err.value) == message

    def test_full_ballot_is_the_widest_mask(self):
        assert Profile(3, (0b111, 0b001)).ballot_list() == [fs(0, 1, 2), fs(0)]

    @settings(max_examples=100, deadline=None)
    @given(profiles(), st.data())
    def test_voter_permutation_moves_each_ballot(self, profile, data):
        image = data.draw(st.permutations(range(profile.n_voters)))
        mapping = dict(enumerate(image))
        permuted = profile.permute_voters(mapping)
        expected = [None] * profile.n_voters
        for voter, ballot in enumerate(oracle_ballots(profile)):
            expected[mapping[voter]] = ballot
        assert oracle_ballots(permuted) == expected
        assert Counter(permuted.terms) == Counter(profile.terms)

    def test_voter_permutation_must_be_one(self):
        profile = Profile.from_ballots(3, [fs(0), fs(1)])
        for mapping in ({0: 1, 1: 1}, {0: 0}, {0: 1, 1: 2}):
            with pytest.raises(ValueError, match="not a permutation of the voters"):
                profile.permute_voters(mapping)

    @settings(max_examples=100, deadline=None)
    @given(profiles(), st.data())
    def test_disjoint_sum_concatenates_the_voters(self, a, data):
        b = data.draw(profiles().filter(lambda p: p.m == a.m))
        total = add_profiles(a, b)
        assert oracle_ballots(total) == oracle_ballots(a) + oracle_ballots(b)
        assert Counter(dict(total.terms)) == Counter(dict(a.terms)) + Counter(dict(b.terms))

    def test_from_ballots_codes_each_voter(self):
        profile = Profile.from_ballots(4, [fs(0, 3), fs(2), fs(0, 3)])
        assert profile.masks == tuple(map(oracle_mask, [fs(0, 3), fs(2), fs(0, 3)]))


class TestProfileVector:
    def test_direct_count(self):
        profile = Profile.from_ballots(2, [fs(0), fs(0), fs(0, 1)])
        assert profile_to_vector(profile).entries == ((0b01, 2), (0b11, 1))

    def test_full_ballot_mask(self):
        profile = Profile.from_ballots(3, [fs(0, 1, 2)])
        assert profile_to_vector(profile).entries == ((0b111, 1),)

    def test_all_ballots_once(self):
        vector = profile_to_vector(all_ballots_profile(3))
        assert vector.entries == tuple((mask, 1) for mask in range(1, 8))

    def test_entries_count_the_masks(self):
        rng = random.Random(7)
        for _ in range(25):
            profile = random_profile(rng, rng.randint(2, 5))
            assert dict(profile_to_vector(profile).entries) == Counter(profile.masks)

    def test_rational_entries_allowed(self):
        vector = ProfileVector.from_dict(2, {0b01: Fraction(-1, 3), 0b10: 0, 0b11: 5})
        assert vector.entries == ((0b01, Fraction(-1, 3)), (0b11, Fraction(5)))


class TestProfileAlgebra:
    def test_disjoint_sum(self):
        a = Profile(2, (0b01,))
        b = Profile(2, (0b10,))
        total = add_profiles(a, b)
        assert total.n_voters == 2
        assert Counter(total.masks) == {0b01: 1, 0b10: 1}

    def test_doubling(self):
        a = Profile.from_ballots(3, [fs(0, 1), fs(2)])
        doubled = add_profiles(a, a)
        assert Counter(doubled.masks) == {mask: 2 * count for mask, count in Counter(a.masks).items()}

    def test_different_candidate_counts_are_an_error(self):
        with pytest.raises(ValueError):
            add_profiles(Profile.from_ballots(2, [fs(0)]), Profile.from_ballots(3, [fs(0)]))

    def test_sum_adds_the_counts(self):
        rng = random.Random(9)
        for _ in range(30):
            m = rng.randint(2, 5)
            a, b = random_profile(rng, m), random_profile(rng, m)
            total = add_profiles(a, b)
            assert Counter(total.masks) == Counter(a.masks) + Counter(b.masks)

    def test_scale_three_copies(self):
        scaled = scale_profile(Profile.from_ballots(2, [fs(0, 1)]), 3)
        assert scaled.ballot_list() == [fs(0, 1)] * 3
        assert scaled.n_voters == 3

    def test_scale_identity(self):
        a = Profile.from_ballots(3, [fs(0), fs(1, 2)])
        assert scale_profile(a, 1) == a

    def test_scale_multiplies_the_counts(self):
        rng = random.Random(10)
        for _ in range(20):
            a = random_profile(rng, rng.randint(2, 4))
            scaled = scale_profile(a, 5)
            assert Counter(scaled.masks) == {mask: 5 * count for mask, count in Counter(a.masks).items()}
            assert dict(scaled.terms) == Counter(scaled.masks)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_profile(Profile.from_ballots(2, [fs(0)]), 0)


class TestCandidatePermutation:
    def test_swap(self):
        profile = Profile.from_ballots(2, [fs(0), fs(0, 1)])
        swapped = apply_candidate_permutation(profile, (1, 0))
        assert swapped.ballot_list() == [fs(1), fs(0, 1)]

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
        assert canonical_form(profile) == profile

    def test_voters_in_all_ballots_order(self):
        # {2} comes before {0, 1} by size, though its mask is larger
        profile = Profile.from_ballots(3, [fs(0, 2), fs(1)])
        form = canonical_form(profile)
        assert form.masks == (0b100, 0b011)
        assert form == oracle_canonical_form(profile)

    def test_invariance_under_voter_permutation_and_rename(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rng.randint(2, 5)
            profile = random_profile(rng, m)
            tau = list(range(m))
            rng.shuffle(tau)
            renamed = apply_candidate_permutation(profile, tuple(tau))
            image = list(range(renamed.n_voters))
            rng.shuffle(image)
            mapping = dict(enumerate(image))
            assert canonical_form(renamed.permute_voters(mapping)) == canonical_form(profile)


class TestTextFormat:
    def test_parse_basic(self):
        text = "# an election\nm=4\n0 1\n0 1\n2\n"
        profile = parse_profile(text)
        assert profile.m == 4
        assert profile.ballot_list() == [fs(0, 1), fs(0, 1), fs(2)]
        assert profile.masks == (0b11, 0b11, 0b100)

    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(25):
            profile = random_profile(rng, rng.randint(2, 5))
            assert parse_profile(format_profile(profile)) == profile

    def test_not_increasing_rejected(self):
        with pytest.raises(ProfileFormatError) as err:
            parse_profile("m=2\n1 0\n")
        assert err.value.line_no == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("m=2\n0 2\n")

    def test_first_bad_line_in_file_order_is_reported(self):
        # two distinct bad lines after 200 copies of a good one, each repeated: the
        # earlier one is reported at its first occurrence
        text = "m=3\n" + "0 1\n" * 200 + "2 1\n" + "0 5\n" + "2 1\n" + "0 5\n"
        with pytest.raises(ProfileFormatError) as err:
            parse_profile(text)
        assert (err.value.line_no, err.value.message) == (202, "ballot indices must be strictly increasing")
        with pytest.raises(ProfileFormatError) as err:
            parse_profile(text.replace("2 1\n", "0 1\n"))
        assert (err.value.line_no, err.value.message) == (203, "ballot indices must lie in 0..2")

    def test_bad_header_beats_any_body_error(self):
        for header in ("m=1", "m=x", "0 1"):
            with pytest.raises(ProfileFormatError) as err:
                parse_profile(f"# c\n{header}\n0 0\n+1\n")
            assert err.value.line_no == 2

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

    @pytest.mark.parametrize(
        "text, k, error, message",
        [
            ("m=3x\n0 1\n0 5\n", 1, ProfileFormatError, "line 1: invalid candidate count '3x'"),
            ("m=3\n0 1\n0 5\n", 3, ValueError, "committee size k=3 must satisfy 1 <= k <= m-1=2"),
            ("m=3\n0 1\n0 5\n", 0, ValueError, "committee size k=0 must satisfy 1 <= k <= m-1=2"),
            ("m=24\n0 1\n0 50\n", 12, ValueError, "C(24,12) committees exceed the enumeration limit 200000"),
            ("m=200000\n0 1\n0 200000\n", 1, ValueError,
             "C(200000,1) committees with their 200000-bit masks exceed the memory limit 34000000 B"),
            ("m=3\n0 5\n0 1\n", 1, ProfileFormatError, "line 2: ballot indices must lie in 0..2"),
        ],
        ids=["header", "k-over-m", "k-zero", "count-limit", "byte-limit", "ballot"],
    )
    def test_k_is_refused_on_the_header_before_any_mask(self, monkeypatch, text, k, error, message):
        # each text is also wrong in every later respect: the header is refused first,
        # then k, then the committee limit, then the first bad ballot line, and the
        # good ballot line before a bad one becomes no mask until the limit passes
        def no_mask(members):
            raise AssertionError("a ballot mask was built")

        monkeypatch.setattr(profiles_module, "ballot_mask", no_mask)
        with pytest.raises(ValueError) as err:
            parse_profile(text, k=k)
        assert (type(err.value), str(err.value)) == (error, message)

    def test_k_within_the_limit_parses_as_without(self, monkeypatch):
        # each distinct ballot line is coded once per profile
        calls = []
        indices = profiles_module._indices
        monkeypatch.setattr(profiles_module, "_indices", lambda line, m: calls.append(line) or indices(line, m))
        text = "m=4\n0 1\n2\n0 1\n"
        profile = parse_profile(text)
        assert parse_profile(text, k=3) == parse_profile(text, k=1) == profile
        assert (profile.masks, profile.terms) == ((0b11, 0b100, 0b11), ((0b11, 2), (0b100, 1)))
        assert calls == ["0 1", "2"] * 3

    def test_missing_header_rejected(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("0 1\n")

    def test_comments_and_blanks_ignored(self):
        profile = parse_profile("\n# x\nm=2\n\n# y\n0\n\n")
        assert profile.ballot_list() == [fs(0)]
