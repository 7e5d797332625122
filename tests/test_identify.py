import itertools
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote import identify
from abcvote.identify import (
    ConstraintSystem,
    FeasibilityResult,
    Observation,
    build_system,
    fit_bswav,
    fit_thiele,
    format_fit,
    format_observations,
    parse_observations,
    solve_feasibility,
    verify_certificate,
)
from abcvote.profiles import Profile, ProfileVector, all_ballots, profile_to_vector
from abcvote.rules import BswavWeights, Rule, ThieleScore, _vector_terms, named_rule, winners, winners_from_vector
from abcvote.search import enumerate_profiles

from conftest import oracle_fm_solve, oracle_full_observation_rows, oracle_tie_observation_rows

F = Fraction


def fs(*xs):
    return frozenset(xs)


@lru_cache(maxsize=None)
def canonical_grid(m, n_max):
    out = []
    for n in range(1, n_max + 1):
        out.extend(enumerate_profiles(m, n))
    return out


def observe(rule, profiles, k):
    return [Observation.from_profile(p, winners(rule, p), k) for p in profiles]


def seeded_observations():
    """150 observations at m = 3-7 of random profiles with PAV's choice sets: the
    even ones read off the profiles, the odd ones off their vectors scaled by 1-3."""
    rng = random.Random(15)
    observations = []
    for i in range(150):
        m = 3 + i % 5
        k = rng.randint(1, m - 1)
        ballot = lambda: frozenset(c for c in range(m) if rng.random() < 0.4) or frozenset([rng.randrange(m)])
        profile = Profile.from_ballots(m, [ballot() for _ in range(rng.randint(1, 8))])
        chosen = winners(named_rule("pav", k, m), profile)
        if i % 2:
            vector = profile_to_vector(profile).scale(rng.randint(1, 3))
            observations.append(Observation.from_vector(vector, chosen, k))
        else:
            observations.append(Observation.from_profile(profile, chosen, k))
    return observations


class TestBuildSystem:
    def test_full_tie_gives_no_strict_rows(self):
        profile = Profile.from_ballots(4, [fs(0, 1, 2, 3)])
        rule = named_rule("av", 2, 4)
        system = build_system(observe(rule, [profile], 2), "thiele")
        assert system.strict == []

    def test_empty_list_gives_side_constraints_only(self):
        system = build_system([], "thiele", k=3)
        assert system.unknowns == ("s_1", "s_2", "s_3")
        assert len(system.weak) == 3 and system.strict == []
        system = build_system([], "bswav", m=4)
        assert system.unknowns == ("alpha_1", "alpha_2", "alpha_3")
        assert len(system.weak) == 3

    def test_pav_example_rows(self):
        profile = Profile.from_ballots(4, [fs(0, 1), fs(0), fs(2, 3)])
        rule = named_rule("pav", 2, 4)
        obs = observe(rule, [profile], 2)
        assert obs[0].chosen == fs((0, 2), (0, 3))
        system = build_system(obs, "thiele")
        # designated winner {0,2} scores 3*s_1; loser {0,1} scores s_1 + s_2:
        # the strict row is 2*s_1 - s_2 >= 1
        assert (F(2), F(-1)) in system.strict

    def test_mixed_dimensions_rejected(self):
        a = Observation.from_profile(Profile.from_ballots(3, [fs(0)]), fs((0,)), 1)
        b = Observation.from_profile(Profile.from_ballots(4, [fs(0)]), fs((0,)), 1)
        with pytest.raises(ValueError):
            build_system([a, b], "thiele")

    def test_unknown_cap(self):
        profile = Profile.from_ballots(12, [fs(0)])
        obs = Observation.from_profile(profile, fs(tuple(range(9))), 9)
        with pytest.raises(ValueError):
            build_system([obs], "thiele")


class TestObservation:
    def test_terms_are_the_distinct_ballots_in_mask_order(self):
        profile = Profile.from_ballots(3, [fs(2), fs(0, 1), fs(2), fs(0)])
        obs = Observation.from_profile(profile, [(0,)], 1)
        assert obs == Observation(3, (1, ((0b001, 1), (0b011, 1), (0b100, 2))), fs((0,)), 1)
        assert obs == Observation.from_vector(profile_to_vector(profile), [(0,)], 1)
        half = Observation.from_vector(ProfileVector.from_dict(3, {0b001: F(1, 2), 0b111: F(-1, 3)}), [(0,)], 1)
        assert half.terms == (6, ((0b001, 3), (0b111, -2)))

    @pytest.mark.parametrize(
        "terms",
        [
            (0, ((1, 1),)),  # L below 1
            (1, ((0, 1),)),  # the empty ballot
            (1, ((0b1000, 1),)),  # candidate 3 of m = 3
            (1, ((2, 1), (1, 1))),  # masks out of order
            (1, ((1, 1), (1, 2))),  # a ballot twice
            (1, ((1, 0),)),  # a zero weight
        ],
    )
    def test_malformed_terms_rejected(self, terms):
        with pytest.raises(ValueError):
            Observation(3, terms, fs((0,)), 1)


entries = st.one_of(st.integers(-3, 5), st.builds(F, st.integers(-6, 6), st.integers(1, 6)))


@st.composite
def rational_observations(draw):
    """One to three observations sharing m = 2-5 and k, on profile vectors
    whose entries may be fractional or negative, each with an arbitrary
    non-empty choice set, often of several tied committees: (vector,
    observation) pairs, so oracles can read the vector each was built from."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, m - 1))
    committees = list(itertools.combinations(range(m), k))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        vector = ProfileVector.from_dict(m, draw(st.dictionaries(st.integers(1, 2**m - 1), entries, max_size=6)))
        chosen = draw(st.sets(st.sampled_from(committees), min_size=1))
        pairs.append((vector, Observation.from_vector(vector, chosen, k)))
    return pairs


def oracle_system(pairs, family, oracle_rows):
    """The side rows and each observation's oracle rows, in order and with every copy."""
    observations = [obs for _, obs in pairs]
    side = build_system([], family, k=observations[0].k, m=observations[0].m)
    weak, strict = side.weak, []
    for vector, obs in pairs:
        w, s = oracle_rows(vector, obs.chosen, obs.k, family)
        weak += w
        strict += s
    return ConstraintSystem(side.unknowns, weak, strict)


@settings(max_examples=200, deadline=None)
@given(rational_observations(), st.sampled_from(["thiele", "bswav"]))
def test_rows_match_fraction_oracle(pairs, family):
    system = build_system([obs for _, obs in pairs], family)
    oracle = oracle_system(pairs, family, oracle_tie_observation_rows)
    assert system.weak == list(dict.fromkeys(oracle.weak))
    assert system.strict == list(dict.fromkeys(oracle.strict))
    rows = system.weak + system.strict
    if all(value.denominator == 1 for vector, _ in pairs for _, value in vector.entries):
        assert all(type(c) is int for row in rows for c in row)


@settings(max_examples=150, deadline=None)
@given(rational_observations(), st.sampled_from(["thiele", "bswav"]))
def test_tie_rows_keep_the_full_feasible_set(pairs, family):
    """Dropping the weak rows that the ties and strict rows imply keeps the
    feasible set: the same verdict and midpoint as the full system, solved
    by the LP and by Fourier-Motzkin."""
    system = build_system([obs for _, obs in pairs], family)
    full = oracle_system(pairs, family, oracle_full_observation_rows)
    result, full_result = solve_feasibility(system), solve_feasibility(full)
    assert result.feasible == full_result.feasible
    assert result.point == full_result.point == oracle_fm_solve(full)
    if not result.feasible:
        assert verify_certificate(system, result.certificate)


class TestSolveFeasibility:
    def test_contradiction(self):
        system = ConstraintSystem(("x",), weak=[(F(-1),)], strict=[(F(1),)])
        result = solve_feasibility(system)
        assert not result.feasible
        assert verify_certificate(system, result.certificate)

    def test_two_variable_example(self):
        system = ConstraintSystem(("x", "y"), weak=[(F(0), F(1))], strict=[(F(1), F(-1))])
        result = solve_feasibility(system)
        assert result.feasible
        x, y = result.point
        assert x - y >= 1 and y >= 0
        # midpoint policy: x in [1, inf) -> 2; y in [0, x-1] -> midpoint 1/2
        assert (x, y) == (F(2), F(1, 2))

    def test_unconstrained_variable_defaults_to_zero(self):
        system = ConstraintSystem(("x", "y"), weak=[(F(1), F(0))], strict=[])
        result = solve_feasibility(system)
        assert result.point[1] == 0

    def test_random_pav_observations_feasible(self):
        rng = random.Random(41)
        profiles = []
        for _ in range(20):
            profiles.append(
                Profile.from_ballots(4, [rng.choice(all_ballots(4)) for _ in range(rng.randint(1, 4))])
            )
        system = build_system(observe(named_rule("pav", 2, 4), profiles, 2), "thiele")
        assert solve_feasibility(system).feasible

    def test_equality_pair_pins_value(self):
        system = ConstraintSystem(
            ("x", "y"),
            weak=[(F(2), F(-3)), (F(-2), F(3)), (F(1), F(0))],
            strict=[],
        )
        result = solve_feasibility(system)
        x, y = result.point
        assert 2 * x == 3 * y


increments = st.builds(F, st.integers(0, 6), st.integers(1, 4))


@st.composite
def small_systems(draw):
    """A fit system of either family at m = 3-5, k <= 3, from 1-5 observations
    of a hidden Thiele or ballot-size rule (either family, so some systems
    are infeasible); some choice sets are truncated to a proper subset of
    the tied winners, which often makes the system infeasible too."""
    family = draw(st.sampled_from(["thiele", "bswav"]))
    m = draw(st.integers(3, 5))
    k = draw(st.integers(1, min(3, m - 1)))
    if draw(st.booleans()):
        steps = draw(st.lists(increments, min_size=k, max_size=k))
        scoring = ThieleScore(k, tuple(sum(steps[:x], F(0)) for x in range(k + 1)))
    else:
        scoring = BswavWeights(m, tuple(draw(st.lists(increments, min_size=m, max_size=m))))
    rule = Rule("hidden", k, scoring)
    ballots = st.sets(st.integers(0, m - 1), min_size=1, max_size=m).map(frozenset)
    observations = []
    for _ in range(draw(st.integers(1, 5))):
        profile = Profile.from_ballots(m, draw(st.lists(ballots, min_size=1, max_size=6)))
        chosen = sorted(winners(rule, profile))
        if len(chosen) > 1 and draw(st.integers(0, 3)) == 0:
            chosen = draw(st.lists(st.sampled_from(chosen), min_size=1, max_size=len(chosen) - 1, unique=True))
        observations.append(Observation.from_profile(profile, frozenset(chosen), k))
    return build_system(observations, family)


@st.composite
def raw_systems(draw):
    """Up to ten random rows over one to three unknowns: unlike fit systems,
    these leave unknowns unbounded below or on both sides."""
    n = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-3, 3).map(F)] * n)
    weak = draw(st.lists(row, max_size=6))
    strict = draw(st.lists(row, max_size=4))
    return ConstraintSystem(tuple(f"x_{i}" for i in range(n)), weak, strict)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_systems(), raw_systems()))
def test_lp_point_matches_fourier_motzkin(system):
    point = oracle_fm_solve(system)
    result = solve_feasibility(system)
    assert result.feasible == (point is not None)
    if result.feasible:
        assert result.point == point
    else:
        assert verify_certificate(system, result.certificate)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_systems(), raw_systems()), st.data())
def test_repeated_rows_give_same_point_and_certificate(system, data):
    """Repeating rows, every copy after its row's first place, changes
    neither the point nor the certificate, whose indices move with the rows."""
    moved = {}

    def repeat(rows, offset, start):
        out = []
        for i, row in enumerate(rows):
            moved[offset + i] = start + len(out)
            out += [row] * data.draw(st.integers(1, 3))
        if rows:
            out += data.draw(st.lists(st.sampled_from(rows), max_size=4))
        return out

    weak = repeat(system.weak, 0, 0)
    strict = repeat(system.strict, len(system.weak), len(weak))
    once, repeated = solve_feasibility(system), solve_feasibility(ConstraintSystem(system.unknowns, weak, strict))
    assert (repeated.feasible, repeated.point) == (once.feasible, once.point)
    if not once.feasible:
        assert repeated.certificate == {moved[i]: y for i, y in once.certificate.items()}


class TestFitThiele:
    def test_pav_k2_from_spec_grid(self):
        # the n <= 2 canonical grid: the midpoint of the admissible interval
        # lands exactly on the harmonic value after normalization
        obs = observe(named_rule("pav", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs, 2)
        assert result.feasible
        assert result.rule.scoring.values == (F(0), F(1), F(3, 2))

    def test_pav_k2_from_pinning_grid(self):
        obs = observe(named_rule("pav", 2, 4), canonical_grid(4, 4), 2)
        result = fit_thiele(obs, 2)
        assert result.rule.scoring.values == (F(0), F(1), F(3, 2))

    def test_pav_k3_harmonic(self):
        obs = observe(named_rule("pav", 3, 4), canonical_grid(4, 4), 3)
        result = fit_thiele(obs, 3)
        assert result.feasible
        assert result.rule.scoring.values == (F(0), F(1), F(3, 2), F(11, 6))

    def test_av_k2(self):
        obs = observe(named_rule("av", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs, 2)
        assert result.rule.scoring.values == (F(0), F(1), F(2))

    def test_ccav_k2(self):
        obs = observe(named_rule("ccav", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs, 2)
        assert result.rule.scoring.values == (F(0), F(1), F(1))

    def test_triv_all_zero(self):
        obs = observe(named_rule("triv", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs, 2)
        assert result.rule.scoring.values == (F(0), F(0), F(0))

    def test_sav_data_is_thiele_infeasible(self):
        # the independence-of-losers counterexample pair is ballot-size
        # sensitive: no Thiele scoring vector explains both outcomes
        before = Profile.from_ballots(3, [fs(0, 1), fs(0, 1), fs(2)])
        after = Profile.from_ballots(3, [fs(0, 1), fs(1), fs(2)])
        sav = named_rule("sav", 1, 3)
        obs = observe(sav, [before, after], 1)
        assert obs[0].chosen == fs((0,), (1,), (2,))
        assert obs[1].chosen == fs((1,))
        result = fit_thiele(obs, 1)
        assert not result.feasible
        assert verify_certificate(result.system, result.certificate)


class TestFitBswav:
    def test_sav_recovered_exactly(self):
        obs = observe(named_rule("sav", 2, 4), canonical_grid(4, 4), 2)
        result = fit_bswav(obs, 4, 2)
        assert result.feasible
        assert result.rule.scoring.alpha == (F(1), F(1, 2), F(1, 3), F(1, 4))

    def test_av_recovered_with_pinned_tail(self):
        obs = observe(named_rule("av", 2, 4), canonical_grid(4, 2), 2)
        result = fit_bswav(obs, 4, 2)
        assert result.rule.scoring.alpha == (F(1), F(1), F(1), F(1, 4))

    def test_msav_recovered(self):
        obs = observe(named_rule("msav", 2, 4), canonical_grid(4, 4), 2)
        result = fit_bswav(obs, 4, 2)
        assert result.rule.scoring.alpha == (F(1), F(1, 2), F(1, 2), F(1, 4))

    def test_pav_convexity_output_is_bswav_infeasible(self):
        profile = Profile.from_ballots(4, [fs(0, 1), fs(2, 3)])
        pav = named_rule("pav", 2, 4)
        obs = observe(pav, [profile], 2)
        result = fit_bswav(obs, 4, 2)
        assert not result.feasible
        assert verify_certificate(result.system, result.certificate)


class TestFitSoundness:
    def test_fitted_rules_agree_on_held_out_profiles(self):
        rng = random.Random(42)
        held_out = [
            Profile.from_ballots(4, [rng.choice(all_ballots(4)) for _ in range(rng.randint(5, 7))])
            for _ in range(30)
        ]
        grid = canonical_grid(4, 4)
        for name in ("av", "pav", "ccav", "triv"):
            rule = named_rule(name, 2, 4)
            fitted = fit_thiele(observe(rule, grid, 2), 2).rule
            for profile in held_out:
                assert winners(fitted, profile) == winners(rule, profile), name
        for name in ("av", "sav", "msav"):
            rule = named_rule(name, 2, 4)
            fitted = fit_bswav(observe(rule, grid, 2), 4, 2).rule
            for profile in held_out:
                assert winners(fitted, profile) == winners(rule, profile), name

    def test_fit_reproduces_every_observation(self):
        grid = canonical_grid(4, 2)
        rule = named_rule("pav", 2, 4)
        obs = observe(rule, grid, 2)
        fitted = fit_thiele(obs, 2).rule
        for ob in obs:
            assert winners_from_vector(fitted, ob.vector, 2) == ob.chosen

    def test_shuffled_observations_give_identical_fit(self):
        rng = random.Random(43)
        obs = observe(named_rule("sav", 2, 4), canonical_grid(4, 3), 2)
        shuffled = obs[:]
        rng.shuffle(shuffled)
        a = fit_bswav(obs, 4, 2)
        b = fit_bswav(shuffled, 4, 2)
        assert a.rule.scoring.alpha == b.rule.scoring.alpha


class TestObservationsFormat:
    def test_round_trip(self):
        grid = canonical_grid(3, 2)
        obs = observe(named_rule("pav", 2, 3), grid, 2)
        text = format_observations(obs)
        again = parse_observations(text, 2)
        assert [(o.vector, o.chosen) for o in again] == [(o.vector, o.chosen) for o in obs]

    def test_parse_example(self):
        text = "m=3\n0 1\n0 1\n2\nchosen: {0,1}\n"
        obs = parse_observations(text, 2)
        assert len(obs) == 1
        assert obs[0].chosen == fs((0, 1))
        assert obs[0].vector == profile_to_vector(Profile.from_ballots(3, [fs(0, 1), fs(0, 1), fs(2)]))

    @pytest.mark.parametrize(
        "line, chosen",
        [
            ("chosen:{0,1}", fs((0, 1))),
            ("  chosen: {0,1},{0,2}  ", fs((0, 1), (0, 2))),
            ("chosen: {0,1},{0,1}", fs((0, 1))),
        ],
    )
    def test_chosen_grammar_accepts(self, line, chosen):
        assert parse_observations(f"m=3\n0 1\n2\n{line}\n", 2)[0].chosen == chosen

    def test_trailing_block_rejected(self):
        with pytest.raises(ValueError):
            parse_observations("m=3\n0 1\n", 2)

    def test_rendering_matches_the_fixture(self):
        # voters are listed in all_ballots order (by size, then lexicographically), not in
        # mask order; the fixture pins the bytes of 150 seeded observations at m = 3-7
        fixture = Path(__file__).parent / "golden" / "format_observations.txt"
        assert format_observations(seeded_observations()).encode() == fixture.read_bytes()

    def test_format_fit_rendering(self):
        obs = observe(named_rule("pav", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs, 2)
        assert format_fit(result, "thiele") == "s: 0,1,3/2"
        bad = fit_bswav(
            observe(named_rule("pav", 2, 4), [Profile.from_ballots(4, [fs(0, 1), fs(2, 3)])], 2),
            4,
            2,
        )
        assert format_fit(bad, "bswav") == "infeasible"


@st.composite
def repeated_profiles(draw, m):
    """A profile over m candidates drawn from a pool of at most six ballots, so most ballots repeat."""
    pool = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1).map(frozenset), min_size=1, max_size=6))
    return Profile.from_ballots(m, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20)))


@st.composite
def profile_observations(draw):
    """One to four observations sharing m = 2-8 and k, on profiles with repeated
    ballots, each with an arbitrary non-empty choice set."""
    m = draw(st.integers(2, 8))
    k = draw(st.integers(1, m - 1))
    committees = list(itertools.combinations(range(m), k))
    observations = []
    for _ in range(draw(st.integers(1, 4))):
        profile = draw(repeated_profiles(m))
        chosen = frozenset(draw(st.lists(st.sampled_from(committees), min_size=1, max_size=3)))
        observations.append(Observation.from_profile(profile, chosen, k))
    return observations


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda m: st.lists(repeated_profiles(m), min_size=1, max_size=4)))
def test_profile_terms_match_the_decoded_vector(profiles):
    """Terms read off a profile's distinct ballots are the terms of its vector,
    in increasing mask order, and give that vector back."""
    for profile in profiles:
        obs = Observation.from_profile(profile, fs((0,)), 1)
        vector = profile_to_vector(profile)
        assert obs.terms == _vector_terms(vector)
        assert obs.vector == vector


@settings(max_examples=150, deadline=None)
@given(profile_observations(), st.sampled_from(["thiele", "bswav"]))
def test_observations_round_trip_through_text(observations, family):
    again = parse_observations(format_observations(observations), observations[0].k)
    assert again == observations
    assert build_system(again, family) == build_system(observations, family)


@settings(max_examples=150, deadline=None)
@given(rational_observations(), st.sampled_from(["thiele", "bswav"]))
def test_rational_vector_fits_match_the_oracle(pairs, family):
    """A fit to rational vectors, each decoded to terms once, lands on the
    normalized Fourier-Motzkin point of the full rows and reproduces every
    observation, or is infeasible exactly when that is."""
    observations = [obs for _, obs in pairs]
    k, m = observations[0].k, observations[0].m
    result = fit_thiele(observations, k) if family == "thiele" else fit_bswav(observations, m, k)
    for vector, obs in pairs:
        scale, terms = _vector_terms(vector)
        assert obs.terms == (scale, tuple(sorted(terms)))
        assert obs.vector == vector
    point = oracle_fm_solve(oracle_system(pairs, family, oracle_full_observation_rows))
    assert result.feasible == (point is not None)
    if result.feasible:
        if point[0] > 0:
            point = tuple(v / point[0] for v in point)
        fitted = result.rule.scoring.values[1:] if family == "thiele" else result.rule.scoring.alpha[:-1]
        assert fitted == point
        assert all(winners_from_vector(result.rule, vector, k) == obs.chosen for vector, obs in pairs)


def test_fit_recheck_catches_a_wrong_point(monkeypatch):
    """The kernel re-check stands behind the solver: a feasible point that
    does not reproduce the observations makes the fit raise."""
    obs = observe(named_rule("pav", 2, 4), canonical_grid(4, 2), 2)
    monkeypatch.setattr(identify, "solve_feasibility", lambda system: FeasibilityResult(True, (F(1), F(2))))
    with pytest.raises(AssertionError, match="fails to reproduce"):
        fit_thiele(obs, 2)
