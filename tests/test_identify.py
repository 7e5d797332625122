import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcvote import identify
from abcvote import profiles as profiles_module
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
from abcvote.profiles import Profile, ProfileFormatError, all_ballots, parse_profile, scale_profile
from abcvote.rules import BswavWeights, Rule, ThieleScore, named_rule, winners
from abcvote.search import enumerate_profiles

from conftest import observation_texts, oracle_fm_solve, oracle_full_observation_rows, oracle_tie_observation_rows

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
FIT_CORPUS = json.loads((GOLDEN / "fit_corpus.json").read_text(encoding="utf-8"))
# certificates of the fit corpus's infeasible fits and of small contradictions, as row index -> "p/q",
# captured from the solver that ran the Farkas LP first on every system
CERTIFICATES = json.loads((GOLDEN / "fit_certificates.json").read_text(encoding="utf-8"))


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
    even ones read off the profiles, the odd ones off 1-3 copies of them."""
    rng = random.Random(15)
    observations = []
    for i in range(150):
        m = 3 + i % 5
        k = rng.randint(1, m - 1)
        ballot = lambda: frozenset(c for c in range(m) if rng.random() < 0.4) or frozenset([rng.randrange(m)])
        profile = Profile.from_ballots(m, [ballot() for _ in range(rng.randint(1, 8))])
        chosen = winners(named_rule("pav", k, m), profile)
        if i % 2:
            profile = scale_profile(profile, rng.randint(1, 3))
        observations.append(Observation.from_profile(profile, chosen, k))
    return observations


class TestBuildSystem:
    def test_full_tie_gives_no_strict_rows(self):
        profile = Profile.from_ballots(4, [fs(0, 1, 2, 3)])
        rule = named_rule("av", 2, 4)
        system = build_system(observe(rule, [profile], 2), "thiele")
        assert system.strict == []

    def test_empty_list_is_refused(self):
        # k and m are read off the observations, so there must be one
        for family in ("thiele", "bswav"):
            with pytest.raises(ValueError, match="at least one observation"):
                build_system([], family)
        with pytest.raises(ValueError, match="at least one observation"):
            fit_thiele([])

    def test_pav_example_rows(self):
        profile = Profile.from_ballots(4, [fs(0, 1), fs(0), fs(2, 3)])
        rule = named_rule("pav", 2, 4)
        obs = observe(rule, [profile], 2)
        assert obs[0].chosen == fs((0, 2), (0, 3))
        system = build_system(obs, "thiele")
        # designated winner {0,2} scores 3*s_1; loser {0,1} scores s_1 + s_2:
        # the strict row is 2*s_1 - s_2 >= 1
        assert (2, -1) in system.strict

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
        assert obs == Observation(3, ((0b001, 1), (0b011, 1), (0b100, 2)), fs((0,)), 1)

    @pytest.mark.parametrize(
        "terms",
        [
            ((0, 1),),  # the empty ballot
            ((0b1000, 1),),  # candidate 3 of m = 3
            ((2, 1), (1, 1)),  # masks out of order
            ((1, 1), (1, 2)),  # a ballot twice
            ((1, 0),),  # a zero count
            ((1, -1),),  # a negative count
            ((1, F(1, 2)),),  # a fractional count
            ((1, F(1)),),  # a count that is not an int
        ],
    )
    def test_malformed_terms_rejected(self, terms):
        with pytest.raises(ValueError):
            Observation(3, terms, fs((0,)), 1)

    @pytest.mark.parametrize(
        "chosen, k, message",
        [
            (fs((0, 1)), 3, "committee size k=3 must satisfy 1 <= k <= m-1=2"),
            (fs(), 2, "observed choice set must be non-empty"),
            (fs((0,)), 2, "observed committees must all have size k"),
            (fs((1, 0)), 2, "observed committees must be strictly increasing index lists"),
            (fs((1, 1)), 2, "observed committees must be strictly increasing index lists"),
            (fs((-1, 2)), 2, "committee members out of range"),
            (fs((0, 3)), 2, "committee members out of range"),
            (fs((0, 1, 2)), 2, "observed committees must all have size k"),
        ],
    )
    def test_malformed_choice_rejected(self, chosen, k, message):
        with pytest.raises(ValueError) as err:
            Observation(3, ((0b011, 1),), chosen, k)
        assert str(err.value) == message


@st.composite
def repeated_profiles(draw, m):
    """A profile over m candidates drawn from a pool of at most six ballots, so most ballots repeat."""
    pool = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1).map(frozenset), min_size=1, max_size=6))
    return Profile.from_ballots(m, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20)))


@st.composite
def observed_profiles(draw, max_m=5):
    """One to three observations sharing m = 2..max_m and k, on profiles with
    repeated ballots, each with an arbitrary non-empty choice set, often of
    several tied committees: (profile, observation) pairs, so oracles can read
    the ballots each was built from."""
    m = draw(st.integers(2, max_m))
    k = draw(st.integers(1, m - 1))
    committees = list(itertools.combinations(range(m), k))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        profile = draw(repeated_profiles(m))
        chosen = draw(st.sets(st.sampled_from(committees), min_size=1))
        pairs.append((profile, Observation.from_profile(profile, chosen, k)))
    return pairs


def oracle_system(pairs, family, oracle_rows):
    """The side rows and each observation's oracle rows, in order and with every copy."""
    m, k = pairs[0][1].m, pairs[0][1].k
    if family == "thiele":  # s_1 >= s_0 = 0, then s_{x+1} >= s_x
        unknowns = tuple(f"s_{x}" for x in range(1, k + 1))
        weak = [tuple(1 if i == x else -1 if i == x - 1 else 0 for i in range(k)) for x in range(k)]
    else:  # alpha_y >= 0
        unknowns = tuple(f"alpha_{y}" for y in range(1, m))
        weak = [tuple(int(i == y) for i in range(m - 1)) for y in range(m - 1)]
    strict = []
    for profile, obs in pairs:
        w, s = oracle_rows(profile, obs.chosen, obs.k, family)
        weak += w
        strict += s
    return ConstraintSystem(unknowns, weak, strict)


@settings(max_examples=200, deadline=None)
@given(observed_profiles(), st.sampled_from(["thiele", "bswav"]))
def test_rows_match_the_oracle(pairs, family):
    system = build_system([obs for _, obs in pairs], family)
    oracle = oracle_system(pairs, family, oracle_tie_observation_rows)
    assert system.weak == list(dict.fromkeys(oracle.weak))
    assert system.strict == list(dict.fromkeys(oracle.strict))
    assert all(type(c) is int for row in system.weak + system.strict for c in row)


@settings(max_examples=150, deadline=None)
@given(observed_profiles(), st.sampled_from(["thiele", "bswav"]))
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
        system = ConstraintSystem(("x",), weak=[(-1,)], strict=[(1,)])
        result = solve_feasibility(system)
        assert not result.feasible
        assert verify_certificate(system, result.certificate)

    def test_two_variable_example(self):
        system = ConstraintSystem(("x", "y"), weak=[(0, 1)], strict=[(1, -1)])
        result = solve_feasibility(system)
        assert result.feasible
        x, y = result.point
        assert x - y >= 1 and y >= 0
        # midpoint policy: x in [1, inf) -> 2; y in [0, x-1] -> midpoint 1/2
        assert (x, y) == (F(2), F(1, 2))

    def test_unconstrained_variable_defaults_to_zero(self):
        system = ConstraintSystem(("x", "y"), weak=[(1, 0)], strict=[])
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
            weak=[(2, -3), (-2, 3), (1, 0)],
            strict=[],
        )
        result = solve_feasibility(system)
        x, y = result.point
        assert 2 * x == 3 * y

    @pytest.mark.parametrize("entry", [F(1), F(1, 2), 1.0, True])
    def test_entry_that_is_not_an_int_rejected(self, entry):
        system = ConstraintSystem(("x", "y"), weak=[(1, 0)], strict=[(1, entry)])
        with pytest.raises(ValueError, match="row 1 has an entry that is not an int"):
            solve_feasibility(system)


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
        scoring = ThieleScore(tuple(sum(steps[:x], F(0)) for x in range(k + 1)))
    else:
        scoring = BswavWeights(tuple(draw(st.lists(increments, min_size=m, max_size=m))))
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
    """Up to ten random rows over one to four unknowns: unlike fit systems,
    these leave unknowns unbounded below or on both sides."""
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-3, 3)] * n)
    weak = draw(st.lists(row, max_size=6))
    strict = draw(st.lists(row, max_size=4))
    return ConstraintSystem(tuple(f"x_{i}" for i in range(n)), weak, strict)


PINNED = {case["name"]: case for case in CERTIFICATES["systems"]}


def pinned_system(name: str) -> ConstraintSystem:
    case = PINNED[name]
    return ConstraintSystem(tuple(case["unknowns"]), list(map(tuple, case["weak"])), list(map(tuple, case["strict"])))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_systems(), raw_systems()))
# one unknown, so no LP at all: read off its two rows, feasible and not
@example(ConstraintSystem(("x",), weak=[(1,)], strict=[(2,), (4,)]))
@example(pinned_system("one unknown bounded both ways"))
# rows that substituting x and then y would leave constant: the first stage
# leaves x open, the second stage's dual LP is unbounded
@example(pinned_system("the second stage's dual is unbounded"))
@example(pinned_system("the last interval is empty"))
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


def pq(certificate: dict[int, Fraction]) -> dict[str, str]:
    return {str(i): f"{y.numerator}/{y.denominator}" for i, y in sorted(certificate.items())}


@pytest.mark.parametrize("case", CERTIFICATES["fits"], ids=lambda case: f"{case['family']} {case['observations']}")
def test_fit_certificate_pinned(case):
    fit = fit_thiele if case["family"] == "thiele" else fit_bswav
    result = fit(parse_observations(FIT_CORPUS["observations"][case["observations"]], case["k"]))
    assert not result.feasible
    assert pq(result.certificate) == case["certificate"]


@pytest.mark.parametrize("name", PINNED)
def test_certificate_pinned(name):
    result = solve_feasibility(pinned_system(name))
    assert not result.feasible
    assert pq(result.certificate) == PINNED[name]["certificate"]


def count_lps(monkeypatch) -> list[bool]:
    """Record each `_simplex` call from now on: True for a Farkas LP, which has no costs."""
    calls = []
    simplex = identify._simplex

    def counted(columns, rhs, costs=None):
        calls.append(costs is None)
        return simplex(columns, rhs, costs)

    monkeypatch.setattr(identify, "_simplex", counted)
    return calls


def test_feasible_system_takes_two_lps_per_unknown_but_the_last(monkeypatch):
    """n unknowns take 2(n - 1) LPs: none certifies, and the last unknown is
    read off its rows.  Thiele fits of PAV at k = 1..8, weights of SAV at
    m = 2..9."""
    rng = random.Random(24)
    systems = []
    for n in range(1, identify.MAX_UNKNOWNS + 1):
        for family, rule, m, k in (("thiele", "pav", n + 3, n), ("bswav", "sav", n + 1, 1)):
            ballot = lambda: frozenset(c for c in range(m) if rng.random() < 0.4) or frozenset([rng.randrange(m)])
            profiles = [Profile.from_ballots(m, [ballot() for _ in range(6)]) for _ in range(3)]
            systems.append(build_system(observe(named_rule(rule, k, m), profiles, k), family))
    calls = count_lps(monkeypatch)
    for system in systems:
        calls.clear()
        assert solve_feasibility(system).feasible
        assert calls == [False] * (2 * len(system.unknowns) - 2)


@pytest.mark.parametrize(
    "name, stage_lps",
    [
        ("one unknown bounded both ways", 0),
        ("the first stage's dual is unbounded", 1),
        ("the last interval is empty", 2),
        ("the second stage's dual is unbounded", 3),
        ("parallel rows of different scale", 2),
        ("an all-zero row", None),
    ],
)
def test_infeasible_system_ends_with_one_farkas_lp(monkeypatch, name, stage_lps):
    """The stages run until one shows the rows infeasible, then one Farkas LP
    certifies; an all-zero row needs no LP."""
    calls = count_lps(monkeypatch)
    assert not solve_feasibility(pinned_system(name)).feasible
    assert calls == ([] if stage_lps is None else [False] * stage_lps + [True])


def test_point_failing_a_row_is_certified(monkeypatch):
    """A point that fails a row sends the system to the Farkas LP: the pinned
    certificate when the rows are infeasible, an internal error when they
    are not.  No consistent stage leaves such a point: a row that would turn
    into a false constant makes its stage's dual LP unbounded first."""
    monkeypatch.setattr(identify, "_midpoint_point", lambda distinct, n: [F(0)] * n)
    name = "four unknowns, fractional multipliers"
    assert pq(solve_feasibility(pinned_system(name)).certificate) == PINNED[name]["certificate"]
    with pytest.raises(AssertionError, match="no certificate"):
        solve_feasibility(ConstraintSystem(("x", "y"), weak=[(0, 1)], strict=[(1, -1)]))


class TestFitThiele:
    def test_pav_k2_from_spec_grid(self):
        # the n <= 2 canonical grid: the midpoint of the admissible interval
        # lands exactly on the harmonic value after normalization
        obs = observe(named_rule("pav", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs)
        assert result.feasible
        assert result.rule.scoring.values == (F(0), F(1), F(3, 2))

    def test_pav_k2_from_pinning_grid(self):
        obs = observe(named_rule("pav", 2, 4), canonical_grid(4, 4), 2)
        result = fit_thiele(obs)
        assert result.rule.scoring.values == (F(0), F(1), F(3, 2))

    def test_pav_k3_harmonic(self):
        obs = observe(named_rule("pav", 3, 4), canonical_grid(4, 4), 3)
        result = fit_thiele(obs)
        assert result.feasible
        assert result.rule.scoring.values == (F(0), F(1), F(3, 2), F(11, 6))

    def test_av_k2(self):
        obs = observe(named_rule("av", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs)
        assert result.rule.scoring.values == (F(0), F(1), F(2))

    def test_ccav_k2(self):
        obs = observe(named_rule("ccav", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs)
        assert result.rule.scoring.values == (F(0), F(1), F(1))

    def test_triv_all_zero(self):
        obs = observe(named_rule("triv", 2, 4), canonical_grid(4, 2), 2)
        result = fit_thiele(obs)
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
        result = fit_thiele(obs)
        assert not result.feasible
        assert verify_certificate(result.system, result.certificate)


class TestFitBswav:
    def test_sav_recovered_exactly(self):
        obs = observe(named_rule("sav", 2, 4), canonical_grid(4, 4), 2)
        result = fit_bswav(obs)
        assert result.feasible
        assert result.rule.scoring.alpha == (F(1), F(1, 2), F(1, 3), F(1, 4))

    def test_av_recovered_with_pinned_tail(self):
        obs = observe(named_rule("av", 2, 4), canonical_grid(4, 2), 2)
        result = fit_bswav(obs)
        assert result.rule.scoring.alpha == (F(1), F(1), F(1), F(1, 4))

    def test_msav_recovered(self):
        obs = observe(named_rule("msav", 2, 4), canonical_grid(4, 4), 2)
        result = fit_bswav(obs)
        assert result.rule.scoring.alpha == (F(1), F(1, 2), F(1, 2), F(1, 4))

    def test_pav_convexity_output_is_bswav_infeasible(self):
        profile = Profile.from_ballots(4, [fs(0, 1), fs(2, 3)])
        pav = named_rule("pav", 2, 4)
        obs = observe(pav, [profile], 2)
        result = fit_bswav(obs)
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
            fitted = fit_thiele(observe(rule, grid, 2)).rule
            for profile in held_out:
                assert winners(fitted, profile) == winners(rule, profile), name
        for name in ("av", "sav", "msav"):
            rule = named_rule(name, 2, 4)
            fitted = fit_bswav(observe(rule, grid, 2)).rule
            for profile in held_out:
                assert winners(fitted, profile) == winners(rule, profile), name

    def test_fit_reproduces_every_observation(self):
        grid = canonical_grid(4, 2)
        rule = named_rule("pav", 2, 4)
        obs = observe(rule, grid, 2)
        fitted = fit_thiele(obs).rule
        for profile, ob in zip(grid, obs):
            assert winners(fitted, profile) == ob.chosen

    def test_shuffled_observations_give_identical_fit(self):
        rng = random.Random(43)
        obs = observe(named_rule("sav", 2, 4), canonical_grid(4, 3), 2)
        shuffled = obs[:]
        rng.shuffle(shuffled)
        a = fit_bswav(obs)
        b = fit_bswav(shuffled)
        assert a.rule.scoring.alpha == b.rule.scoring.alpha


class TestObservationsFormat:
    def test_round_trip(self):
        grid = canonical_grid(3, 2)
        obs = observe(named_rule("pav", 2, 3), grid, 2)
        text = format_observations(obs)
        again = parse_observations(text, 2)
        assert again == obs

    def test_parse_example(self):
        text = "m=3\n0 1\n0 1\n2\nchosen: {0,1}\n"
        obs = parse_observations(text, 2)
        assert len(obs) == 1
        assert obs[0].chosen == fs((0, 1))
        assert obs[0].terms == ((0b011, 2), (0b100, 1))

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
        result = fit_thiele(obs)
        assert format_fit(result) == "s: 0,1,3/2"
        # the family is read off the fitted rule's scoring
        sav = fit_bswav(observe(named_rule("sav", 2, 4), canonical_grid(4, 2), 2))
        assert format_fit(sav) == "alpha: 1,5/8,5/16,1/4"
        bad = fit_bswav(observe(named_rule("pav", 2, 4), [Profile.from_ballots(4, [fs(0, 1), fs(2, 3)])], 2))
        assert format_fit(bad) == "infeasible"


def block_by_block_observations(text, k):
    """The observations of `text` read one block at a time: each block's lines
    joined back into text, parsed as a profile, and made an observation of that
    profile, errors renumbered from the block's first line."""
    observations = []
    block = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip().startswith("chosen:"):
            block.append(line)
            continue
        try:
            profile = parse_profile("\n".join(block), k=k)
        except ProfileFormatError as err:
            raise ProfileFormatError(line_no - len(block) + err.line_no - 1, err.message) from None
        except ValueError as err:
            raise ProfileFormatError(line_no, str(err)) from None
        listed = line.split(":", 1)[1].strip()
        if not identify._CHOSEN_RE.fullmatch(listed):
            raise ProfileFormatError(line_no, f"invalid chosen line {line.strip()!r}")
        chosen = frozenset(tuple(map(int, item.split(","))) for item in listed[1:-1].split("},{"))
        try:
            obs = Observation.from_profile(profile, chosen, k)
        except ValueError as err:
            raise ProfileFormatError(line_no, str(err)) from None
        if observations and obs.m != observations[0].m:
            first_m = observations[0].m
            raise ProfileFormatError(line_no, f"observations must share m and k: m={obs.m} here, m={first_m} before")
        observations.append(obs)
        block = []
    for stray, line in enumerate(block, start=line_no - len(block) + 1):
        if line.strip() and not line.strip().startswith("#"):
            raise ProfileFormatError(stray, "trailing profile block without a 'chosen:' line")
    return observations


def parsed(parse, text, k):
    """The observations, or the error's type, line number and message."""
    try:
        return parse(text, k)
    except ValueError as err:
        return type(err), getattr(err, "line_no", None), str(err)


@settings(max_examples=300, deadline=None)
@given(observation_texts(), st.integers(1, 3), st.booleans())
def test_one_pass_parse_matches_block_by_block(text, k, crlf):
    if crlf:
        text = text.replace("\n", "\r\n")
    assert parsed(parse_observations, text, k) == parsed(block_by_block_observations, text, k)


@settings(max_examples=150, deadline=None)
@given(observed_profiles(max_m=8), st.data())
def test_one_pass_parse_reads_decorated_files(pairs, data):
    """Comments, blank lines, padding and CRLF endings anywhere in a formatted
    file change no observation."""
    observations = [obs for _, obs in pairs]
    lines = format_observations(observations).split("\n")
    for _ in range(data.draw(st.integers(0, 6))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "  ", "# note", "# chosen: {0}"])))
    pad = data.draw(st.sampled_from(["", " ", "\t"]))
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(pad + line + pad for line in lines)
    assert parse_observations(text, observations[0].k) == block_by_block_observations(text, observations[0].k)
    assert parse_observations(text, observations[0].k) == observations


@pytest.mark.parametrize(
    "text, k, expected",
    [
        ("# a\n\nm=3\n0 1\n2\nchosen: {0,1}\n\n# b\n\nm=3\n2\n2\n  chosen: {0,2},{1,2}\n#end\n", 2,
         [Observation(3, ((0b011, 1), (0b100, 1)), fs((0, 1)), 2),
          Observation(3, ((0b100, 2),), fs((0, 2), (1, 2)), 2)]),
        ("m=3\r\n0 1\r\n\r\n# c\r\n2\r\nchosen: {0,1}\r\n\r\nm=3\r\n0 1\r\nchosen: {0,1}\r\n", 2,
         [Observation(3, ((0b011, 1), (0b100, 1)), fs((0, 1)), 2), Observation(3, ((0b011, 1),), fs((0, 1)), 2)]),
        ("m=3\n0 1\nchosen: {0,1}\nchosen: {0,1}\n", 2, (4, "missing 'm=<int>' line")),
        ("m=3\n0 1\nchosen: {0,1}\n# c\nm=3\n\nchosen: {0,1}\n", 2, (4, "profile contains no ballots")),
        ("m=3\n0 1\nchosen: {0,1}\n\n# c\nm=3\n0 1\n", 2,
         (6, "trailing profile block without a 'chosen:' line")),
        ("m=3\n0 1\nchosen: {0,1} {1,2}\n", 2, (3, "invalid chosen line 'chosen: {0,1} {1,2}'")),
        ("m=3\n0 1\nchosen: {1,0}\n", 2, (3, "observed committees must be strictly increasing index lists")),
        ("m=3\n0 1\nchosen: {0,3}\n", 2, (3, "committee members out of range")),
        ("m=3\n0 1\nchosen: {0,1},{2}\n", 2, (3, "observed committees must all have size k")),
        ("m=3\n0 1\nchosen: {0,1}\nm=4\n0 1\nchosen: {0,1}\n", 2,
         (6, "observations must share m and k: m=4 here, m=3 before")),
        ("# big\nm=24\n0 1\n0 99\nchosen: {0,1}\n", 12, (5, "C(24,12) committees exceed the enumeration limit 200000")),
        ("m=3\n0 1\nchosen: {0,1}\n\nm=3\n0 1\n0 3\n0 3\nchosen: {0,1}\n", 2, (7, "ballot indices must lie in 0..2")),
    ],
    ids=["comments-and-blanks", "crlf", "empty-block", "no-ballots", "stray-block", "bad-chosen", "not-increasing",
         "out-of-range", "wrong-size", "m-changes", "committee-limit", "bad-ballot"],
)
def test_one_pass_parse_pinned(text, k, expected):
    got = parsed(parse_observations, text, k)
    assert got == parsed(block_by_block_observations, text, k)
    if isinstance(expected, tuple):
        line_no, message = expected
        expected = (ProfileFormatError, line_no, f"line {line_no}: {message}")
    assert got == expected


def test_each_distinct_ballot_line_is_coded_once_per_file(monkeypatch):
    calls = []
    indices = profiles_module._indices
    monkeypatch.setattr(profiles_module, "_indices", lambda line, m: calls.append(line) or indices(line, m))
    text = "m=4\n0 1\n2\n0 1\nchosen: {0,1}\nm=4\n2\n 0 1 \n1 3\nchosen: {0,1},{0,2}\n"
    observations = parse_observations(text, 2)
    assert calls == ["0 1", "2", "1 3"]
    assert [obs.terms for obs in observations] == [((0b0011, 2), (0b0100, 1)), ((0b0011, 1), (0b0100, 1), (0b1010, 1))]
    assert observations == block_by_block_observations(text, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda m: st.lists(repeated_profiles(m), min_size=1, max_size=4)))
def test_profile_terms_are_the_counted_masks(profiles):
    """Terms read off a profile's distinct ballots are its voters' masks,
    counted, in increasing mask order."""
    for profile in profiles:
        obs = Observation.from_profile(profile, fs((0,)), 1)
        assert obs.terms == tuple(sorted(Counter(profile.masks).items()))


@settings(max_examples=150, deadline=None)
@given(observed_profiles(max_m=8), st.sampled_from(["thiele", "bswav"]))
def test_observations_round_trip_through_text(pairs, family):
    observations = [obs for _, obs in pairs]
    again = parse_observations(format_observations(observations), observations[0].k)
    assert again == observations
    assert build_system(again, family) == build_system(observations, family)


def test_fit_recheck_catches_a_wrong_point(monkeypatch):
    """The kernel re-check stands behind the solver: a feasible point that
    does not reproduce the observations makes the fit raise."""
    obs = observe(named_rule("pav", 2, 4), canonical_grid(4, 2), 2)
    monkeypatch.setattr(identify, "solve_feasibility", lambda system: FeasibilityResult(True, (F(1), F(2))))
    with pytest.raises(AssertionError, match="fails to reproduce"):
        fit_thiele(obs)
