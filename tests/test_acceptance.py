"""Acceptance criteria, one test per criterion.

Each test prints a single ACCEPTANCE line; run with `pytest -s` to see them
on success.  All comparisons are exact rational comparisons; the two timed
suites assert their own runtime budget.
"""

import contextlib
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from abcvote.axioms import (
    check_anonymity,
    check_choice_set_convexity,
    check_consistency_splits,
    check_independence_of_losers,
    check_neutrality,
    check_weak_efficiency,
    find_min_continuity_lambda,
    replay,
)
from abcvote.cli import main
from abcvote.identify import Observation, fit_bswav, fit_thiele, verify_certificate
from abcvote.partylist import (
    check_aversion_unanimous,
    check_excellence,
    check_msav_threshold,
    check_party_proportionality,
    detect_party_structure,
    gen_excellence_witness_profile,
    gen_pav_witness_profile,
    gen_sav_witness_profile,
)
from abcvote.profiles import (
    Profile,
    ProfileVector,
    all_ballots,
    all_ballots_profile,
    ballot_mask,
    profile_to_vector,
)
from abcvote.rules import (
    bswav_rule,
    continuity_lambda_bound,
    named_rule,
    winners,
    winners_from_vector,
)
from abcvote.search import (
    SearchBounds,
    enumerate_profiles,
    find_counterexample,
    unanimity_threshold_instance,
    separation_suite,
)

F = Fraction


def fs(*xs):
    return frozenset(xs)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{name}]: PASS")


@lru_cache(maxsize=None)
def grid(m, n_max):
    """The exhaustive canonical grid: one profile per orbit, n up to n_max."""
    return tuple(p for n in range(1, n_max + 1) for p in enumerate_profiles(m, n))


def forward_suite(rules_for, checkers, pair_check):
    """0 violations over the canonical grid (m <= 4, n <= 2, all k)."""
    violations = []
    for m in (2, 3, 4):
        profiles = grid(m, 2)
        for k in range(1, m):
            for rule in rules_for(m, k):
                for profile in profiles:
                    for checker in checkers:
                        verdict = checker(rule, profile)
                        if not verdict.passed:
                            violations.append((rule.name, m, k, verdict.axiom))
                if pair_check:
                    for a, b in itertools.product(profiles, repeat=2):
                        bound = continuity_lambda_bound(rule, a, b)
                        lam = find_min_continuity_lambda(rule, a, b, bound)
                        if lam is None:
                            violations.append((rule.name, m, k, "continuity"))
    return violations


def test_criterion_1_thiele_forward_suite():
    with criterion(1, "thiele-forward-suite"):
        start = time.monotonic()
        names = ("av", "pav", "ccav", "triv")
        checkers = (
            check_anonymity,
            check_neutrality,
            check_consistency_splits,
            check_independence_of_losers,
        )
        violations = forward_suite(
            lambda m, k: [named_rule(n, k, m) for n in names], checkers, pair_check=True
        )
        elapsed = time.monotonic() - start
        assert violations == []
        assert elapsed < 60, f"suite took {elapsed:.1f}s"


def test_criterion_2_bswav_forward_suite():
    with criterion(2, "bswav-forward-suite"):
        start = time.monotonic()

        def rules_for(m, k):
            return [
                bswav_rule("av", k, [F(1)] * m),
                named_rule("sav", k, m),
                named_rule("msav", k, m),
            ]

        checkers = (
            check_anonymity,
            check_neutrality,
            check_consistency_splits,
            check_weak_efficiency,
            check_choice_set_convexity,
        )
        violations = forward_suite(rules_for, checkers, pair_check=True)
        elapsed = time.monotonic() - start
        assert violations == []
        assert elapsed < 60, f"suite took {elapsed:.1f}s"


def test_criterion_3_separation_suite():
    with criterion(3, "separation-suite"):
        report = separation_suite()
        assert report.ok
        outcomes = {(e.rule, e.axiom): e for e in report.entries}

        # sav drops a winner once supporters prune losing candidates
        assert outcomes[("sav", "independence-of-losers")].observed == "violation"
        # pav and ccav leave gaps between tied committees; min-approval
        # keeps unapproved candidates over approved ones
        assert outcomes[("pav", "choice-set-convexity")].observed == "violation"
        assert outcomes[("ccav", "choice-set-convexity")].observed == "violation"
        assert outcomes[("min-approval", "weak-efficiency")].observed == "violation"
        # ...and the 2-voter witness family itself separates both Thiele rules
        two_voter = Profile.from_ballots(4, [fs(0, 1), fs(2, 3)])
        assert not check_choice_set_convexity(named_rule("pav", 2, 4), two_voter).passed
        assert not check_choice_set_convexity(named_rule("ccav", 2, 4), two_voter).passed
        # av sits in both families, so it passes both separating axioms
        assert outcomes[("av", "independence-of-losers")].observed == "none"
        assert outcomes[("av", "choice-set-convexity")].observed == "none"
        # the unanimity-threshold instance (n_1=6, |P_1|=3, n_2=2, k=2)
        assert outcomes[("pav", "aversion-unanimous")].observed == "violation"
        assert outcomes[("sav", "aversion-unanimous")].observed == "none"
        assert outcomes[("msav", "aversion-unanimous")].observed == "violation"
        assert outcomes[("msav", "msav-threshold")].observed == "none"
        # CLI exit code 0 is required
        assert main(["separations"]) == 0


def test_criterion_4_party_axiom_suite():
    with criterion(4, "party-axiom-suite"):
        av = named_rule("av", 2, 4)
        pav = named_rule("pav", 2, 4)
        ccav = named_rule("ccav", 2, 4)
        sav = named_rule("sav", 2, 4)
        msav = named_rule("msav", 2, 4)

        excellence_witnesses = [
            gen_excellence_witness_profile(2, t, 2, 4, case)
            for t in (2, 3, 4, 5)
            for case in ("high", "low")
        ]
        pav_witnesses = [
            gen_pav_witness_profile(2, t, 2, 4, case)
            for t in (2, 3, 4, 5)
            for case in ("high", "low")
        ]
        sav_witnesses = [
            gen_sav_witness_profile(l, t, 2, 4, case)
            for l in (2, 3)
            for t in (2, 3, 4)
            for case in ("high", "low")
        ]

        # AV satisfies the excellence criterion; PAV and CCAV do not
        assert all(check_excellence(av, p).passed for p in excellence_witnesses)
        assert any(not check_excellence(pav, p).passed for p in excellence_witnesses)
        assert any(not check_excellence(ccav, p).passed for p in excellence_witnesses)

        # PAV is party-proportional; AV and CCAV are not
        assert all(check_party_proportionality(pav, p).passed for p in pav_witnesses)
        assert any(not check_party_proportionality(av, p).passed for p in pav_witnesses)
        assert any(not check_party_proportionality(ccav, p).passed for p in pav_witnesses)

        # SAV satisfies both party-list axioms on the witness family
        for p in sav_witnesses:
            assert check_party_proportionality(sav, p).passed
            assert check_aversion_unanimous(sav, p).passed
        # the library weighting with alpha_l != 1/l (mSAV) fails at least one
        assert any(
            not check_party_proportionality(msav, p).passed
            or not check_aversion_unanimous(msav, p).passed
            for p in sav_witnesses
        )

        # and on every party-list profile of the canonical grid
        for m in (2, 3, 4):
            for profile in grid(m, 2):
                if detect_party_structure(profile) is None:
                    continue
                for k in range(1, m):
                    assert check_excellence(named_rule("av", k, m), profile).passed
                    assert check_party_proportionality(named_rule("pav", k, m), profile).passed
                    assert check_party_proportionality(named_rule("sav", k, m), profile).passed
                    assert check_aversion_unanimous(named_rule("sav", k, m), profile).passed
                    assert check_msav_threshold(named_rule("msav", k, m), profile).passed


def test_criterion_5_identify_round_trip():
    with criterion(5, "identify-round-trip"):
        def observe(rule, profiles, k):
            return [Observation.from_profile(p, winners(rule, p), k) for p in profiles]

        # PAV, k=2: already the n <= 2 observations pin the harmonic value
        obs = observe(named_rule("pav", 2, 4), grid(4, 2), 2)
        assert fit_thiele(obs).rule.scoring.values == (F(0), F(1), F(3, 2))

        # k=3 needs the tie-pinning instances, which enter the grid at n <= 4
        obs = observe(named_rule("pav", 3, 4), grid(4, 4), 3)
        assert fit_thiele(obs).rule.scoring.values == (F(0), F(1), F(3, 2), F(11, 6))

        # SAV weights, m=4: exact reciprocals with the inert entry pinned to 1/4
        obs = observe(named_rule("sav", 2, 4), grid(4, 4), 2)
        assert fit_bswav(obs).rule.scoring.alpha == (F(1), F(1, 2), F(1, 3), F(1, 4))

        # ballot-size-sensitive SAV outcomes admit no Thiele explanation
        before = Profile.from_ballots(3, [fs(0, 1), fs(0, 1), fs(2)])
        after = Profile.from_ballots(3, [fs(0, 1), fs(1), fs(2)])
        result = fit_thiele(observe(named_rule("sav", 1, 3), [before, after], 1))
        assert not result.feasible
        assert verify_certificate(result.system, result.certificate)


def test_criterion_6_oracle_equivalence():
    with criterion(6, "oracle-equivalence"):
        rng = random.Random(606)
        names = ("av", "pav", "ccav", "sav", "msav", "triv")
        for _ in range(1000):
            m = rng.randint(2, 5)
            k = rng.randint(1, m - 1)
            profile = Profile.from_ballots(
                m, [rng.choice(all_ballots(m)) for _ in range(rng.randint(1, 5))]
            )
            rule = named_rule(rng.choice(names), k, m)
            direct = winners(rule, profile)
            via_vector = winners_from_vector(rule, profile_to_vector(profile), k)
            assert direct == via_vector

        # the all-ones vector of the fully symmetric profile ties everything
        star = profile_to_vector(all_ballots_profile(3))
        assert winners_from_vector(named_rule("av", 1, 3), star, 1) == fs((0,), (1,), (2,))

        # negative rational entries are part of the vector domain
        vector = ProfileVector.from_dict(2, {ballot_mask(fs(0)): F(-1), ballot_mask(fs(1)): F(1)})
        assert winners_from_vector(named_rule("av", 1, 2), vector, 1) == fs((1,))


def test_criterion_7_witness_integrity():
    with criterion(7, "witness-integrity"):
        collected = []

        for rule_name, axiom, bounds in (
            ("sav", "independence-of-losers", SearchBounds(3, (1,), 3)),
            ("pav", "choice-set-convexity", SearchBounds(4, (2,), 2)),
            ("ccav", "choice-set-convexity", SearchBounds(4, (2,), 2)),
            ("min-approval", "weak-efficiency", SearchBounds(3, (1,), 1)),
        ):
            result = find_counterexample(rule_name, axiom, bounds)
            assert result.found
            witness_m = result.verdict.witness["profile"].m
            from abcvote.search import library_factory

            rule = library_factory(rule_name)(witness_m, bounds.k_set[0])
            collected.append((result.verdict, rule))

        pav = named_rule("pav", 2, 4)
        ccav = named_rule("ccav", 2, 4)
        av = named_rule("av", 2, 4)
        msav = named_rule("msav", 2, 4)
        for verdict, rule in (
            (check_aversion_unanimous(pav, unanimity_threshold_instance()), pav),
            (check_excellence(ccav, gen_excellence_witness_profile(2, 3, 2, 4, "low")), ccav),
            (check_excellence(pav, gen_excellence_witness_profile(2, 5, 2, 4, "low")), pav),
            (check_party_proportionality(av, gen_pav_witness_profile(2, 2, 2, 4, "high")), av),
            (check_party_proportionality(ccav, gen_pav_witness_profile(2, 2, 2, 4, "low")), ccav),
            (check_aversion_unanimous(msav, gen_sav_witness_profile(3, 3, 2, 4, "high")), msav),
            (
                check_choice_set_convexity(pav, Profile.from_ballots(4, [fs(0, 1), fs(2, 3)])),
                pav,
            ),
        ):
            assert not verdict.passed
            collected.append((verdict, rule))

        replayed = sum(1 for verdict, rule in collected if replay(verdict, rule))
        assert replayed == len(collected) >= 10, f"{replayed}/{len(collected)} witnesses re-verified"
