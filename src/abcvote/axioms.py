"""Instance-level decision procedures for the election axioms, and the one
table of all axioms.

Every checker takes a rule as an evaluable object (anything mapping a
profile to a choice set, or a library `Rule`), evaluates it on concrete
profiles, and returns a verdict.  A failing verdict carries a structured
witness with enough data to reproduce the violation by re-running the rule;
each replayer sits beside its checker, which re-verifies its own witness
with it before returning.

The axioms quantify over all profiles; these checkers decide fixed
instances, and the search module supplies the quantifier at bounded scale.
`AXIOMS` at the end of this module lists every axiom, general and
party-list, with its aliases, arity, domain, checker and replayer; the CLI,
the search driver and `replay` all look axioms up there.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import partylist
from .profiles import (
    Ballot,
    ChoiceSet,
    Committee,
    Profile,
    add_profiles,
    apply_candidate_permutation,
    format_profile,
    scale_profile,
)
from .rules import Rule, format_rational, least_continuity_lambda, survives_every_reduction
from .verdict import AxiomVerdict, Replayer, as_choice_fn, fail

IOL_EXHAUSTIVE_CAP = 2**16


class CapExceeded(ValueError):
    """An exhaustive walk would exceed its cap; sample mode still applies."""


def _committee_image(choices: ChoiceSet, tau: tuple[int, ...]) -> ChoiceSet:
    return frozenset(tuple(sorted(tau[c] for c in w)) for w in choices)


def _permutations(items, mode: str, seed: int, count: int, too_many: str):
    """Every ordering of `items` (mode "all", at most 8 items) or `count`
    seeded shuffles (mode "sample"), each as a tuple."""
    ordered = list(items)
    if mode == "all":
        if len(ordered) > 8:
            raise CapExceeded(too_many)
        yield from itertools.permutations(ordered)
    elif mode == "sample":
        rng = random.Random(seed)
        for _ in range(count):
            image = ordered[:]
            rng.shuffle(image)
            yield tuple(image)
    else:
        raise ValueError(f"unknown mode {mode!r}")


def check_anonymity(rule, profile: Profile, mode: str = "all", seed: int = 0, count: int = 20) -> AxiomVerdict:
    """The choice set must be unchanged under every (tested) voter relabelling."""
    choose = as_choice_fn(rule)
    base = choose(profile)
    checked = 0
    labels = sorted(profile.labels())
    too_many = "exhaustive mode over voter permutations needs at most 8 voters"
    for image in _permutations(labels, mode, seed, count, too_many):
        checked += 1
        mapping = dict(zip(labels, image))
        permuted = profile.relabel(mapping)
        if choose(permuted) != base:
            witness = {
                "profile": profile,
                "permuted_profile": permuted,
                "voter_permutation": mapping,
                "choice_set": base,
                "permuted_choice_set": choose(permuted),
            }
            return fail("anonymity", witness, choose, checked, _replay_anonymity)
    return AxiomVerdict("anonymity", True, None, checked)


def _replay_anonymity(w, choose):
    return choose(w["profile"]) != choose(w["permuted_profile"])


def check_neutrality(rule, profile: Profile, mode: str = "all", seed: int = 0, count: int = 20) -> AxiomVerdict:
    """Renaming candidates by tau must map the choice set to its tau-image."""
    choose = as_choice_fn(rule)
    base = choose(profile)
    checked = 0
    too_many = "exhaustive mode over candidate permutations needs m <= 8"
    for tau in _permutations(range(profile.m), mode, seed, count, too_many):
        checked += 1
        renamed = apply_candidate_permutation(profile, tau)
        expected = _committee_image(base, tau)
        observed = choose(renamed)
        if observed != expected:
            witness = {
                "profile": profile,
                "permuted_profile": renamed,
                "candidate_permutation": tau,
                "choice_set": base,
                "expected_choice_set": expected,
                "permuted_choice_set": observed,
            }
            return fail("neutrality", witness, choose, checked, _replay_neutrality)
    return AxiomVerdict("neutrality", True, None, checked)


def _replay_neutrality(w, choose):
    expected = _committee_image(choose(w["profile"]), w["candidate_permutation"])
    return choose(w["permuted_profile"]) != expected


def check_consistency_pair(rule, a: Profile, b: Profile) -> AxiomVerdict:
    """On disjoint electorates with overlapping choices, the joint election
    must choose exactly the intersection.  Vacuous pass when the choice sets
    are disjoint."""
    choose = as_choice_fn(rule)
    joint = add_profiles(a, b, relabel=True)
    b_relabelled = Profile(joint.m, joint.ballots[a.n_voters:])
    left, right = choose(a), choose(b_relabelled)
    if not left & right:
        return AxiomVerdict("consistency", True, None, 1)
    observed = choose(joint)
    if observed == left & right:
        return AxiomVerdict("consistency", True, None, 1)
    witness = {
        "left": a,
        "right": b_relabelled,
        "joint": joint,
        "left_choice": left,
        "right_choice": right,
        "joint_choice": observed,
        "expected": left & right,
    }
    return fail("consistency", witness, choose, 1, _replay_consistency)


def _replay_consistency(w, choose):
    left, right = choose(w["left"]), choose(w["right"])
    if not left & right:
        return False
    return choose(w["joint"]) != left & right


def check_consistency_splits(rule, profile: Profile, max_voters: int = 10) -> AxiomVerdict:
    """Consistency over every non-trivial bipartition of the electorate."""
    choose = as_choice_fn(rule)
    n = profile.n_voters
    if n > max_voters:
        raise ValueError(f"profile has {n} voters, over the split cap {max_voters}")
    checked = 0
    voters = list(profile.ballots)
    for size in range(1, n):
        # fix the first voter on the left side so each bipartition appears once
        for rest in itertools.combinations(range(1, n), size - 1):
            left_idx = {0, *rest}
            left = Profile(profile.m, tuple(voters[i] for i in sorted(left_idx)))
            right = Profile(profile.m, tuple(voters[i] for i in range(n) if i not in left_idx))
            verdict = check_consistency_pair(choose, left, right)
            checked += 1
            if not verdict.passed:
                verdict.checked = checked
                return verdict
    return AxiomVerdict("consistency", True, None, checked)


def find_min_continuity_lambda(rule, a: Profile, b: Profile, lambda_cap: int) -> int | None:
    """Smallest lambda <= lambda_cap with winners(lambda*a + b) ⊆ winners(a), else None.

    For library rules the least lambda is read off the two score vectors
    (`least_continuity_lambda`); other rules are run on each materialized
    lambda*a + b in turn.
    """
    if lambda_cap < 1:
        raise ValueError("lambda cap must be at least 1")
    if isinstance(rule, Rule):
        lam = least_continuity_lambda(rule, a, b)
        return lam if lam <= lambda_cap else None
    choose = as_choice_fn(rule)
    target = choose(a)
    for lam in range(1, lambda_cap + 1):
        combined = add_profiles(scale_profile(a, lam), b, relabel=True)
        if choose(combined) <= target:
            return lam
    return None


def check_continuity(rule, a: Profile, b: Profile, lambda_cap: int) -> AxiomVerdict:
    """Continuity on one pair: some lambda <= lambda_cap puts the winners of
    lambda*a + b inside the winners of a.  A pass records that lambda as
    `checked`; a failure means only "not found within the cap", and
    replaying it is the same search, so it is not replayed here."""
    lam = find_min_continuity_lambda(rule, a, b, lambda_cap)
    if lam is not None:
        return AxiomVerdict("continuity", True, None, lam)
    witness = {"left": a, "right": b, "lambda_cap": lambda_cap}
    return AxiomVerdict("continuity", False, witness, lambda_cap)


def _replay_continuity(w, choose):
    return find_min_continuity_lambda(choose, w["left"], w["right"], w["lambda_cap"]) is None


def check_weak_efficiency(rule, profile: Profile) -> AxiomVerdict:
    """A winner containing a universally unapproved candidate must stay
    winning when that candidate is swapped for any other candidate."""
    choose = as_choice_fn(rule)
    base = choose(profile)
    approved = profile.approved_candidates()
    unapproved = sorted(set(range(profile.m)) - approved)
    checked = 0
    for committee in sorted(base):
        members = set(committee)
        for c in (c for c in unapproved if c in members):
            for replacement in (c2 for c2 in range(profile.m) if c2 not in members):
                checked += 1
                swapped = tuple(sorted(members - {c} | {replacement}))
                if swapped not in base:
                    witness = {
                        "profile": profile,
                        "committee": committee,
                        "unapproved": c,
                        "replacement": replacement,
                        "swapped": swapped,
                        "choice_set": base,
                    }
                    return fail("weak-efficiency", witness, choose, checked, _replay_weak_efficiency)
    return AxiomVerdict("weak-efficiency", True, None, checked)


def _replay_weak_efficiency(w, choose):
    base = choose(w["profile"])
    committee, c = w["committee"], w["unapproved"]
    if committee not in base or c not in committee:
        return False
    if c in w["profile"].approved_candidates():
        return False
    return w["swapped"] not in base


def _reductions_for(ballot: Ballot, committee_members: frozenset[int]):
    """All reduced ballots: drop any subset of the approved candidates outside
    the committee, keeping the ballot non-empty and its committee part intact."""
    droppable = sorted(ballot - committee_members)
    out = []
    for size in range(len(droppable) + 1):
        for drop in itertools.combinations(droppable, size):
            reduced = ballot - set(drop)
            if reduced:
                out.append(reduced)
    return out


def _check_walk_size(profile: Profile, members: frozenset[int], committee: Committee, cap: int) -> None:
    total = 1
    for _, ballot in profile.ballots:
        total *= 2 ** len(ballot - members)
    if total > cap:
        raise CapExceeded(f"{total} reduced profiles for committee {committee}, over cap {cap}")


def check_independence_of_losers(
    rule,
    profile: Profile,
    mode: str = "all",
    seed: int = 0,
    count: int = 200,
    cap: int = IOL_EXHAUSTIVE_CAP,
) -> AxiomVerdict:
    """Winners must stay winning when voters disapprove non-members.

    Mode "all" covers, for every winner, the product of all per-voter
    reductions, and raises CapExceeded for a winner with more than `cap` of
    them; "sample" draws `count` seeded random reductions.  `checked` counts
    reduced profiles.  In mode "all" a library `Rule` decides each winner at
    once with `survives_every_reduction` and walks the product only when one
    fails, to find the first witness; other rules always walk it.
    """
    choose = as_choice_fn(rule)
    base = choose(profile)
    if mode == "all" and isinstance(rule, Rule):
        checked = 0
        for committee in sorted(base):
            members = frozenset(committee)
            _check_walk_size(profile, members, committee, cap)
            if not survives_every_reduction(rule, profile, committee):
                break  # the walk below finds the first witness
            checked += math.prod(
                2 ** len(ballot - members) - (0 if ballot & members else 1) for _, ballot in profile.ballots
            )
        else:
            return AxiomVerdict("independence-of-losers", True, None, checked)
    checked = 0
    rng = random.Random(seed)
    for committee in sorted(base):
        members = frozenset(committee)
        options = [_reductions_for(ballot, members) for _, ballot in profile.ballots]
        if mode == "all":
            _check_walk_size(profile, members, committee, cap)
            combos = itertools.product(*options)
        elif mode == "sample":
            combos = ([rng.choice(opt) for opt in options] for _ in range(count))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        labels = profile.labels()
        for combo in combos:
            checked += 1
            reduced = Profile(profile.m, tuple(zip(labels, combo)))
            if committee not in choose(reduced):
                witness = {
                    "profile": profile,
                    "reduced_profile": reduced,
                    "committee": committee,
                    "choice_set": base,
                    "reduced_choice_set": choose(reduced),
                }
                return fail("independence-of-losers", witness, choose, checked, _replay_iol)
    return AxiomVerdict("independence-of-losers", True, None, checked)


def _replay_iol(w, choose):
    profile, reduced, committee = w["profile"], w["reduced_profile"], w["committee"]
    if profile.labels() != reduced.labels():
        return False
    members = frozenset(committee)
    for (_, full), (_, cut) in zip(profile.ballots, reduced.ballots):
        if not cut <= full or full & members != cut & members:
            return False
    return committee in choose(profile) and committee not in choose(reduced)


def committees_between(a: Committee, b: Committee) -> list[Committee]:
    """All size-k committees W with a ∩ b ⊆ W ⊆ a ∪ b."""
    k = len(a)
    core = sorted(set(a) & set(b))
    fringe = sorted((set(a) | set(b)) - set(core))
    out = []
    for extra in itertools.combinations(fringe, k - len(core)):
        out.append(tuple(sorted(core + list(extra))))
    return out


def convex_hull(choices: ChoiceSet) -> ChoiceSet:
    """Least superset closed under taking committees between any two members.

    One pairwise pass is not a fixpoint in general, so passes repeat until
    stable; the closure is reached after at most C(m,k) insertions.
    """
    if not choices:
        raise ValueError("choice set must be non-empty")
    hull = set(choices)
    while True:
        added = False
        for a, b in itertools.combinations(sorted(hull), 2):
            for between in committees_between(a, b):
                if between not in hull:
                    hull.add(between)
                    added = True
        if not added:
            return frozenset(hull)


def check_choice_set_convexity(rule, profile: Profile) -> AxiomVerdict:
    """The choice set must contain every committee between two of its members."""
    choose = as_choice_fn(rule)
    base = choose(profile)
    checked = 0
    for a, b in itertools.combinations(sorted(base), 2):
        for between in committees_between(a, b):
            checked += 1
            if between not in base:
                witness = {
                    "profile": profile,
                    "committee_a": a,
                    "committee_b": b,
                    "between": between,
                    "choice_set": base,
                }
                return fail("choice-set-convexity", witness, choose, checked, _replay_convexity)
    return AxiomVerdict("choice-set-convexity", True, None, checked)


def _replay_convexity(w, choose):
    base = choose(w["profile"])
    a, b, between = w["committee_a"], w["committee_b"], w["between"]
    if a not in base or b not in base:
        return False
    if not set(a) & set(b) <= set(between) <= set(a) | set(b):
        return False
    return between not in base


# --- the axiom table --------------------------------------------------------


@dataclass(frozen=True)
class CheckOptions:
    """Settings handed to every checker; each reads only the ones it needs.

    `mode` "all" walks every case (for independence of losers: every
    reduction, up to IOL_EXHAUSTIVE_CAP), "sample" draws `count` seeded
    cases.  The defaults are the search driver's; `check` sets mode, seed
    and count from its flags.
    """

    k: int
    mode: str = "all"
    seed: int = 0
    count: int = 200
    lambda_cap: int | None = 64


@dataclass(frozen=True)
class Axiom:
    """One axiom: its names, what it is checked on, and how.

    `check` takes the rule, `arity` profiles and a `CheckOptions`; `domain`,
    when set, says which profiles the axiom applies to at all.
    """

    name: str
    aliases: tuple[str, ...]
    arity: int
    domain: Callable[[Profile], bool] | None
    check: Callable[..., AxiomVerdict]
    replay: Replayer


_party_list = partylist.is_party_list

AXIOMS: tuple[Axiom, ...] = (
    Axiom("anonymity", (), 1, None,
          lambda r, p, o: check_anonymity(r, p, o.mode, o.seed, o.count), _replay_anonymity),
    Axiom("neutrality", (), 1, None,
          lambda r, p, o: check_neutrality(r, p, o.mode, o.seed, o.count), _replay_neutrality),
    Axiom("consistency", (), 2, None,
          lambda r, a, b, o: check_consistency_pair(r, a, b), _replay_consistency),
    Axiom("continuity", (), 2, None,
          lambda r, a, b, o: check_continuity(r, a, b, o.lambda_cap), _replay_continuity),
    Axiom("weak-efficiency", (), 1, None,
          lambda r, p, o: check_weak_efficiency(r, p), _replay_weak_efficiency),
    Axiom("independence-of-losers", ("iol",), 1, None,
          lambda r, p, o: check_independence_of_losers(r, p, o.mode, o.seed, o.count), _replay_iol),
    Axiom("choice-set-convexity", ("convexity",), 1, None,
          lambda r, p, o: check_choice_set_convexity(r, p), _replay_convexity),
    Axiom("excellence", (), 1, _party_list,
          lambda r, p, o: partylist.check_excellence(r, p), partylist.replay_excellence),
    Axiom("party-proportionality", ("party-prop",), 1, _party_list,
          lambda r, p, o: partylist.check_party_proportionality(r, p), partylist.replay_party_proportionality),
    Axiom("aversion-unanimous", ("aversion",), 1, _party_list,
          lambda r, p, o: partylist.check_aversion_unanimous(r, p), partylist.replay_aversion_unanimous),
    Axiom("msav-threshold", (), 1, _party_list,
          lambda r, p, o: partylist.check_msav_threshold(r, p, o.k), partylist.replay_msav_threshold),
)

_BY_NAME = {name: axiom for axiom in AXIOMS for name in (axiom.name, *axiom.aliases)}


def lookup(name: str) -> Axiom:
    """The axiom with this canonical name or alias."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown axiom {name!r}; known: {', '.join(sorted(_BY_NAME))}") from None


def replay(verdict: AxiomVerdict, rule) -> bool:
    """Re-check a failure verdict; True iff the violation reproduces.

    Each replayer re-derives the violation from the witness alone, using only
    the rule under test.  The search module and the acceptance suite use this
    to reject stale or fabricated witnesses.
    """
    if verdict.passed or verdict.witness is None:
        raise ValueError("only failure verdicts carry a witness to replay")
    if verdict.axiom not in _BY_NAME:
        raise ValueError(f"no replayer registered for axiom {verdict.axiom!r}")
    return _BY_NAME[verdict.axiom].replay(verdict.witness, as_choice_fn(rule))


# --- serialization --------------------------------------------------------


def _encode(value):
    if isinstance(value, Profile):
        return format_profile(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, frozenset):
        items = sorted(value)
        return [_encode(v) for v in items]
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def verdict_to_json(verdict: AxiomVerdict) -> dict:
    """JSON-ready record: axiom id, pass flag, witness profiles as core-format
    strings and committees as sorted index lists."""
    return {
        "axiom": verdict.axiom,
        "passed": verdict.passed,
        "checked": verdict.checked,
        "witness": _encode(verdict.witness) if verdict.witness is not None else None,
    }
