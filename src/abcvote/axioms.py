"""Instance-level decision procedures for the election axioms, and the one
table of all axioms.

Every checker takes a rule as an evaluable object (anything mapping a
profile to a choice set, or a library `Rule`), evaluates it on concrete
profiles, and returns a verdict.  A failing verdict carries a structured
witness with enough data to reproduce the violation by re-running the rule;
each replayer sits beside its checker, which re-verifies its own witness
with it before returning.  A library `Rule` scores a committee as a sum of
T[|A|][|A ∩ W|] over the profile's distinct ballots and their counts, so it
is anonymous, neutral and consistent by its form: those checkers pass it
without running it, and walk only other rules.

The axioms quantify over all profiles; these checkers decide fixed
instances, and the search module supplies the quantifier at bounded scale.
`AXIOMS` at the end of this module lists every axiom, general and
party-list, with its aliases, arity, domain, checker and replayer; the CLI,
the search driver and `replay` all look axioms up there.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Callable

from . import partylist, rules
from .profiles import (
    ChoiceSet,
    Committee,
    Profile,
    add_profiles,
    apply_candidate_permutation,
    ballot_mask,
    check_same_candidates,
    format_profile,
    scale_profile,
)
from .rules import CapExceeded, Rule, _committees, _reductions_for, first_losing_reduction, least_continuity_lambda
from .verdict import AxiomVerdict, Replayer, as_choice_fn, fail


def _committee_image(choices: ChoiceSet, tau: tuple[int, ...]) -> ChoiceSet:
    return frozenset(tuple(sorted(tau[c] for c in w)) for w in choices)


def _walk_size(items: int, too_many: str) -> int:
    """n!, the orderings of n `items` that a permutation walk visits; over 8 items raise CapExceeded."""
    if items > 8:
        raise CapExceeded(too_many)
    return math.factorial(items)


def check_anonymity(rule, profile: Profile) -> AxiomVerdict:
    """The choice set must be unchanged under every voter permutation.

    A library `Rule` passes by its form, once the errors of its first
    `winners` call are raised; `checked` is still the walk's count, n!.
    Other rules run on every permuted profile.
    """
    too_many = "anonymity is checked on at most 8 voters"
    if isinstance(rule, Rule):
        _committees(rule, profile.m)
        return AxiomVerdict("anonymity", True, None, _walk_size(profile.n_voters, too_many))
    choose = as_choice_fn(rule)
    base = choose(profile)
    checked = 0
    voters = range(profile.n_voters)
    _walk_size(profile.n_voters, too_many)
    for image in itertools.permutations(voters):
        checked += 1
        mapping = dict(zip(voters, image))
        permuted = profile.permute_voters(mapping)
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


def check_neutrality(rule, profile: Profile) -> AxiomVerdict:
    """Renaming candidates by tau must map the choice set to its tau-image.

    A library `Rule` passes by its form, once the errors of its first
    `winners` call are raised; `checked` is still the walk's count, m!.
    Other rules run on every renamed profile.
    """
    too_many = "neutrality is checked on at most 8 candidates"
    if isinstance(rule, Rule):
        _committees(rule, profile.m)
        return AxiomVerdict("neutrality", True, None, _walk_size(profile.m, too_many))
    choose = as_choice_fn(rule)
    base = choose(profile)
    checked = 0
    _walk_size(profile.m, too_many)
    for tau in itertools.permutations(range(profile.m)):
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
    are disjoint.

    A library `Rule` passes by its form, once the walk's first errors are
    raised: joint scores are the sums of the two sides', so the committees
    best on both sides, if any, are exactly the joint best.
    """
    if isinstance(rule, Rule):
        check_same_candidates(a, b)
        _committees(rule, a.m)
        return AxiomVerdict("consistency", True, None, 1)
    choose = as_choice_fn(rule)
    joint = add_profiles(a, b)
    left, right = choose(a), choose(b)
    if not left & right:
        return AxiomVerdict("consistency", True, None, 1)
    observed = choose(joint)
    if observed == left & right:
        return AxiomVerdict("consistency", True, None, 1)
    witness = {
        "left": a,
        "right": b,
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


def check_consistency_splits(rule, profile: Profile) -> AxiomVerdict:
    """Consistency over every non-trivial bipartition of the electorate.  A library
    `Rule` passes all 2**(n-1) - 1 by its form (see `check_consistency_pair`), once it
    raises what the first split's pair would; other rules walk them, on at most 10 voters."""
    n = profile.n_voters
    if isinstance(rule, Rule):
        if n > 1:
            _committees(rule, profile.m)
        return AxiomVerdict("consistency", True, None, 2 ** (n - 1) - 1)
    if n > 10:
        raise ValueError(f"profile has {n} voters, over the split cap 10")
    checked = 0
    voters = profile.masks
    for size in range(1, n):
        # fix the first voter on the left side so each bipartition appears once
        for rest in itertools.combinations(range(1, n), size - 1):
            left_idx = {0, *rest}
            left = Profile(profile.m, tuple(voters[i] for i in sorted(left_idx)))
            right = Profile(profile.m, tuple(voters[i] for i in range(n) if i not in left_idx))
            verdict = check_consistency_pair(rule, left, right)
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
        combined = add_profiles(scale_profile(a, lam), b)
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


def check_independence_of_losers(rule, profile: Profile) -> AxiomVerdict:
    """Winners must stay winning when voters disapprove non-members.

    For every winner this covers the product of all per-voter reductions,
    in `_reductions_for` order, counted exactly: a ballot that misses the
    winner has 2**d - 1, not 2**d, for its d droppable members.  A library
    `Rule` decides each winner, and finds its first losing reduced profile,
    by least margins (`first_losing_reduction`).  Other rules walk the
    product; a walk over IOL_EXHAUSTIVE_CAP raises CapExceeded.  `checked`
    counts reduced profiles, up to the first witness.
    """
    choose = as_choice_fn(rule)
    base = choose(profile)
    checked = 0
    for committee in sorted(base):
        own = ballot_mask(committee)
        total = math.prod(2 ** (ballot & ~own).bit_count() - (0 if ballot & own else 1) for ballot in profile.masks)
        if isinstance(rule, Rule):
            found = first_losing_reduction(rule, profile, committee)
        else:
            cap = rules.IOL_EXHAUSTIVE_CAP
            if total > cap:
                raise CapExceeded(f"{total} reduced profiles for committee {committee}, over cap {cap}")
            combos = itertools.product(*(_reductions_for(ballot, own) for ballot in profile.masks))
            walked = ((i, Profile(profile.m, combo)) for i, combo in enumerate(combos, 1))
            found = next(((i, reduced) for i, reduced in walked if committee not in choose(reduced)), None)
        if found is None:
            checked += total
            continue
        position, reduced = found
        witness = {
            "profile": profile,
            "reduced_profile": reduced,
            "committee": committee,
            "choice_set": base,
            "reduced_choice_set": choose(reduced),
        }
        return fail("independence-of-losers", witness, choose, checked + position, _replay_iol)
    return AxiomVerdict("independence-of-losers", True, None, checked)


def _replay_iol(w, choose):
    profile, reduced, committee = w["profile"], w["reduced_profile"], w["committee"]
    if profile.n_voters != reduced.n_voters:
        return False
    own = ballot_mask(committee)
    for full, cut in zip(profile.masks, reduced.masks):
        if cut & ~full or full & own != cut & own:
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
class Axiom:
    """One axiom: its names, what it is checked on, and how.

    `checker` takes the rule and `arity` profiles (continuity's also its
    `lambda_cap`); `domain`, when set, says which profiles the axiom
    applies to at all.
    """

    name: str
    aliases: tuple[str, ...]
    arity: int
    domain: Callable[[Profile], bool] | None
    checker: Callable[..., AxiomVerdict]
    replay: Replayer

    @property
    def check(self) -> Callable[..., AxiomVerdict]:
        """The checker as its module holds it now, so a wrapper installed there is what runs."""
        return getattr(inspect.getmodule(self.checker), self.checker.__name__)


_party_list = partylist.is_party_list

AXIOMS: tuple[Axiom, ...] = (
    Axiom("anonymity", (), 1, None, check_anonymity, _replay_anonymity),
    Axiom("neutrality", (), 1, None, check_neutrality, _replay_neutrality),
    Axiom("consistency", (), 2, None, check_consistency_pair, _replay_consistency),
    Axiom("continuity", (), 2, None, check_continuity, _replay_continuity),
    Axiom("weak-efficiency", (), 1, None, check_weak_efficiency, _replay_weak_efficiency),
    Axiom("independence-of-losers", ("iol",), 1, None, check_independence_of_losers, _replay_iol),
    Axiom("choice-set-convexity", ("convexity",), 1, None, check_choice_set_convexity, _replay_convexity),
    Axiom("excellence", (), 1, _party_list, partylist.check_excellence, partylist.replay_excellence),
    Axiom("party-proportionality", ("party-prop",), 1, _party_list,
          partylist.check_party_proportionality, partylist.replay_party_proportionality),
    Axiom("aversion-unanimous", ("aversion",), 1, _party_list,
          partylist.check_aversion_unanimous, partylist.replay_aversion_unanimous),
    Axiom("msav-threshold", (), 1, _party_list, partylist.check_msav_threshold, partylist.replay_msav_threshold),
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
