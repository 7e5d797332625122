"""Party-list profiles and the axioms that single out AV, PAV, and SAV.

A profile is party-list when its distinct ballots are pairwise disjoint;
the parties are those ballots, with candidates nobody approves grouped into
singleton parties of count zero so that the parties always partition the
candidates.  The three checkers below decide, for a concrete rule and
profile, the excellence criterion, party-proportionality, and aversion to
unanimous committees, plus the relaxed unanimity threshold that singles out
modified SAV.  The generators build the exact profile families from which
the separating instances for wrong scoring parameters are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .profiles import Profile, ballot_mask, check_committee_size, format_profile, mask_ballot
from .verdict import AxiomVerdict, as_choice_fn, fail


class NotPartyListError(ValueError):
    pass


@dataclass(frozen=True)
class PartyListStructure:
    """Disjoint parties covering all candidates, with per-party supporter counts."""

    parties: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.parties) != len(self.counts):
            raise ValueError("need one count per party")
        seen: set[int] = set()
        for party in self.parties:
            if not party:
                raise ValueError("parties must be non-empty")
            if seen & set(party):
                raise ValueError("parties must be disjoint")
            seen |= set(party)

    def ratio(self, index: int) -> Fraction:
        """Average voters represented per member: n_j / |P_j|."""
        return Fraction(self.counts[index], len(self.parties[index]))

    def singleton_indices(self) -> list[int]:
        return [i for i, party in enumerate(self.parties) if len(party) == 1]


def detect_party_structure(profile: Profile) -> PartyListStructure | None:
    """The party structure of a profile, or None if two distinct ballots overlap.

    Supported parties are exactly the distinct ballots; unapproved candidates
    are completed into singleton parties with count zero, so the parties
    partition the candidate set.
    """
    counts = dict(profile.terms)
    covered = 0
    for mask in counts:
        if covered & mask:  # some candidate is on two distinct ballots
            return None
        covered |= mask
    supported = [tuple(sorted(mask_ballot(mask))) for mask in counts]
    parties = sorted(supported + [(c,) for c in range(profile.m) if not covered >> c & 1])
    return PartyListStructure(tuple(parties), tuple(counts.get(ballot_mask(p), 0) for p in parties))


def require_party_structure(profile: Profile) -> PartyListStructure:
    structure = detect_party_structure(profile)
    if structure is None:
        raise NotPartyListError("profile is not party-list: two distinct ballots overlap")
    return structure


def is_party_list(profile: Profile) -> bool:
    return detect_party_structure(profile) is not None


def format_with_parties(profile: Profile) -> str:
    """Core text format with the party structure appended as comment lines."""
    structure = require_party_structure(profile)
    text = format_profile(profile)
    for party, count in zip(structure.parties, structure.counts):
        text += f"# party {' '.join(str(c) for c in party)} n={count}\n"
    return text


def _supporters(structure: PartyListStructure, index: int) -> int:
    return structure.counts[index]


def _check_party_order(axiom: str, weight, rule, profile: Profile) -> AxiomVerdict:
    """A fully elected party may not weigh strictly less than a party that is
    not fully elected, parties weighed by `weight(structure, index)`."""
    choose = as_choice_fn(rule)
    base = choose(profile)  # before the structure: a `Rule` meets the committee limit first
    structure = require_party_structure(profile)
    checked = 0
    for committee in sorted(base):
        members = set(committee)
        for i, low in enumerate(structure.parties):
            if not set(low) <= members:
                continue
            for j, high in enumerate(structure.parties):
                if weight(structure, i) >= weight(structure, j):
                    continue
                checked += 1
                if not set(high) <= members:
                    witness = {
                        "profile": profile,
                        "committee": committee,
                        "contained_party": low,
                        "better_party": high,
                    }
                    return fail(axiom, witness, choose, checked, partial(_replay_party_order, weight))
    return AxiomVerdict(axiom, True, None, checked)


def _replay_party_order(weight, w, choose):
    structure = detect_party_structure(w["profile"])
    if structure is None:
        return False
    members = set(w["committee"])
    i = structure.parties.index(w["contained_party"])
    j = structure.parties.index(w["better_party"])
    return (
        w["committee"] in choose(w["profile"])
        and weight(structure, i) < weight(structure, j)
        and set(w["contained_party"]) <= members
        and not set(w["better_party"]) <= members
    )


def check_excellence(rule, profile: Profile) -> AxiomVerdict:
    """A fully elected party may not have strictly fewer supporters than a
    party that is not fully elected."""
    return _check_party_order("excellence", _supporters, rule, profile)


def check_party_proportionality(rule, profile: Profile) -> AxiomVerdict:
    """Like excellence, but parties compare by voters represented per member."""
    return _check_party_order("party-proportionality", PartyListStructure.ratio, rule, profile)


replay_excellence = partial(_replay_party_order, _supporters)
replay_party_proportionality = partial(_replay_party_order, PartyListStructure.ratio)


def check_aversion_unanimous(rule, profile: Profile) -> AxiomVerdict:
    """If one party holds every winning committee, each of its members must
    represent strictly more voters than any other singleton party has."""
    choose = as_choice_fn(rule)
    base = choose(profile)  # before the structure: a `Rule` meets the committee limit first
    structure = require_party_structure(profile)
    checked = 0
    for i, party in enumerate(structure.parties):
        if not all(set(w) <= set(party) for w in base):
            continue
        for j in structure.singleton_indices():
            if j == i:
                continue
            checked += 1
            if structure.ratio(i) <= structure.counts[j]:
                witness = {
                    "profile": profile,
                    "unanimous_party": party,
                    "singleton_party": structure.parties[j],
                }
                return fail("aversion-unanimous", witness, choose, checked, replay_aversion_unanimous)
    return AxiomVerdict("aversion-unanimous", True, None, checked)


def replay_aversion_unanimous(w, choose):
    structure = detect_party_structure(w["profile"])
    if structure is None:
        return False
    i = structure.parties.index(w["unanimous_party"])
    j = structure.parties.index(w["singleton_party"])
    if len(structure.parties[j]) != 1:
        return False
    base = choose(w["profile"])
    return (
        all(set(committee) <= set(w["unanimous_party"]) for committee in base)
        and structure.ratio(i) <= structure.counts[j]
    )


def _msav_threshold(structure: PartyListStructure, i: int, k: int) -> bool:
    """Every other singleton party has fewer than n_i / k supporters."""
    return all(
        structure.counts[j] < Fraction(structure.counts[i], k)
        for j in structure.singleton_indices()
        if j != i
    )


def check_msav_threshold(rule, profile: Profile) -> AxiomVerdict:
    """The relaxed unanimity threshold: one party holds every winning
    committee exactly when each elected member would represent more voters
    than any singleton party has (n_j < n_i/k for all singletons).

    Decidable only on its natural domain: one party large enough to fill the
    committee, all rivals singletons.  Other profiles pass vacuously.
    """
    choose = as_choice_fn(rule)
    base = choose(profile)  # before the structure: a `Rule` meets the committee limit first
    if not base:
        raise ValueError("msav-threshold reads k off the chosen committees, and none was chosen")
    k = len(next(iter(base)))
    structure = require_party_structure(profile)
    large = [i for i, p in enumerate(structure.parties) if len(p) >= 2]
    if len(large) != 1 or len(structure.parties[large[0]]) < k:
        return AxiomVerdict("msav-threshold", True, None, 0)
    i = large[0]
    unanimous = all(set(w) <= set(structure.parties[i]) for w in base)
    threshold = _msav_threshold(structure, i, k)
    if unanimous == threshold:
        return AxiomVerdict("msav-threshold", True, None, 1)
    witness = {
        "profile": profile,
        "party": structure.parties[i],
        "unanimous": unanimous,
        "threshold": threshold,
        "k": k,
    }
    return fail("msav-threshold", witness, choose, 1, replay_msav_threshold)


def replay_msav_threshold(w, choose):
    structure = detect_party_structure(w["profile"])
    if structure is None:
        return False
    i = structure.parties.index(w["party"])
    base = choose(w["profile"])
    unanimous = all(set(committee) <= set(w["party"]) for committee in base)
    return unanimous != _msav_threshold(structure, i, w["k"])


# --- proof-construction profile generators ---------------------------------


def _witness_profile(family: str, l: int, t: int, k: int, m: int, case: str, party_voters: int) -> Profile:
    """`party_voters` voters approve the party {0..l-1}; every other candidate
    is approved alone by t+1 (high) or t-1 (low) voters.  Thiele witnesses
    take 2 <= l <= k < m, ballot-size witnesses 2 <= l <= m-1."""
    l_max, l_bound = (k, "k") if family == "thiele" else (m - 1, "m-1")
    if not 2 <= l <= l_max:
        raise ValueError(f"need 2 <= l <= {l_bound}")
    if t < 2:
        raise ValueError("need t >= 2")
    if family == "thiele":
        check_committee_size(m, k)
    if case not in ("high", "low"):
        raise ValueError("case must be 'high' or 'low'")
    ballots = [frozenset(range(l))] * party_voters
    for c in range(l, m):
        ballots.extend([frozenset({c})] * (t + 1 if case == "high" else t - 1))
    return Profile.from_ballots(m, ballots)


def gen_excellence_witness_profile(l: int, t: int, k: int, m: int, case: str) -> Profile:
    """t voters approve the party {0..l-1}; every other candidate is uniquely
    approved by t+1 (high) or t-1 (low) voters.  Any Thiele rule with
    s(l) != l*s(1) elects either the whole party or never the whole party on
    one of the two cases, breaking the excellence criterion."""
    return _witness_profile("thiele", l, t, k, m, case, t)


def gen_pav_witness_profile(l: int, t: int, k: int, m: int, case: str) -> Profile:
    """l*t voters approve the party {0..l-1}; singleton parties get t+1 (high)
    or t-1 (low) voters.  Falsifies party-proportionality for any Thiele rule
    whose s(l) is not the l-th harmonic number (given t*l*delta > 1)."""
    return _witness_profile("thiele", l, t, k, m, case, l * t)


def gen_sav_witness_profile(l: int, t: int, k: int, m: int, case: str) -> Profile:
    """l*t voters approve the party {0..l-1}; each outside candidate gets t+1
    (high) or t-1 (low) voters.  Falsifies party-proportionality or aversion
    to unanimous committees for any ballot-size weighting with alpha_l != 1/l."""
    return _witness_profile("bswav", l, t, k, m, case, l * t)
