"""Bounded exhaustive search for axiom violations, and the separation suite.

Profiles are streamed as multisets of ballots, optionally reduced to one
representative per candidate-renaming orbit, in a fixed deterministic order:
voter count ascending, then candidate count, then the sorted ballot-index
multiset.  "First witness" therefore means first in this stream order, and
an exhausted search reports an exact, reproducible instance count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import axioms, partylist
from .axioms import AxiomVerdict, replay
from .profiles import ChoiceSet, Committee, Profile, canonical_form, index_ballot, num_ballots, profile_to_vector
from .rules import Rule, continuity_lambda_bound, named_rule

MAX_SEARCH_M = 6
MAX_SEARCH_N = 6

SEARCHABLE_AXIOMS = (
    "anonymity",
    "neutrality",
    "consistency",
    "continuity",
    "weak-efficiency",
    "independence-of-losers",
    "choice-set-convexity",
    "excellence",
    "party-proportionality",
    "aversion-unanimous",
    "msav-threshold",
)

PAIR_AXIOMS = ("consistency", "continuity")
PARTY_AXIOMS = ("excellence", "party-proportionality", "aversion-unanimous", "msav-threshold")


@dataclass(frozen=True)
class SearchBounds:
    m_max: int = 4
    k_set: tuple[int, ...] = (1, 2, 3)
    n_max: int = 2
    lambda_cap: int = 64
    iol_cap: int = axioms.IOL_EXHAUSTIVE_CAP

    def __post_init__(self):
        if not 2 <= self.m_max <= MAX_SEARCH_M:
            raise ValueError(f"m_max must lie in 2..{MAX_SEARCH_M}")
        if not 1 <= self.n_max <= MAX_SEARCH_N:
            raise ValueError(f"n_max must lie in 1..{MAX_SEARCH_N}")
        if not self.k_set or any(k < 1 for k in self.k_set):
            raise ValueError("k_set must contain positive sizes")


def enumerate_profiles(m: int, n: int, canonical: bool = True) -> Iterator[Profile]:
    """All multisets of n non-empty ballots over m candidates, in stream order.

    With canonical=True only one representative per candidate-permutation
    orbit is yielded (the profile whose vector is its own canonical form).
    """
    if not 2 <= m <= MAX_SEARCH_M:
        raise ValueError(f"m must lie in 2..{MAX_SEARCH_M}")
    if not 1 <= n <= MAX_SEARCH_N:
        raise ValueError(f"n must lie in 1..{MAX_SEARCH_N}")
    ballots = [index_ballot(i, m) for i in range(num_ballots(m))]
    for combo in itertools.combinations_with_replacement(range(len(ballots)), n):
        profile = Profile.from_ballots(m, [ballots[i] for i in combo])
        if canonical and canonical_form(profile) != profile_to_vector(profile):
            continue
        yield profile


RuleFactory = Callable[[int, int], object]


def library_factory(name: str) -> RuleFactory:
    """Factory building the named library rule for each (m, k) the search visits."""
    if name == "min-approval":
        return lambda m, k: min_approval_rule(k)
    return lambda m, k: named_rule(name, k, m)


def min_approval_rule(k: int):
    """Negative control: elects the k candidates with minimal approval scores."""

    def choose(profile: Profile) -> ChoiceSet:
        tallies = [0] * profile.m
        for _, ballot in profile.ballots:
            for c in ballot:
                tallies[c] += 1
        best: int | None = None
        arg: list[Committee] = []
        for committee in itertools.combinations(range(profile.m), k):
            total = -sum(tallies[c] for c in committee)
            if best is None or total > best:
                best, arg = total, [committee]
            elif total == best:
                arg.append(committee)
        return frozenset(arg)

    return choose


@dataclass
class SearchResult:
    rule: str
    axiom: str
    found: bool
    verdict: AxiomVerdict | None
    instances: int


def _check_instance(rule_obj, axiom: str, profile: Profile, k: int, bounds: SearchBounds) -> AxiomVerdict | None:
    """Run one checker; None means the axiom does not apply to this instance."""
    if axiom == "anonymity":
        return axioms.check_anonymity(rule_obj, profile)
    if axiom == "neutrality":
        return axioms.check_neutrality(rule_obj, profile)
    if axiom == "weak-efficiency":
        return axioms.check_weak_efficiency(rule_obj, profile)
    if axiom == "independence-of-losers":
        try:
            return axioms.check_independence_of_losers(rule_obj, profile, cap=bounds.iol_cap)
        except ValueError:
            # documented fallback when the reduction product overflows the cap
            return axioms.check_independence_of_losers(rule_obj, profile, mode="sample", seed=0)
    if axiom == "choice-set-convexity":
        return axioms.check_choice_set_convexity(rule_obj, profile)
    if axiom in PARTY_AXIOMS:
        if partylist.detect_party_structure(profile) is None:
            return None
        if axiom == "excellence":
            return partylist.check_excellence(rule_obj, profile)
        if axiom == "party-proportionality":
            return partylist.check_party_proportionality(rule_obj, profile)
        if axiom == "aversion-unanimous":
            return partylist.check_aversion_unanimous(rule_obj, profile)
        return partylist.check_msav_threshold(rule_obj, profile, k)
    raise ValueError(f"unknown axiom {axiom!r}")


def _check_pair(rule_obj, axiom: str, a: Profile, b: Profile, bounds: SearchBounds) -> AxiomVerdict:
    if axiom == "consistency":
        return axioms.check_consistency_pair(rule_obj, a, b)
    # continuity: a violation here means no lambda within the cap, reported
    # as not-found rather than asserted as a true failure
    cap = bounds.lambda_cap
    if isinstance(rule_obj, Rule):
        cap = min(cap, continuity_lambda_bound(rule_obj, a, b))
    lam = axioms.find_min_continuity_lambda(rule_obj, a, b, cap)
    if lam is not None:
        return AxiomVerdict("continuity", True, None, lam)
    witness = {"left": a, "right": b, "lambda_cap": cap}
    return AxiomVerdict("continuity", False, witness, cap)


def _replay_continuity(w, choose):
    return axioms.find_min_continuity_lambda(choose, w["left"], w["right"], w["lambda_cap"]) is None


axioms.REPLAYERS["continuity"] = _replay_continuity


def _confirm(verdict: AxiomVerdict, rule_obj) -> None:
    if not replay(verdict, rule_obj):
        raise RuntimeError(f"{verdict.axiom} witness does not replay against the rule")


def find_counterexample(rule: str | RuleFactory, axiom: str, bounds: SearchBounds) -> SearchResult:
    """First witness in stream order, or exhausted with the instance count.

    `rule` is a library rule name or a factory (m, k) -> evaluable rule.
    A returned witness has always been independently re-confirmed by
    replaying it against the rule.
    """
    if axiom not in SEARCHABLE_AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; expected one of {SEARCHABLE_AXIOMS}")
    factory = library_factory(rule) if isinstance(rule, str) else rule
    name = rule if isinstance(rule, str) else getattr(rule, "__name__", "custom")
    instances = 0

    if axiom in PAIR_AXIOMS:
        for total in range(2, bounds.n_max + 1):
            for m in range(2, bounds.m_max + 1):
                ks = [k for k in bounds.k_set if k <= m - 1]
                if not ks:
                    continue
                for n_left in range(1, total):
                    lefts = list(enumerate_profiles(m, n_left))
                    rights = list(enumerate_profiles(m, total - n_left))
                    for a, b in itertools.product(lefts, rights):
                        for k in ks:
                            rule_obj = factory(m, k)
                            verdict = _check_pair(rule_obj, axiom, a, b, bounds)
                            instances += 1
                            if not verdict.passed:
                                _confirm(verdict, rule_obj)
                                return SearchResult(name, axiom, True, verdict, instances)
        return SearchResult(name, axiom, False, None, instances)

    for n in range(1, bounds.n_max + 1):
        for m in range(2, bounds.m_max + 1):
            ks = [k for k in bounds.k_set if k <= m - 1]
            if not ks:
                continue
            for profile in enumerate_profiles(m, n):
                for k in ks:
                    rule_obj = factory(m, k)
                    verdict = _check_instance(rule_obj, axiom, profile, k, bounds)
                    if verdict is None:
                        continue
                    instances += 1
                    if not verdict.passed:
                        _confirm(verdict, rule_obj)
                        return SearchResult(name, axiom, True, verdict, instances)
    return SearchResult(name, axiom, False, None, instances)


# --- separation suite -------------------------------------------------------


@dataclass
class SuiteEntry:
    rule: str
    axiom: str
    scope: str
    expected: str  # "violation" or "none"
    observed: str
    detail: str
    degenerate: bool = False

    @property
    def ok(self) -> bool:
        return self.expected == self.observed


@dataclass
class SeparationReport:
    entries: list[SuiteEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def render(self) -> str:
        rows = [("rule", "axiom", "scope", "expected", "observed", "detail")]
        for e in self.entries:
            tag = " (degenerate)" if e.degenerate else ""
            rows.append((e.rule, e.axiom, e.scope, e.expected, e.observed, e.detail + tag))
        widths = [max(len(r[i]) for r in rows) for i in range(6)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
        lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"result: {'all expectations met' if self.ok else 'MISMATCH'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "rule": e.rule,
                    "axiom": e.axiom,
                    "scope": e.scope,
                    "expected": e.expected,
                    "observed": e.observed,
                    "detail": e.detail,
                    "degenerate": e.degenerate,
                }
                for e in self.entries
            ],
            "notes": self.notes,
            "ok": self.ok,
        }


def unanimity_threshold_instance() -> Profile:
    """Six voters approve the three-member party {0,1,2}; two approve {3}."""
    return Profile.from_ballots(4, [frozenset({0, 1, 2})] * 6 + [frozenset({3})] * 2)


def _witness_summary(verdict: AxiomVerdict) -> str:
    witness = verdict.witness or {}
    for key in ("profile", "joint", "left"):
        if key in witness:
            ballots = ";".join(
                ",".join(str(c) for c in sorted(ballot)) for _, ballot in witness[key].ballots
            )
            return f"witness ballots [{ballots}]"
    return "witness found"


def separation_suite(factories: dict[str, RuleFactory] | None = None) -> SeparationReport:
    """Fixed battery reproducing the separations between the rule families.

    Each entry records an expected and an observed outcome; a mismatch makes
    the report (and the CLI) fail, it never raises.
    """
    lib: dict[str, RuleFactory] = {
        name: library_factory(name) for name in ("av", "pav", "ccav", "sav", "msav", "triv")
    }
    lib["min-approval"] = library_factory("min-approval")
    if factories:
        lib.update(factories)

    grid = SearchBounds(m_max=4, k_set=(1, 2, 3), n_max=2)
    iol_grid = SearchBounds(m_max=3, k_set=(1,), n_max=3)
    report = SeparationReport()

    def search_entry(rule: str, axiom: str, bounds: SearchBounds, expected: str, degenerate=False):
        result = find_counterexample(lib[rule], axiom, bounds)
        observed = "violation" if result.found else "none"
        detail = _witness_summary(result.verdict) if result.found else f"exhausted {result.instances} instances"
        scope = f"grid m<={bounds.m_max} n<={bounds.n_max} k in {list(bounds.k_set)}"
        report.entries.append(SuiteEntry(rule, axiom, scope, expected, observed, detail, degenerate))

    def instance_entry(rule: str, axiom: str, expected: str, degenerate=False):
        profile = unanimity_threshold_instance()
        rule_obj = lib[rule](profile.m, 2)
        verdict = _check_instance(rule_obj, axiom, profile, 2, grid)
        observed = "none" if verdict.passed else "violation"
        detail = "passed" if verdict.passed else _witness_summary(verdict)
        report.entries.append(
            SuiteEntry(rule, axiom, "threshold instance (k=2)", expected, observed, detail, degenerate)
        )

    search_entry("sav", "independence-of-losers", iol_grid, "violation")
    search_entry("sav", "choice-set-convexity", grid, "none")
    search_entry("sav", "weak-efficiency", grid, "none")
    search_entry("sav", "consistency", SearchBounds(m_max=3, k_set=(1, 2), n_max=2), "none")
    search_entry("pav", "choice-set-convexity", grid, "violation")
    search_entry("ccav", "choice-set-convexity", grid, "violation")
    search_entry("pav", "independence-of-losers", grid, "none")
    search_entry("ccav", "independence-of-losers", grid, "none")
    search_entry("av", "independence-of-losers", grid, "none")
    search_entry("av", "choice-set-convexity", grid, "none")
    search_entry("min-approval", "weak-efficiency", grid, "violation")
    search_entry("triv", "independence-of-losers", grid, "none", degenerate=True)
    search_entry("triv", "choice-set-convexity", grid, "none", degenerate=True)

    instance_entry("pav", "aversion-unanimous", "violation")
    instance_entry("sav", "aversion-unanimous", "none")
    instance_entry("msav", "aversion-unanimous", "violation")
    instance_entry("msav", "msav-threshold", "none")

    report.notes.append(
        "triv entries are degenerate: the trivial rule ties every committee, so most axioms hold vacuously"
    )
    report.notes.append(
        "uniqueness of av as the non-trivial rule in both families (k <= m-2) quantifies over all rules "
        "and cannot be established by bounded search; only the library rules' memberships are verified"
    )
    return report
