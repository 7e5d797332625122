"""Bounded exhaustive search for axiom violations, and the separation suite.

Profiles are streamed as multisets of ballots, optionally reduced to one
representative per candidate-renaming orbit, in a fixed deterministic order:
voter count ascending, then candidate count, then the multiset as the sorted
tuple of its ballots' positions in `all_ballots(m)`.  "First witness"
therefore means first in this stream order, and an exhausted search reports
an exact, reproducible instance count.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from math import comb, factorial
from typing import Callable, Iterator

from . import axioms
from .axioms import AxiomVerdict, replay
from .profiles import ChoiceSet, Profile, _ballot_positions, ballot_permutation_tables
from .rules import NAMED_RULES, _scores, named_rule, thiele_rule

MAX_SEARCH_M = 6
MAX_SEARCH_N = 6

# the rules `search` takes by name: the library rules and one negative control
SEARCH_RULES = (*NAMED_RULES, "min-approval")

# draws per winner when an exhaustive walk is over its cap and is sampled instead
FALLBACK_SAMPLES = 200


@dataclass(frozen=True)
class SearchBounds:
    m_max: int = 4
    k_set: tuple[int, ...] = (1, 2, 3)
    n_max: int = 2
    lambda_cap: int = 64

    def __post_init__(self):
        if not 2 <= self.m_max <= MAX_SEARCH_M:
            raise ValueError(f"m_max must lie in 2..{MAX_SEARCH_M}")
        if not 1 <= self.n_max <= MAX_SEARCH_N:
            raise ValueError(f"n_max must lie in 1..{MAX_SEARCH_N}")
        if not self.k_set or any(k < 1 for k in self.k_set):
            raise ValueError("k_set must contain positive sizes")
        if min(self.k_set) > self.m_max - 1:
            # committees have size k <= m - 1, so no instance would be searched
            raise ValueError(f"k_set {list(self.k_set)} needs m_max of at least {min(self.k_set) + 1}")


# A canonical space with at most this many representatives is kept, as its built
# profiles, once a walk of it has run to the end, and replayed to every later walk
# for the life of the process.  That covers every space up to (5, 5) = 4,571 and
# (6, 4) = 2,864; (5, 6) = 22,952, (6, 5) = 25,326 and (6, 6) = 223,034 are
# walked each time.  A kept profile with its kernel terms took 350 B at (4, 3)
# to 760 B at (5, 5) (CPython 3.11, tracemalloc), and all 27 spaces that can be
# kept hold 12,555 profiles together, under 10 MB.
MAX_KEPT_PROFILES = 8192

_kept: dict[tuple[int, int], tuple[Profile, ...]] = {}


def enumerate_profiles(m: int, n: int, canonical: bool = True) -> Iterator[Profile]:
    """All multisets of n non-empty ballots over m candidates, in stream order.

    With canonical=True only one representative per candidate-permutation
    orbit is yielded: the profile whose vector is its own canonical form.
    A multiset from `combinations_with_replacement` is a sorted tuple of
    positions in :func:`all_ballots`, and it is canonical iff no candidate
    permutation's ballot table maps it to a lexicographically greater sorted
    tuple (see :func:`canonical_form`).  The first walk of a space pays at
    most m! - 1 table lookups of n entries with a sort each per multiset,
    stopping at the first table that rejects it, and builds only the
    accepted ones.

    A walk that runs to the end keeps the space's representatives, the same
    `Profile` objects in the same order, for the life of the process if
    there are at most MAX_KEPT_PROFILES of them; every later canonical walk
    of that space replays them without a lookup.  A walk stopped early (a
    search that finds a witness) keeps nothing, and larger spaces are
    walked afresh each time.  canonical=False always walks.
    """
    if not 2 <= m <= MAX_SEARCH_M:
        raise ValueError(f"m must lie in 2..{MAX_SEARCH_M}")
    if not 1 <= n <= MAX_SEARCH_N:
        raise ValueError(f"n must lie in 1..{MAX_SEARCH_N}")
    if canonical and (m, n) in _kept:
        yield from _kept[m, n]
        return
    ballots = _ballot_positions(m)[0]
    tables = ballot_permutation_tables(m) if canonical else ()
    # every orbit holds at most m! multisets, so more than MAX_KEPT_PROFILES * m!
    # multisets make more representatives than are kept: collect none of them
    keep = canonical and comb(len(ballots) + n - 1, n) <= MAX_KEPT_PROFILES * factorial(m)
    walked: list[Profile] = []
    for combo in itertools.combinations_with_replacement(range(len(ballots)), n):
        combo_list = list(combo)
        if any(sorted(map(table.__getitem__, combo)) > combo_list for table in tables):
            continue
        profile = Profile(m, tuple(map(ballots.__getitem__, combo)))
        if keep:
            walked.append(profile)
            if len(walked) > MAX_KEPT_PROFILES:
                keep, walked = False, []
        yield profile
    if keep:
        _kept[m, n] = tuple(walked)


RuleFactory = Callable[[int, int], object]


def library_factory(name: str) -> RuleFactory:
    """Factory building the named search rule for each (m, k) the search visits;
    the name is checked here, ignoring case, before any rule is built."""
    if name.lower() not in SEARCH_RULES:
        raise ValueError(f"unknown rule {name!r}; expected one of {', '.join(SEARCH_RULES)}")
    if name.lower() == "min-approval":
        return lambda m, k: min_approval_rule(k)
    return lambda m, k: named_rule(name, k, m)


def min_approval_rule(k: int):
    """Negative control: elects the k candidates with minimal approval scores,
    the committees of least AV score.  A plain choice function, not a `Rule`,
    so that the checkers' choice-function paths run; k must be at most m - 1."""
    av = thiele_rule("av", range(k + 1))

    def choose(profile: Profile) -> ChoiceSet:
        committees, _, scores = _scores(av, profile.m, profile.terms)
        least = min(scores)
        return frozenset(w for w, score in zip(committees, scores) if score == least)

    return choose


@dataclass
class SearchResult:
    rule: str
    axiom: str
    found: bool
    verdict: AxiomVerdict | None
    instances: int


def _check(check, rule_obj, profiles: tuple[Profile, ...]) -> AxiomVerdict:
    """`check`, a checker bound by `Axiom.bind`, on the rule and the profiles."""
    try:
        return check(rule_obj, *profiles)
    except axioms.CapExceeded:
        # documented fallback: an exhaustive walk over its cap (independence
        # of losers at larger m, n) is sampled with the checker's seed instead
        return check(rule_obj, *profiles, mode="sample", count=FALLBACK_SAMPLES)


def _confirm(verdict: AxiomVerdict, rule_obj) -> None:
    if not replay(verdict, rule_obj):
        raise RuntimeError(f"{verdict.axiom} witness does not replay against the rule")


def _pairs(m: int, n: int) -> Iterator[tuple[Profile, Profile]]:
    # `product` reads each side's whole stream first, so a kept space is replayed once per side
    for n_left in range(1, n):
        yield from itertools.product(enumerate_profiles(m, n_left), enumerate_profiles(m, n - n_left))


def _instances(arity: int, bounds: SearchBounds) -> Iterator[tuple[int, int, tuple[Profile, ...]]]:
    """(m, k, profiles) in stream order: single profiles by voter count, or
    pairs of profiles by their total voter count and then the left count."""
    for n in range(arity, bounds.n_max + 1):
        for m in range(2, bounds.m_max + 1):
            ks = [k for k in bounds.k_set if k <= m - 1]
            if not ks:
                continue
            groups = ((p,) for p in enumerate_profiles(m, n)) if arity == 1 else _pairs(m, n)
            for profiles in groups:
                for k in ks:
                    yield m, k, profiles


def find_counterexample(rule: str | RuleFactory, axiom: str, bounds: SearchBounds) -> SearchResult:
    """First witness in stream order, or exhausted with the instance count.

    `rule` is a library rule name or a factory (m, k) -> evaluable rule,
    called once per (m, k).  Instances outside the axiom's domain are
    skipped and not counted.  A returned witness has always been
    independently re-confirmed by replaying it against the rule.

    Profiles are searched only up to candidate renaming, and each as a
    multiset of ballots, which is sound only for neutral and anonymous
    rules.  Every library and inline rule is both; a custom factory may not
    be, and then a violation outside the representatives goes unseen.

    What does not depend on the rule is reused within the process: a space
    walked to the end is kept (see :func:`enumerate_profiles`) with each
    profile's kernel terms, counted when it was built, so later searches,
    other k and every checker call on a kept profile pay for neither again.
    A search that stops at a witness keeps nothing of the space it stopped
    in, and the first search in a process walks every space it reaches.
    """
    spec = axioms.lookup(axiom)
    factory = library_factory(rule) if isinstance(rule, str) else rule
    name = rule if isinstance(rule, str) else getattr(rule, "__name__", "custom")
    check = spec.bind({"lambda_cap": bounds.lambda_cap})
    rules: dict[tuple[int, int], object] = {}
    instances = 0
    for m, k, profiles in _instances(spec.arity, bounds):
        if (m, k) not in rules:
            rules[m, k] = factory(m, k)
        rule_obj = rules[m, k]
        if spec.domain is not None and not spec.domain(profiles[0]):
            continue
        verdict = _check(check, rule_obj, profiles)
        instances += 1
        if not verdict.passed:
            _confirm(verdict, rule_obj)
            return SearchResult(name, spec.name, True, verdict, instances)
    return SearchResult(name, spec.name, False, None, instances)


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
        return {"entries": [asdict(e) for e in self.entries], "notes": self.notes, "ok": self.ok}


def unanimity_threshold_instance() -> Profile:
    """Six voters approve the three-member party {0,1,2}; two approve {3}."""
    return Profile.from_ballots(4, [frozenset({0, 1, 2})] * 6 + [frozenset({3})] * 2)


def _witness_summary(verdict: AxiomVerdict) -> str:
    witness = verdict.witness or {}
    for key in ("profile", "joint", "left"):
        if key in witness:
            ballots = ";".join(",".join(map(str, sorted(ballot))) for ballot in witness[key].ballot_list())
            return f"witness ballots [{ballots}]"
    return "witness found"


def separation_suite(factories: dict[str, RuleFactory] | None = None) -> SeparationReport:
    """Fixed battery reproducing the separations between the rule families.

    Each entry records an expected and an observed outcome; a mismatch makes
    the report (and the CLI) fail, it never raises.
    """
    lib: dict[str, RuleFactory] = {name: library_factory(name) for name in SEARCH_RULES}
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
        verdict = _check(axioms.lookup(axiom).bind({}), rule_obj, (profile,))
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
