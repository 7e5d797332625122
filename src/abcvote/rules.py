"""Committee scoring rules with exact rational parameters.

Three parameterizations are supported: a general scoring table s(x, y) over
(intersection size, ballot size), Thiele scoring vectors s(0..k) that ignore
the ballot size, and ballot-size weights alpha(1..m) whose score is additive
over elected candidates.  Winning committees are the exact argmax over the
full committee enumeration; scores are never rounded, so ties that hinge on
identities like harmonic sums come out exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .profiles import (
    ChoiceSet,
    Committee,
    Profile,
    ProfileVector,
    enumerate_committees,
    index_ballot,
)

# Guards runaway winner enumerations; desk-scale inputs stay far below it.
DEFAULT_M_CAP = 24

NAMED_RULES = ("av", "pav", "ccav", "sav", "msav", "triv")


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def active_range(k: int, m: int, y: int) -> range:
    """Intersection sizes that a size-y ballot can realize against a size-k committee."""
    return range(max(0, k + y - m), min(k, y) + 1)


@dataclass(frozen=True)
class ThieleScore:
    """Non-decreasing scores s(0..k) with s(0) = 0; ballot size is ignored."""

    k: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.k + 1:
            raise ValueError(f"need {self.k + 1} values for k={self.k}")
        if self.values[0] != 0:
            raise ValueError("Thiele scores must have s(0) = 0")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("Thiele scores must be non-decreasing")

    def score(self, x: int, y: int) -> Fraction:
        return self.values[x]


@dataclass(frozen=True)
class BswavWeights:
    """Ballot-size weights alpha(1..m); score is alpha_{|A|} * |A ∩ W|.

    alpha[y-1] weights ballots of size y.  The weight for full ballots
    (y = m) is semantically inert: such ballots add the same constant to
    every committee's score.
    """

    m: int
    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.alpha) != self.m:
            raise ValueError(f"need {self.m} weights for m={self.m}")
        if any(a < 0 for a in self.alpha):
            raise ValueError("weights must be non-negative")

    def score(self, x: int, y: int) -> Fraction:
        return self.alpha[y - 1] * x


@dataclass(frozen=True)
class AbcScoringTable:
    """General scoring table; values[x][y-1] is s(x, y).

    Monotonicity in x is required only on the active range of each ballot
    size; entries outside it are stored but never read when scoring.
    """

    k: int
    m: int
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.values) != self.k + 1 or any(len(row) != self.m for row in self.values):
            raise ValueError(f"table must be ({self.k + 1}) x ({self.m})")
        for y in range(1, self.m + 1):
            active = list(active_range(self.k, self.m, y))
            for x1, x2 in zip(active, active[1:]):
                if self.values[x2][y - 1] < self.values[x1][y - 1]:
                    raise ValueError(f"s(x, {y}) must be non-decreasing on the active range")

    def score(self, x: int, y: int) -> Fraction:
        return self.values[x][y - 1]


Scoring = ThieleScore | BswavWeights | AbcScoringTable


@dataclass(frozen=True)
class Rule:
    """A scoring rule bundled with its display name and committee size."""

    name: str
    k: int
    scoring: Scoring

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("committee size must be at least 1")
        if isinstance(self.scoring, (ThieleScore, AbcScoringTable)) and self.scoring.k != self.k:
            raise ValueError("rule k does not match its scoring parameters")
        if isinstance(self.scoring, (BswavWeights, AbcScoringTable)) and self.k > self.scoring.m - 1:
            raise ValueError("committee size must be at most m-1")

    def score(self, x: int, y: int) -> Fraction:
        return self.scoring.score(x, y)


def thiele_rule(name: str, values) -> Rule:
    values = tuple(Fraction(v) for v in values)
    return Rule(name, len(values) - 1, ThieleScore(len(values) - 1, values))


def bswav_rule(name: str, k: int, alpha) -> Rule:
    alpha = tuple(Fraction(a) for a in alpha)
    return Rule(name, k, BswavWeights(len(alpha), alpha))


def named_rule(name: str, k: int, m: int) -> Rule:
    """Construct one of the library rules for committee size k over m candidates."""
    name = name.lower()
    if name == "av":
        return thiele_rule("av", [Fraction(x) for x in range(k + 1)])
    if name == "pav":
        values = [Fraction(0)]
        for x in range(1, k + 1):
            values.append(values[-1] + Fraction(1, x))
        return thiele_rule("pav", values)
    if name == "ccav":
        return thiele_rule("ccav", [Fraction(0)] + [Fraction(1)] * k)
    if name == "triv":
        return thiele_rule("triv", [Fraction(0)] * (k + 1))
    if name == "sav":
        return bswav_rule("sav", k, [Fraction(1, x) for x in range(1, m + 1)])
    if name == "msav":
        return bswav_rule("msav", k, [max(Fraction(1, x), Fraction(1, k)) for x in range(1, m + 1)])
    raise ValueError(f"unknown rule {name!r}; expected one of {', '.join(NAMED_RULES)}")


def parse_rule_spec(spec: str, k: int, m: int) -> Rule:
    """Parse the inline rule syntax.

    Accepts a library rule name, `thiele:<r0>,...,<rk>`, or
    `bswav:<r1>,...,<rm>`, where each value is an integer or `p/q`.
    """
    spec = spec.strip()
    if spec.lower() in NAMED_RULES:
        return named_rule(spec, k, m)
    if spec.startswith("thiele:"):
        values = [parse_rational(tok) for tok in spec[len("thiele:"):].split(",")]
        if len(values) != k + 1:
            raise ValueError(f"thiele rule for k={k} needs {k + 1} values, got {len(values)}")
        return thiele_rule(spec, values)
    if spec.startswith("bswav:"):
        alpha = [parse_rational(tok) for tok in spec[len("bswav:"):].split(",")]
        if len(alpha) != m:
            raise ValueError(f"bswav rule for m={m} needs {m} weights, got {len(alpha)}")
        return bswav_rule(spec, k, alpha)
    raise ValueError(f"cannot parse rule spec {spec!r}")


def _check_dimensions(rule: Rule, m: int) -> None:
    if isinstance(rule.scoring, (BswavWeights, AbcScoringTable)) and rule.scoring.m != m:
        raise ValueError(f"rule is parameterized for m={rule.scoring.m}, profile has m={m}")
    if rule.k > m - 1:
        raise ValueError(f"committee size {rule.k} too large for m={m}")


# ---------------------------------------------------------------------------
# The scoring kernel
#
# Every rule here is an ABC scoring rule: a committee's score is the sum over
# ballots of s(|A ∩ W|, |A|).  Ballots and committees become bitmasks,
# identical ballots merge into one (mask, integer weight) term, and the
# rule becomes the integer table T[y][x] = s(x, y) * D with D the lcm of the
# table's denominators.  A committee's score is then the integer sum of
# w * T[|A|][popcount(A & W)] over the distinct ballots, divided by D and by
# the weights' own scale: exact, with no rational arithmetic per term.  Cost
# is C(m, k) committees times the number of distinct ballots.
# ---------------------------------------------------------------------------


def _mask(members) -> int:
    mask = 0
    for c in members:
        mask |= 1 << c
    return mask


@lru_cache(maxsize=None)
def _committee_masks(m: int, k: int) -> tuple[tuple[Committee, ...], tuple[int, ...]]:
    """All size-k committees in enumerate_committees order, with their bitmasks."""
    committees = tuple(enumerate_committees(m, k))
    return committees, tuple(_mask(w) for w in committees)


@lru_cache(maxsize=256)
def _int_table(rule: Rule, m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, T) with T[y][x] = s(x, y) * D integral for ballot sizes y = 1..m."""
    rows = [[rule.score(x, y) for x in range(rule.k + 1)] for y in range(1, m + 1)]
    scale = lcm(*(value.denominator for row in rows for value in row))
    return scale, ((),) + tuple(tuple(int(value * scale) for value in row) for row in rows)


def _profile_terms(profile: Profile) -> list[tuple[int, int]]:
    """Distinct ballots of a profile as (mask, multiplicity)."""
    counts = Counter(ballot for _, ballot in profile.ballots)
    return [(_mask(ballot), count) for ballot, count in counts.items()]


def _vector_terms(vector: ProfileVector) -> tuple[int, list[tuple[int, int]]]:
    """(L, terms): the entries as (mask, entry * L), L the lcm of their denominators."""
    scale = lcm(*(value.denominator for _, value in vector.entries))
    terms = [(_mask(index_ballot(idx, vector.m)), int(value * scale)) for idx, value in vector.entries]
    return scale, terms


def _kernel(rule: Rule, m: int, terms: list[tuple[int, int]], committee_masks) -> tuple[int, list[int]]:
    """(D, scores): each committee's score times D, with D the table's scale."""
    scale, table = _int_table(rule, m)
    rows = [(mask, tuple(weight * t for t in table[mask.bit_count()])) for mask, weight in terms]
    return scale, [sum([row[(mask & cm).bit_count()] for mask, row in rows]) for cm in committee_masks]


def _profile_scores(rule: Rule, profile: Profile) -> tuple[tuple[Committee, ...], int, list[int]]:
    """(committees, D, scores) with scores[i] / D the exact score of committees[i]."""
    _check_dimensions(rule, profile.m)
    committees, masks = _committee_masks(profile.m, rule.k)
    scale, scores = _kernel(rule, profile.m, _profile_terms(profile), masks)
    return committees, scale, scores


def _vector_scores(rule: Rule, vector: ProfileVector, k: int) -> tuple[tuple[Committee, ...], int, list[int]]:
    _check_dimensions(rule, vector.m)
    if k != rule.k:
        raise ValueError(f"requested k={k} does not match rule k={rule.k}")
    committees, masks = _committee_masks(vector.m, k)
    weight_scale, terms = _vector_terms(vector)
    scale, scores = _kernel(rule, vector.m, terms, masks)
    return committees, scale * weight_scale, scores


def _argmax(committees: tuple[Committee, ...], scores: list[int]) -> ChoiceSet:
    best = max(scores)
    return frozenset(w for w, score in zip(committees, scores) if score == best)


def committee_score(rule: Rule, profile: Profile, committee: Committee | frozenset[int]) -> Fraction:
    """Exact total score of one committee: sum over voters of s(|A_i ∩ W|, |A_i|)."""
    _check_dimensions(rule, profile.m)
    members = frozenset(committee)
    if len(members) != rule.k:
        raise ValueError(f"committee size {len(members)} does not match rule k={rule.k}")
    if not all(isinstance(c, int) and 0 <= c < profile.m for c in members):
        raise ValueError(f"committee {sorted(members)} has candidates outside 0..{profile.m - 1}")
    scale, (score,) = _kernel(rule, profile.m, _profile_terms(profile), (_mask(members),))
    return Fraction(score, scale)


def committee_scores(rule: Rule, profile: Profile) -> list[tuple[Committee, Fraction]]:
    """Scores of all committees, in enumeration order."""
    committees, scale, scores = _profile_scores(rule, profile)
    return [(w, Fraction(score, scale)) for w, score in zip(committees, scores)]


def winners(rule: Rule, profile: Profile, m_cap: int = DEFAULT_M_CAP) -> ChoiceSet:
    """The full argmax set of committees; never empty, no tie-breaking."""
    if profile.m > m_cap:
        raise ValueError(f"m={profile.m} exceeds the enumeration cap {m_cap}")
    committees, _, scores = _profile_scores(rule, profile)
    return _argmax(committees, scores)


def vector_scores(rule: Rule, vector: ProfileVector, k: int) -> list[tuple[Committee, Fraction]]:
    """Scores against a rational profile vector: sum of v_l * s(|B(l) ∩ W|, |B(l)|)."""
    committees, scale, scores = _vector_scores(rule, vector, k)
    return [(w, Fraction(score, scale)) for w, score in zip(committees, scores)]


def winners_from_vector(rule: Rule, vector: ProfileVector, k: int, m_cap: int = DEFAULT_M_CAP) -> ChoiceSet:
    """Argmax over committees for a rational (possibly negative) profile vector.

    For the vector of an actual profile this agrees exactly with
    :func:`winners` on that profile.
    """
    if vector.m > m_cap:
        raise ValueError(f"m={vector.m} exceeds the enumeration cap {m_cap}")
    if not vector.entries:
        # the zero vector scores every committee 0
        return frozenset(_committee_masks(vector.m, k)[0])
    committees, _, scores = _vector_scores(rule, vector, k)
    return _argmax(committees, scores)


def continuity_lambda_bound(rule: Rule, a: Profile, b: Profile) -> int:
    """A sound (not necessarily minimal) lambda* for the continuity property.

    For every lambda >= lambda*, winners(rule, lambda*a + b) is a subset of
    winners(rule, a): scaling a's smallest winner/non-winner gap past b's
    largest score spread makes a's losers stay losers.
    """
    if a.m != b.m:
        raise ValueError("profiles must share the candidate count")
    # both score lists share the table's scale, so their ratio is exact
    _, _, scores_a = _profile_scores(rule, a)
    best_a = max(scores_a)
    loser_scores = [score for score in scores_a if score != best_a]
    if not loser_scores:
        return 1
    gap_a = best_a - max(loser_scores)
    _, _, scores_b = _profile_scores(rule, b)
    spread_b = max(scores_b) - min(scores_b)
    return 1 + -(-spread_b // gap_a)


def scaled_pair_winners(rule: Rule, a: Profile, b: Profile, lam: int) -> ChoiceSet:
    """winners(rule, lam*a + b) computed from the two score vectors.

    Committee scores are additive over voters, so the scaled profile never
    needs to be materialized; results are bit-identical to the direct path.
    """
    committees, _, scores_a = _profile_scores(rule, a)
    _, _, scores_b = _profile_scores(rule, b)
    return _argmax(committees, [lam * sa + sb for sa, sb in zip(scores_a, scores_b)])
