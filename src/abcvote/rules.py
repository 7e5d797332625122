"""Committee scoring rules with exact rational parameters.

Three parameterizations are supported: a general scoring table s(x, y) over
(intersection size, ballot size), Thiele scoring vectors s(0..k) that ignore
the ballot size, and ballot-size weights alpha(1..m) whose score is additive
over elected candidates.  Winning committees are the exact argmax over the
full committee enumeration; scores are never rounded, so ties that hinge on
identities like harmonic sums come out exactly.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import add, sub

from .profiles import (
    Ballot,
    ChoiceSet,
    Committee,
    Profile,
    ProfileVector,
    ballot_mask,
    check_committee_limit,
    check_committee_size,
    check_same_candidates,
    enumerate_committees,
    mask_ballot,
)

NAMED_RULES = ("av", "pav", "ccav", "sav", "msav", "triv")

# the most reductions `first_losing_reduction` tries for one committee past each
# voter's first, and the most reduced profiles a choice function's
# independence-of-losers walk visits
IOL_EXHAUSTIVE_CAP = 2**16


class CapExceeded(ValueError):
    """A walk, or the search for a witness, would exceed its cap."""


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    # plain ASCII digits only, as in profile files: int() would also take "+1", "1_0" and "١"
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text)
    if not match:
        raise ValueError(f"invalid rational {text!r}: expected p or p/q in plain digits")
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


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
    """Non-decreasing scores s(0..k), k = len(values) - 1, with s(0) = 0; ballot size is ignored."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 0:
            raise ValueError("Thiele scores must have s(0) = 0")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("Thiele scores must be non-decreasing")

    def score(self, x: int, y: int) -> Fraction:
        return self.values[x]


@dataclass(frozen=True)
class BswavWeights:
    """Ballot-size weights alpha(1..m), so m is len(alpha); score is alpha_{|A|} * |A ∩ W|.

    alpha[y-1] weights ballots of size y.  The weight for full ballots
    (y = m) is semantically inert: such ballots add the same constant to
    every committee's score.
    """

    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        if any(a < 0 for a in self.alpha):
            raise ValueError("weights must be non-negative")

    def score(self, x: int, y: int) -> Fraction:
        return self.alpha[y - 1] * x


@dataclass(frozen=True)
class AbcScoringTable:
    """General scoring table of k + 1 rows of m entries; values[x][y-1] is s(x, y).

    Monotonicity in x is required only on the active range of each ballot
    size; entries outside it are stored but never read when scoring.
    """

    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k, m = len(self.values) - 1, len(self.values[0]) if self.values else 0
        if not m or any(len(row) != m for row in self.values):
            raise ValueError("table rows must be non-empty and of one length")
        for y in range(1, m + 1):
            active = list(active_range(k, m, y))
            for x1, x2 in zip(active, active[1:]):
                if self.values[x2][y - 1] < self.values[x1][y - 1]:
                    raise ValueError(f"s(x, {y}) must be non-decreasing on the active range")

    def score(self, x: int, y: int) -> Fraction:
        return self.values[x][y - 1]


Scoring = ThieleScore | BswavWeights | AbcScoringTable


def _scoring_m(scoring: Scoring) -> int | None:
    """The candidate count that weights or a table are built for; None for Thiele scores."""
    if isinstance(scoring, BswavWeights):
        return len(scoring.alpha)
    if isinstance(scoring, AbcScoringTable):
        return len(scoring.values[0])
    return None


@dataclass(frozen=True)
class Rule:
    """A scoring rule bundled with its display name and committee size."""

    name: str
    k: int
    scoring: Scoring
    # the kernel's integer tables, one per candidate count m, filled on first use; kept on
    # the rule so that finding one never hashes or compares the rule's Fractions
    _tables: dict[int, _IntTable] = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("committee size must be at least 1")
        if isinstance(self.scoring, (ThieleScore, AbcScoringTable)) and len(self.scoring.values) != self.k + 1:
            raise ValueError("rule k does not match its scoring parameters")
        m = _scoring_m(self.scoring)
        if m is not None:
            check_committee_size(m, self.k)

    def score(self, x: int, y: int) -> Fraction:
        return self.scoring.score(x, y)


def thiele_rule(name: str, values) -> Rule:
    values = tuple(Fraction(v) for v in values)
    return Rule(name, len(values) - 1, ThieleScore(values))


def bswav_rule(name: str, k: int, alpha) -> Rule:
    alpha = tuple(Fraction(a) for a in alpha)
    return Rule(name, k, BswavWeights(alpha))


def named_rule(name: str, k: int, m: int) -> Rule:
    """Construct one of the library rules for committee size k over m candidates."""
    check_committee_size(m, k)  # before building k + 1 values
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
    if name in ("sav", "msav"):
        # m weights are refused where the m one-member committees are over the limit:
        # the kernel scales its table by the lcm of their denominators, lcm(1..m) for
        # sav, which at m = 10**5 took 4.6 s to score one committee
        check_committee_limit(m, 1)
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
        rule = bswav_rule(spec, k, alpha)
        check_committee_limit(m, 1)  # m weights, as for sav in named_rule
        return rule
    raise ValueError(f"cannot parse rule spec {spec!r}")


def _check_dimensions(rule: Rule, m: int) -> None:
    fixed = _scoring_m(rule.scoring)
    if fixed not in (None, m):
        raise ValueError(f"rule is parameterized for m={fixed}, profile has m={m}")
    check_committee_size(m, rule.k)


# ---------------------------------------------------------------------------
# The scoring kernel
#
# Every rule here is an ABC scoring rule: a committee's score is the sum over
# ballots of s(|A ∩ W|, |A|).  Ballots and committees become bitmasks,
# identical ballots merge into one (mask, integer weight) term, and the
# rule becomes the integer table T[y][x] = s(x, y) * D with D the lcm of the
# rule's denominators.  Scores come out as integers on the scale D times the
# weights' own scale: exact, with no rational arithmetic per term.
#
# Where every ballot size present has a row that is affine on its active
# range, T[y][x] = b_y + a_y * x, the score is additive over candidates: a
# constant sum of w * b_|A| plus, for each elected c, its gain, the sum of
# w * a_|A| over the ballots approving c.  This holds for AV and all
# ballot-size weights, and costs C(m, k) * k.
#
# Other tables (PAV, CCAV, most Thiele vectors) have two evaluations.  Few
# distinct ballots pay w * T[|A|][popcount(A & W)] each: C(m, k) times the
# distinct ballots.  Many distinct ballots are bit-sliced: each candidate
# gets one integer with bit i set when distinct ballot i approves it, and a
# depth-first walk over the committees keeps at[x], the ballots with more than
# x members chosen so far.  T[|A|][c] = T[|A|][0] + the sum over x < c of
# T[|A|][x+1] - T[|A|][x], so a committee scores sum(w * T[|A|][0]) plus, for
# each x, the steps times the weighted popcount of at[x].  Weights are split
# into bit-planes (negative weights into planes that subtract), one set per
# row of steps: a handful of big-integer ANDs and popcounts per committee,
# whatever the number of ballots.
# ---------------------------------------------------------------------------

# A table that is not affine is bit-sliced when it has more than this many
# distinct ballots per committee member and per distinct row of steps among the
# ballot sizes present, and looped over otherwise: a sliced committee costs
# about one popcount per (x, row of steps, weight plane), a looped one one per
# distinct ballot.  Timed on CPython 3.11 at (m, k) from (8, 2) to (14, 4),
# with one row of steps (Thiele rules) the loop is faster below about 10-12
# distinct ballots per member for PAV and random Thiele vectors and below
# about 6 for CCAV; tables with 7-11 rows of steps cross over only at about
# 24-32 per member, which the factor for rows leaves on the loop.
SLICED_MIN_BALLOTS = 12


@lru_cache(maxsize=None)
def _committee_masks(m: int, k: int) -> tuple[tuple[Committee, ...], tuple[int, ...]]:
    """All size-k committees in enumerate_committees order, with their bitmasks;
    committees over the limit are refused before any is built."""
    check_committee_limit(m, k)
    committees = tuple(enumerate_committees(m, k))
    return committees, tuple(ballot_mask(w) for w in committees)


class _IntTable(dict):
    """A rule's integer table on m candidates: ballot size y maps to (T[y], line),
    T[y][x] = s(x, y) * D for x = 0..k, and line = (b, a) when T[y][x] = b + a * x
    on the active range, else None; a key (a, d, c, q) maps to a least margin of
    `first_losing_reduction`.  Entries are built on first use, so only the
    ballot sizes that occur cost anything, whatever m is."""

    def __init__(self, rule: Rule, m: int):
        super().__init__()
        self.scoring, self.k, self.m = rule.scoring, rule.k, m
        self.scale = lcm(*(value.denominator for value in _parameters(rule.scoring)))

    def __missing__(self, y: int | tuple[int, int, int, int]):
        if isinstance(y, tuple):  # (a, d, c, q): the least margin read by first_losing_reduction
            a, d, c, q = y
            self[y] = least = min(
                self[size][0][a] - self[size][0][c + j]
                for j in range(q + 1) for size in range(max(a + j, 1), a + j + d - q + 1)
            )
            return least
        if isinstance(self.scoring, BswavWeights):  # alpha_y * x, scaled once, in ints
            alpha = self.scoring.alpha[y - 1]
            unit = alpha.numerator * (self.scale // alpha.denominator)
            row = tuple(unit * x for x in range(self.k + 1))
        else:
            values = [self.scoring.score(x, y) for x in range(self.k + 1)]
            row = tuple(value.numerator * (self.scale // value.denominator) for value in values)
        active = active_range(self.k, self.m, y)
        lo = active[0]
        slope = row[lo + 1] - row[lo] if len(active) > 1 else 0
        affine = all(row[x] == row[lo] + slope * (x - lo) for x in active)
        self[y] = entry = (row, (row[lo] - slope * lo, slope) if affine else None)
        return entry


def _parameters(scoring: Scoring):
    """Every rational that defines the rule, so their denominators give D."""
    if isinstance(scoring, ThieleScore):
        return scoring.values
    if isinstance(scoring, BswavWeights):
        return scoring.alpha
    return [value for row in scoring.values for value in row]


def _int_table(rule: Rule, m: int) -> _IntTable:
    table = rule._tables.get(m)
    if table is None:
        table = rule._tables[m] = _IntTable(rule, m)
    return table


def _vector_terms(vector: ProfileVector) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(L, terms): the entries as (mask, entry * L) in mask order, L the lcm of their denominators."""
    scale = lcm(*(value.denominator for _, value in vector.entries))
    return scale, tuple((mask, int(value * scale)) for mask, value in vector.entries)


def _kernel(rule: Rule, m: int, terms: Sequence[tuple[int, int]], masks) -> tuple[int, list[int]]:
    """(D, scores): the score times D of every size-k committee of the candidates
    0..m-1, in lexicographic order; `masks` are their bitmasks."""
    table = _int_table(rule, m)
    entries = [(mask, weight, table[mask.bit_count()]) for mask, weight in terms]
    if all(line is not None for _, _, (_, line) in entries):
        constant, gains = 0, [0] * m
        for mask, weight, (_, (intercept, slope)) in entries:
            constant += weight * intercept
            gain = weight * slope
            while gain and mask:  # each approved candidate, lowest bit first
                low = mask & -mask
                gains[low.bit_length() - 1] += gain
                mask ^= low
        return table.scale, [constant + gain for gain in map(sum, combinations(gains, rule.k))]
    least = SLICED_MIN_BALLOTS * rule.k
    if len(entries) > least:  # the rows of steps are counted only where they can matter
        step_rows = {tuple(map(sub, row[1:], row[:-1])) for row in {row for _, _, (row, _) in entries}}
        if len(entries) > least * len(step_rows):
            return table.scale, _sliced_scores(rule.k, entries, m)
    rows = [(mask, tuple(weight * t for t in row)) for mask, weight, (row, _) in entries]
    return table.scale, [sum([row[(mask & cm).bit_count()] for mask, row in rows]) for cm in masks]


def _sliced_scores(k: int, entries, m: int) -> list[int]:
    """The bit-sliced evaluation of `_kernel`: scores of the size-k committees
    of 0..m-1, in lexicographic order, from (mask, weight, (row, line)) entries."""
    columns = [0] * m  # by candidate: the ballots that approve it
    constant, planes = 0, {}  # (row, signed power of two) -> the ballots in that plane
    for i, (mask, weight, (row, _)) in enumerate(entries):
        bit = 1 << i
        constant += weight * row[0]
        while mask:
            low = mask & -mask
            columns[low.bit_length() - 1] |= bit
            mask ^= low
        sign, magnitude, j = (1 if weight > 0 else -1), abs(weight), 0
        while magnitude:
            if magnitude & 1:
                planes[row, sign << j] = planes.get((row, sign << j), 0) | bit
            magnitude >>= 1
            j += 1
    # weighted[x]: coefficient -> the ballots that add it once they hold more
    # than x members; planes sharing a coefficient at x are disjoint, so merge
    weighted = [{} for _ in range(k)]
    for (row, power), plane in planes.items():
        for x in range(k):
            step = row[x + 1] - row[x]
            if step:
                weighted[x][step * power] = weighted[x].get(step * power, 0) | plane
    weighted = [list(by_coefficient.items()) for by_coefficient in weighted]
    while weighted and not weighted[-1]:  # at[x] past the last step that scores is never read
        weighted.pop()

    full, scores = (1 << len(entries)) - 1, []
    levels = [([], constant)]  # levels[d]: (at, score) after the first d members of the prefix
    last = ()
    for prefix in combinations(range(m - 1), k - 1):
        d = 0
        while d < len(last) and last[d] == prefix[d]:
            d += 1
        del levels[d + 1:]
        for p in prefix[d:]:  # extend the shared levels by the new members
            at, score = levels[-1]
            column, below, grown = columns[p], full, []
            for x in range(min(len(at) + 1, len(weighted))):
                held = at[x] if x < len(at) else 0
                gained = below & column & ~held  # exactly x members so far, and approve p
                for coefficient, plane in weighted[x]:
                    score += coefficient * (gained & plane).bit_count()
                grown.append(held | (below & column))
                below = held
            levels.append((grown, score))
        last = prefix
        at, score = levels[-1]
        # the last member: a ballot holding exactly x members gains the coefficients at x
        exact, below = [], full
        for x in range(len(weighted)):
            held = at[x] if x < len(at) else 0
            for coefficient, plane in weighted[x]:
                ballots = below & ~held & plane
                if ballots:
                    exact.append((ballots, coefficient))
            below = held
        for column in columns[prefix[-1] + 1 if prefix else 0:]:
            total = score
            for ballots, coefficient in exact:
                total += coefficient * (ballots & column).bit_count()
            scores.append(total)
    return scores


def _committees(rule: Rule, m: int) -> tuple[tuple[Committee, ...], tuple[int, ...]]:
    """The rule's size-k committees of m candidates with their bitmasks, after the
    checks that every scoring makes first: the rule's dimensions, then the limit."""
    _check_dimensions(rule, m)
    return _committee_masks(m, rule.k)


def _scores(rule: Rule, m: int, terms: Sequence[tuple[int, int]]):
    """(committees, D, scores) with scores[i] / D the exact score of committees[i]."""
    committees, masks = _committees(rule, m)
    scale, scores = _kernel(rule, m, terms, masks)
    return committees, scale, scores


def _vector_scores(rule: Rule, vector: ProfileVector, k: int) -> tuple[tuple[Committee, ...], int, list[int]]:
    if k != rule.k:
        raise ValueError(f"requested k={k} does not match rule k={rule.k}")
    weight_scale, terms = _vector_terms(vector)
    committees, scale, scores = _scores(rule, vector.m, terms)
    return committees, scale * weight_scale, scores


def _pair_scores(rule: Rule, a: Profile, b: Profile) -> tuple[tuple[Committee, ...], list[int], list[int]]:
    """(committees, scores of a, scores of b), both on the table's one integer scale."""
    check_same_candidates(a, b)
    committees, _, scores_a = _scores(rule, a.m, a.terms)
    return committees, scores_a, _scores(rule, b.m, b.terms)[2]


def _argmax(committees: tuple[Committee, ...], scores: list[int]) -> ChoiceSet:
    best = max(scores)
    return frozenset(w for w, score in zip(committees, scores) if score == best)


def check_committee(members: Collection[int], k: int, m: int) -> None:
    """Refuse a committee that lists a candidate twice, or lacks k members, all among the m candidates."""
    if len(set(members)) < len(members):
        raise ValueError(f"committee lists candidate {Counter(members).most_common(1)[0][0]} more than once")
    if len(members) != k:
        raise ValueError(f"committee size {len(members)} does not match rule k={k}")
    if not all(isinstance(c, int) and 0 <= c < m for c in members):
        raise ValueError(f"committee {sorted(members)} has candidates outside 0..{m - 1}")


def committee_score(rule: Rule, profile: Profile, committee: Committee | frozenset[int]) -> Fraction:
    """Exact total score of one committee: sum over voters of s(|A_i ∩ W|, |A_i|)."""
    return ballots_score(rule, profile.m, {mask_ballot(mask): count for mask, count in profile.terms}, committee)


def ballots_score(rule: Rule, m: int, counts: dict[Ballot, int], committee: Committee | frozenset[int]) -> Fraction:
    """:func:`committee_score` on the count of each distinct ballot, as candidate
    sets, over m candidates: the sum of count * T[|A|][|A ∩ W|] over D, read off
    the rule's integer table.  No mask is built, so a huge index costs nothing."""
    _check_dimensions(rule, m)
    check_committee(committee, rule.k, m)
    members = frozenset(committee)
    table = _int_table(rule, m)
    score = sum(count * table[len(ballot)][0][len(ballot & members)] for ballot, count in counts.items())
    return Fraction(score, table.scale)


def committee_scores(rule: Rule, profile: Profile) -> list[tuple[Committee, Fraction]]:
    """Scores of all committees, in enumeration order."""
    committees, scale, scores = _scores(rule, profile.m, profile.terms)
    return [(w, Fraction(score, scale)) for w, score in zip(committees, scores)]


def winners(rule: Rule, profile: Profile) -> ChoiceSet:
    """The full argmax set of committees; never empty, no tie-breaking."""
    committees, _, scores = _scores(rule, profile.m, profile.terms)
    return _argmax(committees, scores)


def winners_and_score(rule: Rule, profile: Profile) -> tuple[ChoiceSet, Fraction]:
    """The full argmax set of committees and their exact common score, from one scoring."""
    committees, scale, scores = _scores(rule, profile.m, profile.terms)
    return _argmax(committees, scores), Fraction(max(scores), scale)


def vector_scores(rule: Rule, vector: ProfileVector, k: int) -> list[tuple[Committee, Fraction]]:
    """Scores against a rational profile vector: sum of v_l * s(|B(l) ∩ W|, |B(l)|)."""
    committees, scale, scores = _vector_scores(rule, vector, k)
    return [(w, Fraction(score, scale)) for w, score in zip(committees, scores)]


def winners_from_vector(rule: Rule, vector: ProfileVector, k: int) -> ChoiceSet:
    """Argmax over committees for a rational (possibly negative) profile vector.

    For the vector of an actual profile this agrees exactly with
    :func:`winners` on that profile.
    """
    committees, _, scores = _vector_scores(rule, vector, k)
    return _argmax(committees, scores)


def continuity_lambda_bound(rule: Rule, a: Profile, b: Profile) -> int:
    """A sound (not necessarily minimal) lambda* for the continuity property.

    For every lambda >= lambda*, winners(rule, lambda*a + b) is a subset of
    winners(rule, a): scaling a's smallest winner/non-winner gap past b's
    largest score spread makes a's losers stay losers.
    """
    _, scores_a, scores_b = _pair_scores(rule, a, b)
    best_a = max(scores_a)
    loser_scores = [score for score in scores_a if score != best_a]
    if not loser_scores:
        return 1
    gap_a = best_a - max(loser_scores)
    spread_b = max(scores_b) - min(scores_b)
    return 1 + -(-spread_b // gap_a)


def least_continuity_lambda(rule: Rule, a: Profile, b: Profile) -> int:
    """The least lambda >= 1 with winners(rule, lambda*a + b) ⊆ winners(rule, a).

    That holds iff every loser L of a falls behind a's best winner on b:
    lambda * (best_a - s_a(L)) > s_b(L) - max of s_b over a's winners.
    """
    _, scores_a, scores_b = _pair_scores(rule, a, b)
    best_a = max(scores_a)
    top_b = max(sb for sa, sb in zip(scores_a, scores_b) if sa == best_a)
    return max([1] + [(sb - top_b) // (best_a - sa) + 1 for sa, sb in zip(scores_a, scores_b) if sa != best_a])


def _reductions_for(ballot: int, own: int) -> Iterator[int]:
    """Every reduced ballot mask, dropping any approved candidates outside the committee
    `own` but keeping the ballot non-empty: by the number dropped, then the dropped
    members in lexicographic order.  The walk runs the voters' product in this order."""
    droppable = [1 << c for c in range(ballot.bit_length()) if ballot >> c & 1 and not own >> c & 1]
    for size in range(len(droppable) + 1):
        for drop in combinations(droppable, size):
            if reduced := ballot - sum(drop):
                yield reduced


def first_losing_reduction(rule: Rule, profile: Profile, committee: Committee) -> tuple[int, Profile] | None:
    """None if `committee` wins every reduction of `profile` (each voter may drop
    any approved non-members, keeping the ballot non-empty), else (i, reduced):
    the first reduced profile it loses on in the product of the voters'
    `_reductions_for`, and its 1-based position i there.

    Scores are sums over voters, so W survives iff, against every committee
    W', the voters' least margins T[|r|][|r ∩ W|] - T[|r|][|r ∩ W'|] over
    their reductions r sum to at least 0.  A ballot with a members in W and d
    droppable ones, q of them in W', meets W' in c + j (c = |A ∩ W ∩ W'|) on
    a reduction that keeps j of those q, so its least margin depends only on
    (a, d, c, q), and the table works it out once.  A losing W is read voter
    by voter: each takes its first reduction after which the later voters'
    least margins still make W lose to some W'.  Trying more than
    IOL_EXHAUSTIVE_CAP reductions past each voter's first raises
    CapExceeded.  Those are at most the product's size minus 1, so this
    refuses only a winner whose walk would be over the cap too.
    """
    _, masks = _committees(rule, profile.m)
    table = _int_table(rule, profile.m)
    own = ballot_mask(committee)

    def least(ballot: int) -> list[int]:
        kept, droppable = ballot & own, ballot & ~own
        a, d = kept.bit_count(), droppable.bit_count()
        return [table[a, d, (kept & cm).bit_count(), (droppable & cm).bit_count()] for cm in masks]

    later = [0] * len(masks)  # the least margins of the voters not yet read
    for ballot, weight in profile.terms:
        later = [total + weight * margin for total, margin in zip(later, least(ballot))]
    if min(later) >= 0:
        return None
    earlier = [0] * len(masks)  # the margins of the reductions taken so far
    position, tried, reduced = 0, 0, []
    for ballot in profile.masks:
        later = list(map(sub, later, least(ballot)))
        for index, cut in enumerate(_reductions_for(ballot, own)):
            tried += index > 0  # a voter's first reduction costs no more than its least margins did
            if tried > IOL_EXHAUSTIVE_CAP:
                raise CapExceeded(f"over {IOL_EXHAUSTIVE_CAP} reductions tried for committee {committee}")
            row = table[cut.bit_count()][0]
            ours = row[(cut & own).bit_count()]
            margins = [total + ours - row[(cut & cm).bit_count()] for total, cm in zip(earlier, masks)]
            if min(map(add, margins, later)) < 0:  # some reduction of this voter's does, the least
                break
        earlier = margins
        position = position * (2 ** (ballot & ~own).bit_count() - (0 if ballot & own else 1)) + index
        reduced.append(cut)
    return position + 1, Profile(profile.m, tuple(reduced))


def scaled_pair_winners(rule: Rule, a: Profile, b: Profile, lam: int) -> ChoiceSet:
    """winners(rule, lam*a + b) computed from the two score vectors.

    Committee scores are additive over voters, so the scaled profile never
    needs to be materialized; results are bit-identical to the direct path.
    """
    committees, scores_a, scores_b = _pair_scores(rule, a, b)
    return _argmax(committees, [lam * sa + sb for sa, sb in zip(scores_a, scores_b)])
