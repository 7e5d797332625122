"""Shared test helpers: tiny independent enumerations used as oracles.

The scoring oracles are naive `Fraction` loops over `itertools.combinations`
and import nothing from `abcvote.rules`; they take a rule's score function
s(x, y) and nothing else, so the kernel is always checked against the
scoring definition itself.  Likewise the canonical-form oracle renames the
candidates of the profile itself under all m! permutations and compares
dense count vectors, without the ballot tables of `abcvote.profiles` or
anything from `abcvote.search`.  The independence-of-losers oracle walks
each voter's reductions one submask at a time and reads s(x, y) directly.
The oracles code and decode ballot masks themselves, with `oracle_mask` and
`oracle_ballot`.  The Fourier-Motzkin oracle eliminates the unknowns of a
constraint system one by one and back-substitutes midpoints, without linear
programming, and the observation-row oracles build a fit's constraint rows
from a profile's decoded ballots, one voter at a time, without bitmasks: the
tie rows a fit states, and the full rows (every chosen committee against
every other) that they imply.  Last come the `hypothesis` strategies that
draw text for the input parsers.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from abcvote.profiles import Profile


def all_subsets_nonempty(m):
    """All non-empty ballots, by size and then lexicographically: the `all_ballots` order."""
    out = []
    for size in range(1, m + 1):
        out.extend(frozenset(c) for c in itertools.combinations(range(m), size))
    return out


def raw_profiles(m, n):
    """Every multiset of n non-empty ballots over m candidates, independently enumerated."""
    pool = sorted(all_subsets_nonempty(m), key=lambda b: (len(b), sorted(b)))
    for combo in itertools.combinations_with_replacement(pool, n):
        yield Profile.from_ballots(m, combo)


def oracle_mask(ballot):
    """The bitmask of a ballot: bit c for each member c."""
    return sum(1 << c for c in ballot)


def oracle_ballot(mask, m):
    """The ballot of a bitmask over m candidates."""
    return frozenset(c for c in range(m) if mask >> c & 1)


def oracle_ballots(profile):
    """The voters' ballots of a profile, each mask decoded bit by bit."""
    return [oracle_ballot(mask, profile.m) for mask in profile.masks]


def oracle_canonical_form(profile):
    """The lexicographically least dense count vector, in `all_subsets_nonempty`
    order, over all m! candidate renamings of the profile, each renaming built
    from scratch; returned as the profile with those counts, its voters in that
    order."""
    ballots = all_subsets_nonempty(profile.m)
    best = None
    for tau in itertools.permutations(range(profile.m)):
        counts = Counter(frozenset(tau[c] for c in ballot) for ballot in oracle_ballots(profile))
        dense = tuple(counts[ballot] for ballot in ballots)
        if best is None or dense < best:
            best = dense
    return Profile(profile.m, tuple(oracle_mask(b) for b, count in zip(ballots, best) for _ in range(count)))


def oracle_scores(score_fn, weighted_ballots, m, k):
    """[(committee, score)] for every size-k committee in lexicographic order,
    summing weight * s(|A ∩ W|, |A|) over (ballot, weight) pairs one by one."""
    out = []
    for committee in itertools.combinations(range(m), k):
        members = set(committee)
        total = Fraction(0)
        for ballot, weight in weighted_ballots:
            total += Fraction(weight) * score_fn(len(ballot & members), len(ballot))
        out.append((committee, total))
    return out


def oracle_survives_every_reduction(score_fn, profile, committee, k):
    """Whether `committee` wins every reduction of `profile`, voter by voter:
    each voter's least margin s(|r ∩ W|, |r|) - s(|r ∩ W'|, |r|) against every
    size-k committee W', over every non-empty r left when the voter drops a
    submask of their approved non-members, summed over the voters; on the
    scores scaled to integers by the lcm of their denominators."""
    m = profile.m
    values = {(x, y): Fraction(score_fn(x, y)) for x in range(k + 1) for y in range(1, m + 1)}
    scale = math.lcm(*(value.denominator for value in values.values()))
    table = {key: int(value * scale) for key, value in values.items()}
    own = oracle_mask(committee)
    rivals = [oracle_mask(w) for w in itertools.combinations(range(m), k)]
    totals = [0] * len(rivals)
    for ballot in profile.masks:
        kept, droppable = ballot & own, ballot & ~own
        least = None
        dropped = droppable  # every submask of the droppable members, all of them first
        while True:
            reduced = ballot ^ dropped
            if reduced:
                size, x = bin(reduced).count("1"), bin(kept).count("1")
                margins = [table[x, size] - table[bin(reduced & w).count("1"), size] for w in rivals]
                least = margins if least is None else list(map(min, least, margins))
            if not dropped:
                break
            dropped = (dropped - 1) & droppable
        totals = [total + margin for total, margin in zip(totals, least)]
    return min(totals) >= 0


def oracle_profile_scores(score_fn, profile, k):
    return oracle_scores(score_fn, [(ballot, 1) for ballot in oracle_ballots(profile)], profile.m, k)


def oracle_vector_scores(score_fn, vector, k):
    """Scores against a rational profile vector, decoding each mask bit by bit."""
    weighted = [(oracle_ballot(mask, vector.m), value) for mask, value in vector.entries]
    return oracle_scores(score_fn, weighted, vector.m, k)


def oracle_argmax(scored):
    best = max(score for _, score in scored)
    return frozenset(committee for committee, score in scored if score == best)


def oracle_winners(score_fn, profile, k):
    return oracle_argmax(oracle_profile_scores(score_fn, profile, k))


def oracle_vector_winners(score_fn, vector, k):
    return oracle_argmax(oracle_vector_scores(score_fn, vector, k))


def _oracle_committee_row(profile, members, family):
    """A committee's coefficient row: Thiele counts the voters whose ballots
    meet it in x candidates under s_x; ballot-size weights sum |ballot ∩ W|
    over voters with size-y ballots under alpha_y, full ballots skipped since
    they add the same constant to every committee."""
    m = profile.m
    if family == "thiele":
        coeffs = [0] * len(members)
        for ballot in oracle_ballots(profile):
            x = len(ballot & members)
            if x >= 1:
                coeffs[x - 1] += 1
    else:
        coeffs = [0] * (m - 1)
        for ballot in oracle_ballots(profile):
            if len(ballot) < m:
                coeffs[len(ballot) - 1] += len(ballot & members)
    return tuple(coeffs)


def _oracle_rows(profile, chosen, k, family, pairs):
    """(weak, strict) rows of the observation of `profile` with choice set
    `chosen`: row(a) - row(b) for each weak pair (a, b) that
    `pairs(chosen, committees)` lists, then the least chosen committee
    against each committee not chosen, committees in lexicographic order."""
    committees = list(itertools.combinations(range(profile.m), k))
    table = {w: _oracle_committee_row(profile, frozenset(w), family) for w in committees}
    ordered = [w for w in committees if w in chosen]
    weak = [tuple(a - b for a, b in zip(table[x], table[y])) for x, y in pairs(ordered, committees)]
    strict = [
        tuple(a - b for a, b in zip(table[ordered[0]], table[other]))
        for other in committees
        if other not in chosen
    ]
    return weak, strict


def oracle_full_observation_rows(profile, chosen, k, family):
    """Every chosen committee against every other committee as weak rows,
    which the tie and strict rows imply, plus the strict rows."""
    return _oracle_rows(profile, chosen, k, family, lambda chosen, committees: [
        (winner, other) for winner in chosen for other in committees if other != winner
    ])


def oracle_tie_observation_rows(profile, chosen, k, family):
    """Ties as weak rows: the least chosen committee minus each other chosen
    committee, then the reverse, one pair at a time; plus the strict rows."""
    return _oracle_rows(profile, chosen, k, family, lambda chosen, committees: [
        pair for other in chosen[1:] for pair in ((chosen[0], other), (other, chosen[0]))
    ])


def _fm_scaled(row, factor):
    coeffs, rhs = row
    return tuple(c * factor for c in coeffs), rhs * factor


def _fm_combine(pos, neg, var):
    a = _fm_scaled(pos, -neg[0][var])
    b = _fm_scaled(neg, pos[0][var])
    return tuple(x + y for x, y in zip(a[0], b[0])), a[1] + b[1]


def _fm_dedupe(rows):
    """Per coefficient direction (row over |leading coefficient|), the largest rhs."""
    best = {}
    for row in rows:
        lead = next((c for c in row[0] if c != 0), None)
        if lead is None:
            continue
        canon = _fm_scaled(row, 1 / abs(lead))
        if canon[0] not in best or canon[1] > best[canon[0]][1]:
            best[canon[0]] = canon
    return list(best.values())


def _fm_contradiction(rows):
    return any(not any(coeffs) and rhs > 0 for coeffs, rhs in rows)


def oracle_fm_solve(system):
    """The point of `system`, or None when it is infeasible, by exact
    Fourier-Motzkin elimination of its unknowns, last first, and
    back-substitution of each unknown, first first, at the midpoint of its
    interval (lower + 1 or upper - 1 when one end is open, 0 when both are)."""
    n = len(system.unknowns)
    rows = [(tuple(map(Fraction, coeffs)), Fraction(rhs)) for coeffs, rhs in system.all_rows()]
    if _fm_contradiction(rows):
        return None
    rows = _fm_dedupe(rows)
    frames = []
    for var in range(n - 1, -1, -1):
        frames.append((var, rows))
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        combined = [_fm_combine(p, q, var) for p in pos for q in neg]
        if _fm_contradiction(combined):
            return None
        rows = _fm_dedupe([r for r in rows if r[0][var] == 0] + combined)
    values = [Fraction(0)] * n
    for var, var_rows in reversed(frames):
        lower = upper = None
        for coeffs, rhs in var_rows:
            c = coeffs[var]
            if c == 0:
                continue
            bound = (rhs - sum(coeffs[i] * values[i] for i in range(var))) / c
            if c > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None and upper is not None:
            values[var] = (lower + upper) / 2
        elif lower is not None:
            values[var] = lower + 1
        elif upper is not None:
            values[var] = upper - 1
    return tuple(values)


# Text strategies for the input parsers: mostly well-formed files with some damage.

JUNK = st.text(alphabet="m=0123456789 \n#+-_,/{}:x١ ", max_size=30)

ballot_lines = st.lists(
    st.one_of(
        st.lists(st.integers(-1, 4), max_size=4).map(lambda xs: " ".join(map(str, xs))),
        JUNK,
    ),
    min_size=0,
    max_size=3,
)


@st.composite
def profile_texts(draw):
    """Mostly well-formed profiles over 2-4 candidates, with some damage."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    m = draw(st.sampled_from(["2", "3", "4", "4", "1", "x"]))
    lines = [f"m={m}", *draw(ballot_lines)]
    if draw(st.booleans()):
        lines.insert(0, "# comment")
    return "\n".join(lines) + "\n"


committee_texts = st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
    lambda xs: "{" + ",".join(map(str, xs)) + "}"
)


@st.composite
def observation_texts(draw):
    """Up to three blocks of profile text, each closed by a `chosen:` line with
    some damage, and sometimes a trailing block with none."""
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        chosen = draw(st.lists(committee_texts, max_size=3))
        tail = draw(st.one_of(st.just(""), JUNK))
        blocks.append(draw(profile_texts()) + "chosen: " + ",".join(chosen) + tail + "\n")
    if draw(st.booleans()):
        blocks.append(draw(profile_texts()))
    return "".join(blocks)
