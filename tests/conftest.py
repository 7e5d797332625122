"""Shared test helpers: tiny independent enumerations used as oracles.

The scoring oracles are naive `Fraction` loops over `itertools.combinations`
and import nothing from `abcvote.rules`; they take a rule's score function
s(x, y) and nothing else, so the kernel is always checked against the
scoring definition itself.  Likewise the canonical-form oracle renames the
candidates of the profile itself under all m! permutations and compares
dense count vectors, without the ballot tables of `abcvote.profiles` or
anything from `abcvote.search`.  Vectors are keyed by ballot bitmask; the
oracles code and decode masks themselves, with `oracle_mask` and
`oracle_ballot`.  The Fourier-Motzkin oracle eliminates the
unknowns of a constraint system one by one and back-substitutes midpoints,
without linear programming, and the observation-row oracles build a fit's
constraint rows from decoded ballots with `Fraction` arithmetic, without
bitmasks: the tie rows a fit states, and the full rows (every chosen
committee against every other) that they imply.
"""

import itertools
from collections import Counter
from fractions import Fraction

from abcvote.profiles import Profile, ProfileVector


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


def oracle_canonical_form(profile):
    """The lexicographically least dense count vector, in `all_subsets_nonempty`
    order, over all m! candidate renamings of the profile, each renaming built
    from scratch; returned keyed by ballot mask."""
    ballots = all_subsets_nonempty(profile.m)
    best = None
    for tau in itertools.permutations(range(profile.m)):
        counts = Counter(frozenset(tau[c] for c in ballot) for _, ballot in profile.ballots)
        dense = tuple(counts[ballot] for ballot in ballots)
        if best is None or dense < best:
            best = dense
    return ProfileVector.from_dict(profile.m, {oracle_mask(b): count for b, count in zip(ballots, best)})


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


def oracle_profile_scores(score_fn, profile, k):
    return oracle_scores(score_fn, [(ballot, 1) for _, ballot in profile.ballots], profile.m, k)


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


def _oracle_committee_row(vector, members, family):
    """A committee's coefficient row: Thiele counts the (rational) weight of
    ballots meeting it in x candidates under s_x; ballot-size weights sum
    weight * |ballot ∩ W| over size-y ballots under alpha_y, full ballots
    skipped since they add the same constant to every committee."""
    m = vector.m
    weighted = [(oracle_ballot(mask, m), weight) for mask, weight in vector.entries]
    if family == "thiele":
        coeffs = [Fraction(0)] * len(members)
        for ballot, weight in weighted:
            x = len(ballot & members)
            if x >= 1:
                coeffs[x - 1] += weight
    else:
        coeffs = [Fraction(0)] * (m - 1)
        for ballot, weight in weighted:
            if len(ballot) < m:
                coeffs[len(ballot) - 1] += weight * len(ballot & members)
    return tuple(coeffs)


def _oracle_rows(vector, chosen, k, family, pairs):
    """(weak, strict) rows of the observation of `vector` with choice set
    `chosen`: row(a) - row(b) for each weak pair (a, b) that
    `pairs(chosen, committees)` lists, then the least chosen committee
    against each committee not chosen, committees in lexicographic order."""
    committees = list(itertools.combinations(range(vector.m), k))
    table = {w: _oracle_committee_row(vector, frozenset(w), family) for w in committees}
    ordered = [w for w in committees if w in chosen]
    weak = [tuple(a - b for a, b in zip(table[x], table[y])) for x, y in pairs(ordered, committees)]
    strict = [
        tuple(a - b for a, b in zip(table[ordered[0]], table[other]))
        for other in committees
        if other not in chosen
    ]
    return weak, strict


def oracle_full_observation_rows(vector, chosen, k, family):
    """Every chosen committee against every other committee as weak rows,
    which the tie and strict rows imply, plus the strict rows."""
    return _oracle_rows(vector, chosen, k, family, lambda chosen, committees: [
        (winner, other) for winner in chosen for other in committees if other != winner
    ])


def oracle_tie_observation_rows(vector, chosen, k, family):
    """Ties as weak rows: the least chosen committee minus each other chosen
    committee, then the reverse, one pair at a time; plus the strict rows."""
    return _oracle_rows(vector, chosen, k, family, lambda chosen, committees: [
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
