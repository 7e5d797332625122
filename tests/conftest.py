"""Shared test helpers: tiny independent enumerations used as oracles.

The scoring oracles are naive `Fraction` loops over `itertools.combinations`
and import nothing from `abcvote.rules`; they take a rule's score function
s(x, y) and nothing else, so the kernel is always checked against the
scoring definition itself.  Likewise the canonical-form oracle renames the
candidates of the profile itself under all m! permutations and compares
dense count vectors, without the ballot tables of `abcvote.profiles` or
anything from `abcvote.search`.
"""

import itertools
from collections import Counter
from fractions import Fraction

from abcvote.profiles import Profile, ProfileVector


def all_subsets_nonempty(m):
    """All non-empty ballots, by size and then lexicographically: the ballot-index order."""
    out = []
    for size in range(1, m + 1):
        out.extend(frozenset(c) for c in itertools.combinations(range(m), size))
    return out


def raw_profiles(m, n):
    """Every multiset of n non-empty ballots over m candidates, independently enumerated."""
    pool = sorted(all_subsets_nonempty(m), key=lambda b: (len(b), sorted(b)))
    for combo in itertools.combinations_with_replacement(pool, n):
        yield Profile.from_ballots(m, combo)


def oracle_canonical_form(profile):
    """The lexicographically least dense count vector over all m! candidate
    renamings of the profile, each renaming built from scratch."""
    ballots = all_subsets_nonempty(profile.m)
    best = None
    for tau in itertools.permutations(range(profile.m)):
        counts = Counter(frozenset(tau[c] for c in ballot) for _, ballot in profile.ballots)
        dense = tuple(counts[ballot] for ballot in ballots)
        if best is None or dense < best:
            best = dense
    return ProfileVector.from_dict(profile.m, dict(enumerate(best)))


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
    """Scores against a rational profile vector, decoding indices by plain enumeration."""
    ballots = all_subsets_nonempty(vector.m)
    return oracle_scores(score_fn, [(ballots[idx], value) for idx, value in vector.entries], vector.m, k)


def oracle_argmax(scored):
    best = max(score for _, score in scored)
    return frozenset(committee for committee, score in scored if score == best)


def oracle_winners(score_fn, profile, k):
    return oracle_argmax(oracle_profile_scores(score_fn, profile, k))


def oracle_vector_winners(score_fn, vector, k):
    return oracle_argmax(oracle_vector_scores(score_fn, vector, k))
