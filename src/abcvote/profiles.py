"""Data model for approval-based committee elections.

Candidates are the integers 0..m-1.  A ballot is a non-empty frozenset of
candidate indices, a committee is a sorted tuple of k indices, and a profile
assigns one ballot to every voter label.  Profiles can also be viewed as
vectors counting how often each of the 2^m - 1 possible ballots occurs; that
vector form is the domain on which rules extend to rational (even negative)
"multiplicities".
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

Ballot = frozenset[int]
Committee = tuple[int, ...]
ChoiceSet = frozenset[Committee]


class ProfileFormatError(ValueError):
    """Raised on malformed profile text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def num_ballots(m: int) -> int:
    """Number of distinct non-empty ballots over m candidates."""
    return 2**m - 1


def validate_ballot(ballot: Ballot, m: int) -> None:
    if not ballot:
        raise ValueError("ballot must be non-empty")
    if not all(isinstance(c, int) and 0 <= c < m for c in ballot):
        raise ValueError(f"ballot {sorted(ballot)} has indices outside 0..{m - 1}")


@dataclass(frozen=True)
class Profile:
    """An approval profile: candidate count plus (voter label, ballot) pairs.

    Voter labels are arbitrary distinct integers; anonymity makes them
    semantically inert, but they are kept explicit so that voter
    permutations and disjoint sums are well-defined.
    """

    m: int
    ballots: tuple[tuple[int, Ballot], ...]
    # the kernel's terms, (ballot bitmask, count) per distinct ballot, counted by
    # `rules._profile_terms` on first use and kept with the profile
    _terms: tuple[tuple[int, int], ...] | None = field(default=None, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least 2 candidates")
        if not self.ballots:
            raise ValueError("profile must contain at least one ballot")
        labels, ballots = zip(*self.ballots)
        if len(set(labels)) != len(labels):
            raise ValueError("voter labels must be pairwise distinct")
        for ballot in dict.fromkeys(ballots):  # each distinct ballot once, in order
            validate_ballot(ballot, self.m)

    @classmethod
    def from_ballots(cls, m: int, ballots) -> "Profile":
        """Build a profile from an iterable of candidate sets, labelling voters 0,1,2,..."""
        return cls(m, tuple((i, frozenset(b)) for i, b in enumerate(ballots)))

    @property
    def n_voters(self) -> int:
        return len(self.ballots)

    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.ballots)

    def ballot_list(self) -> list[Ballot]:
        return [ballot for _, ballot in self.ballots]

    def relabel(self, mapping: dict[int, int]) -> "Profile":
        """Apply a voter permutation: voter `label` becomes `mapping[label]`."""
        return Profile(self.m, tuple((mapping[label], ballot) for label, ballot in self.ballots))

    def approved_candidates(self) -> frozenset[int]:
        out: set[int] = set()
        for _, ballot in self.ballots:
            out |= ballot
        return frozenset(out)


@dataclass(frozen=True)
class ProfileVector:
    """Sparse vector over ballot indices with exact rational entries.

    Entries are stored zero-free and sorted by ballot index, so equal vectors
    compare equal and hash alike.  Ordinary profiles always map to
    non-negative integer entries; negative and fractional entries are allowed
    to host the extension of rules to rational vectors.
    """

    m: int
    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        last = -1
        for idx, value in self.entries:
            if not (0 <= idx and (idx + 1).bit_length() <= self.m):  # idx < 2**m - 1, without 2**m
                raise ValueError(f"ballot index {idx} out of range for m={self.m}")
            if idx <= last:
                raise ValueError("entries must be sorted by ballot index")
            if value == 0:
                raise ValueError("zero entries must be omitted")
            last = idx

    @classmethod
    def from_dict(cls, m: int, entries: dict[int, Fraction | int]) -> "ProfileVector":
        items = tuple(
            (idx, Fraction(value)) for idx, value in sorted(entries.items()) if value != 0
        )
        return cls(m, items)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.entries)

    def dense(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * num_ballots(self.m)
        for idx, value in self.entries:
            out[idx] = value
        return tuple(out)

    def total(self) -> Fraction:
        return sum((value for _, value in self.entries), Fraction(0))

    def __add__(self, other: "ProfileVector") -> "ProfileVector":
        if self.m != other.m:
            raise ValueError("cannot add vectors with different candidate counts")
        acc = dict(self.entries)
        for idx, value in other.entries:
            acc[idx] = acc.get(idx, Fraction(0)) + value
        return ProfileVector.from_dict(self.m, acc)

    def scale(self, factor: Fraction | int) -> "ProfileVector":
        factor = Fraction(factor)
        return ProfileVector.from_dict(self.m, {i: v * factor for i, v in self.entries})


def enumerate_committees(m: int, k: int) -> list[Committee]:
    """All C(m,k) size-k committees in lexicographic order of sorted members.

    This order is the canonical committee indexing used everywhere downstream
    (winner sets, serialized choice sets, constraint generation).
    """
    if m < 2:
        raise ValueError("need at least 2 candidates")
    if not 1 <= k <= m - 1:
        raise ValueError(f"committee size k={k} must satisfy 1 <= k <= m-1={m - 1}")
    return list(itertools.combinations(range(m), k))


def ballot_index(ballot: Ballot, m: int) -> int:
    """Position of a ballot in the fixed enumeration of all non-empty ballots.

    Ballots are ordered by size, then lexicographically on their sorted
    members, which makes vector indices stable across runs.
    """
    validate_ballot(ballot, m)
    members = sorted(ballot)
    size = len(members)
    index = sum(comb(m, s) for s in range(1, size))
    # lexicographic rank of `members` among all size-`size` subsets of 0..m-1
    prev = -1
    for pos, c in enumerate(members):
        for skipped in range(prev + 1, c):
            index += comb(m - skipped - 1, size - pos - 1)
        prev = c
    return index


def index_ballot(index: int, m: int) -> Ballot:
    """Inverse of :func:`ballot_index`."""
    if not (0 <= index and (index + 1).bit_length() <= m):  # index < 2**m - 1, without 2**m
        raise ValueError(f"ballot index {index} out of range for m={m}")
    size = 1
    while index >= comb(m, size):
        index -= comb(m, size)
        size += 1
    members = []
    next_candidate = 0
    for pos in range(size):
        c = next_candidate
        while True:
            below = comb(m - c - 1, size - pos - 1)
            if index < below:
                break
            index -= below
            c += 1
        members.append(c)
        next_candidate = c + 1
    return frozenset(members)


def all_ballots(m: int) -> list[Ballot]:
    """All non-empty ballots in enumeration order."""
    return [index_ballot(i, m) for i in range(num_ballots(m))]


def all_ballots_profile(m: int) -> Profile:
    """The fully symmetric profile reporting every non-empty ballot exactly once."""
    return Profile.from_ballots(m, all_ballots(m))


def profile_to_vector(profile: Profile) -> ProfileVector:
    counts = Counter(ballot for _, ballot in profile.ballots)
    return ProfileVector.from_dict(profile.m, {ballot_index(b, profile.m): n for b, n in counts.items()})


def vector_to_profile(vector: ProfileVector) -> Profile:
    """Materialize a non-negative integer vector as a profile with labels 0,1,2,..."""
    ballots: list[Ballot] = []
    for idx, value in vector.entries:
        if value < 0 or value.denominator != 1:
            raise ValueError("only non-negative integer vectors correspond to profiles")
        ballots.extend([index_ballot(idx, vector.m)] * int(value))
    return Profile.from_ballots(vector.m, ballots)


def add_profiles(a: Profile, b: Profile, relabel: bool = False) -> Profile:
    """Disjoint sum of two profiles over the same candidate set.

    Voter labels must not overlap unless `relabel` is set, in which case b's
    voters are renamed to fresh labels after a's.
    """
    if a.m != b.m:
        raise ValueError("cannot add profiles with different candidate counts")
    a_labels = set(a.labels())
    if relabel:
        start = max(a_labels) + 1
        b = Profile(b.m, tuple((start + i, ballot) for i, (_, ballot) in enumerate(b.ballots)))
    elif a_labels & set(b.labels()):
        raise ValueError("voter labels overlap; pass relabel=True to rename")
    return Profile(a.m, a.ballots + b.ballots)


def scale_profile(profile: Profile, factor: int) -> Profile:
    """Profile consisting of `factor` copies of every ballot, freshly labelled."""
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    ballots = [ballot for _, ballot in profile.ballots] * factor
    return Profile.from_ballots(profile.m, ballots)


def check_permutation(tau: tuple[int, ...], m: int) -> None:
    if len(tau) != m or sorted(tau) != list(range(m)):
        raise ValueError(f"{tau} is not a permutation of 0..{m - 1}")


def apply_candidate_permutation(profile: Profile, tau: tuple[int, ...]) -> Profile:
    """Rename candidate c to tau[c] in every ballot; voter labels are preserved."""
    check_permutation(tau, profile.m)
    return Profile(
        profile.m,
        tuple((label, frozenset(tau[c] for c in ballot)) for label, ballot in profile.ballots),
    )


# The tables for m hold m! - 1 rows of 2^m - 1 entries once built: under
# 0.5 MB at m = 6, about 84 MB at m = 8 and about 1.5 GB at m = 9.
MAX_CANONICAL_M = 8


@functools.cache
def ballot_permutation_tables(m: int) -> tuple[tuple[int, ...], ...]:
    """For every non-identity candidate permutation tau, in `itertools.permutations`
    order, the table mapping ballot index i to the index of tau(ballot i).

    Built on first use for each m and kept for the life of the process.
    """
    if not 2 <= m <= MAX_CANONICAL_M:
        raise ValueError(f"canonical forms need 2 <= m <= {MAX_CANONICAL_M}")
    ballots = all_ballots(m)
    index = {ballot: i for i, ballot in enumerate(ballots)}
    perms = itertools.permutations(range(m))
    next(perms)  # the identity
    return tuple(tuple(index[frozenset(map(tau.__getitem__, b))] for b in ballots) for tau in perms)


def canonical_form(profile: Profile) -> ProfileVector:
    """Orbit representative under voter relabelling and candidate renaming.

    Returns the lexicographically least profile vector over all m! candidate
    permutations of the anonymized profile.  Two profiles have equal
    canonical forms iff they differ only by voter labels and candidate names.

    For multisets of equal size, dense vector A is lexicographically less
    than dense vector B exactly when the sorted ballot-index tuple of A is
    lexicographically greater than that of B: at the first index where the
    counts differ, B holds more copies of it and A a larger index in its
    place.  So the least vector is the one whose sorted index tuple is
    greatest over the identity and the m! - 1 tables of
    :func:`ballot_permutation_tables`; each costs one lookup per voter and
    a sort.  m is capped at MAX_CANONICAL_M.
    """
    combo = sorted(ballot_index(ballot, profile.m) for _, ballot in profile.ballots)
    tables = ballot_permutation_tables(profile.m)
    best = max([combo, *(sorted(map(table.__getitem__, combo)) for table in tables)])
    return ProfileVector.from_dict(profile.m, Counter(best))


# ---------------------------------------------------------------------------
# Profile text format
#
# UTF-8, LF line endings.  Lines starting with '#' are comments, blank lines
# are skipped.  The first non-comment line is `m=<int>`; every further
# non-blank line is one voter's ballot as strictly increasing space-separated
# 0-based candidate indices.  Numbers are plain ASCII digits (no sign, no
# underscores).  Multiplicity by repetition; voter labels are assigned
# 0,1,2,... in file order.
# ---------------------------------------------------------------------------


def parse_profile(text: str, lines: dict[int, dict[str, Ballot]] | None = None) -> Profile:
    """The profile in `text`.  Each distinct ballot line is checked once; pass the
    same `lines` to every block of one file to share those checks among them:
    it maps each candidate count to its stripped ballot lines and their ballots,
    since whether a line is valid depends on m."""
    m: int | None = None
    ballots: list[Ballot] = []
    parsed: dict[str, Ballot] = {}  # stripped line -> its ballot
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m is None:
            if not line.startswith("m="):
                raise ProfileFormatError(line_no, "expected 'm=<int>' before any ballot line")
            count = line[2:].strip()
            if not (count.isascii() and count.isdigit()):
                raise ProfileFormatError(line_no, f"invalid candidate count {line[2:]!r}")
            m = int(count)
            if m < 2:
                raise ProfileFormatError(line_no, "candidate count must be at least 2")
            if lines is not None:
                parsed = lines.setdefault(m, parsed)
            continue
        ballot = parsed.get(line)
        if ballot is not None:
            ballots.append(ballot)
            continue
        tokens = line.split()
        # int() alone would also take "+1", "1_0" and non-ASCII digits
        if not (line.isascii() and "".join(tokens).isdigit()):
            raise ProfileFormatError(line_no, f"invalid ballot line {line!r}")
        indices = list(map(int, tokens))
        if not indices:
            raise ProfileFormatError(line_no, "empty ballot")
        if not all(map(operator.lt, indices, indices[1:])):
            raise ProfileFormatError(line_no, "ballot indices must be strictly increasing")
        if indices[0] < 0 or indices[-1] >= m:
            raise ProfileFormatError(line_no, f"ballot indices must lie in 0..{m - 1}")
        ballots.append(parsed.setdefault(line, frozenset(indices)))
    if m is None:
        raise ProfileFormatError(1, "missing 'm=<int>' line")
    if not ballots:
        raise ProfileFormatError(1, "profile contains no ballots")
    return Profile.from_ballots(m, ballots)


def format_profile(profile: Profile, comments: list[str] | None = None) -> str:
    """Render a profile in the text format (ballots in voter-label order)."""
    lines = [f"# {c}" for c in comments or []]
    lines.append(f"m={profile.m}")
    for _, ballot in sorted(profile.ballots):
        lines.append(" ".join(str(c) for c in sorted(ballot)))
    return "\n".join(lines) + "\n"


def format_committee(committee: Committee) -> str:
    return "{" + ",".join(str(c) for c in committee) + "}"


def format_choice_set(choices: ChoiceSet) -> str:
    return " ".join(format_committee(w) for w in sorted(choices))
