"""Data model for approval-based committee elections.

Candidates are the integers 0..m-1.  A ballot is a non-empty set of
candidates, coded as its bitmask (bit c set when it approves candidate c),
and a committee is a sorted tuple of k indices.  A profile is the tuple of
its voters' ballot masks, voter i at position i: a voter permutation
permutes the tuple, and a disjoint sum concatenates two.  Ballots appear as
frozensets only at the edge: `Profile.from_ballots`, `Profile.ballot_list`
and the text format.  Canonical forms are profiles too: the orbit
representative under voter permutation and candidate renaming, its voters in
:func:`all_ballots` order.  `ProfileVector`, a sparse count per ballot mask,
remains only as the argument of `rules.vector_scores` and
`rules.winners_from_vector`.
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


@dataclass(frozen=True)
class Profile:
    """An approval profile: candidate count plus one ballot mask per voter.

    Voter i is position i of `masks`.  Anonymity makes positions
    semantically inert, but they are kept so that voter permutations and
    disjoint sums are well-defined.
    """

    m: int
    masks: tuple[int, ...]
    # the kernel's terms, (mask, count) per distinct ballot: counted from the
    # masks, in order of first occurrence, unless the builder passes them
    _terms: tuple[tuple[int, int], ...] | None = field(default=None, kw_only=True, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least 2 candidates")
        if not self.masks:
            raise ValueError("profile must contain at least one ballot")
        if self._terms is None:
            object.__setattr__(self, "_terms", tuple(Counter(self.masks).items()))
        for mask, _ in self._terms:
            if not (type(mask) is int and 0 < mask and mask.bit_length() <= self.m):  # 0 < mask < 2**m
                raise ValueError(f"ballot mask {mask!r} out of range for m={self.m}")

    @classmethod
    def from_ballots(cls, m: int, ballots) -> "Profile":
        """Build a profile from an iterable of candidate sets, voter i from the i-th."""
        return cls(m, tuple(map(ballot_mask, ballots)))

    @property
    def n_voters(self) -> int:
        return len(self.masks)

    @property
    def ballots(self) -> tuple[int, ...]:
        """The ballot masks again, under the name perfbench's layer tracer counts voters by."""
        return self.masks

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """(mask, count) per distinct ballot."""
        return self._terms

    def ballot_list(self) -> list[Ballot]:
        """The voters' ballots as candidate sets, in voter order."""
        decoded = {mask: mask_ballot(mask) for mask, _ in self._terms}
        return list(map(decoded.__getitem__, self.masks))

    def permute_voters(self, mapping: dict[int, int]) -> "Profile":
        """Apply a voter permutation: voter i becomes voter mapping[i]."""
        voters = list(range(len(self.masks)))
        if sorted(mapping) != voters or sorted(mapping.values()) != voters:
            raise ValueError(f"{mapping} is not a permutation of the voters 0..{len(voters) - 1}")
        masks = [0] * len(voters)
        for i, j in mapping.items():
            masks[j] = self.masks[i]
        return Profile(self.m, tuple(masks), _terms=self._terms)

    def approved_candidates(self) -> frozenset[int]:
        covered = 0
        for mask, _ in self._terms:
            covered |= mask
        return mask_ballot(covered)


@dataclass(frozen=True)
class ProfileVector:
    """Sparse vector over ballot masks with exact rational entries.

    Entries are stored zero-free and sorted by ballot mask, so equal vectors
    compare equal and hash alike.  Ordinary profiles always map to
    non-negative integer entries; negative and fractional entries are allowed
    to host the extension of rules to rational vectors.
    """

    m: int
    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        last = 0
        for mask, value in self.entries:
            if not (0 < mask and mask.bit_length() <= self.m):  # 0 < mask < 2**m, without 2**m
                raise ValueError(f"ballot mask {mask} out of range for m={self.m}")
            if mask <= last:
                raise ValueError("entries must be sorted by ballot mask")
            if value == 0:
                raise ValueError("zero entries must be omitted")
            last = mask

    @classmethod
    def from_dict(cls, m: int, entries: dict[int, Fraction | int]) -> "ProfileVector":
        return cls(m, tuple((mask, Fraction(value)) for mask, value in sorted(entries.items()) if value != 0))


# Most committees, C(m, k), that any scoring entry point enumerates, and most
# bytes that they may take cached.  A cached committee (tuple plus bitmask) took
# about 80 B, plus 8 B per member, plus its mask of up to m bits: 168 B at
# C(20, 10) = 184,756, 16 kB at C(2000, 1999) = 2,000 and 1.6 kB at
# C(21900, 1) (CPython 3.11, tracemalloc).  So one (m, k) at the count limit
# holds about 34 MB, and scoring it against 100 distinct ballots took about
# 1.7 s; the byte limit holds a few wide committees (k or m in the thousands)
# to the same 34 MB.
MAX_COMMITTEES = 200_000
MAX_COMMITTEE_BYTES = 34_000_000


def check_committee_size(m: int, k: int) -> None:
    """Refuse a committee size k outside 1..m-1."""
    if not 1 <= k <= m - 1:
        raise ValueError(f"committee size k={k} must satisfy 1 <= k <= m-1={m - 1}")


def check_committee_limit(m: int, k: int) -> None:
    """Refuse more than MAX_COMMITTEES size-k committees of m candidates, or more
    than MAX_COMMITTEE_BYTES for them cached, at 80 B plus 8 B per member plus
    4 B per 30 bits of mask each (CPython's int digits).  A mask is as wide as
    its committee's largest member + 1, on average m * k / (k + 1) bits.
    comb(m, k) costs about min(k, m - k) products, so it is skipped past 20:
    C(m, k) >= C(42, 21) > 5 * 10**11 is then over the limit anyway."""
    if min(k, m - k) > 20 or (count := comb(m, k)) > MAX_COMMITTEES:
        raise ValueError(f"C({m},{k}) committees exceed the enumeration limit {MAX_COMMITTEES}")
    if count * (80 + 8 * k + 4 * m * k // (30 * (k + 1))) > MAX_COMMITTEE_BYTES:
        limit = f"the memory limit {MAX_COMMITTEE_BYTES} B"
        raise ValueError(f"C({m},{k}) committees with their {m}-bit masks exceed {limit}")


def enumerate_committees(m: int, k: int) -> list[Committee]:
    """All C(m,k) size-k committees in lexicographic order of sorted members.

    This order is the canonical committee indexing used everywhere downstream
    (winner sets, serialized choice sets, constraint generation).
    """
    check_committee_size(m, k)
    return list(itertools.combinations(range(m), k))


def ballot_mask(members) -> int:
    """The bitmask of a ballot, or of any set of candidates: bit c set for each member c."""
    mask = 0
    for c in members:
        mask |= 1 << c
    return mask


def _members(mask: int) -> list[int]:
    """The candidates of a mask, in increasing order."""
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def mask_ballot(mask: int) -> Ballot:
    """Inverse of :func:`ballot_mask`."""
    return frozenset(_members(mask))


def all_ballots(m: int) -> list[Ballot]:
    """All non-empty ballots, by size and then lexicographically on their sorted members."""
    by_size = (itertools.combinations(range(m), size) for size in range(1, m + 1))
    return [frozenset(members) for members in itertools.chain.from_iterable(by_size)]


def all_ballots_profile(m: int) -> Profile:
    """The fully symmetric profile reporting every non-empty ballot exactly once."""
    return Profile.from_ballots(m, all_ballots(m))


def profile_to_vector(profile: Profile) -> ProfileVector:
    return ProfileVector.from_dict(profile.m, dict(profile.terms))


def check_same_candidates(a: Profile, b: Profile) -> None:
    """Refuse two profiles over different candidate counts, which can be neither
    added nor scored as a pair."""
    if a.m != b.m:
        raise ValueError(f"profiles must share the candidate count: m={a.m} and m={b.m}")


def add_profiles(a: Profile, b: Profile) -> Profile:
    """Disjoint sum of two profiles over the same candidate set: b's voters follow a's."""
    check_same_candidates(a, b)
    return Profile(a.m, a.masks + b.masks)


def scale_profile(profile: Profile, factor: int) -> Profile:
    """Profile consisting of `factor` copies of the voters, one copy after another."""
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    terms = tuple((mask, count * factor) for mask, count in profile.terms)
    return Profile(profile.m, profile.masks * factor, _terms=terms)


def check_permutation(tau: tuple[int, ...], m: int) -> None:
    if len(tau) != m or sorted(tau) != list(range(m)):
        raise ValueError(f"{tau} is not a permutation of 0..{m - 1}")


def _renamed(mask: int, tau: tuple[int, ...]) -> int:
    """The mask of the ballot with each candidate c renamed to tau[c]."""
    out = 0
    for c in range(mask.bit_length()):
        if mask >> c & 1:
            out |= 1 << tau[c]
    return out


def apply_candidate_permutation(profile: Profile, tau: tuple[int, ...]) -> Profile:
    """Rename candidate c to tau[c] in every ballot, each distinct ballot once; voters keep their positions."""
    check_permutation(tau, profile.m)
    image = {mask: _renamed(mask, tau) for mask, _ in profile.terms}
    terms = tuple((image[mask], count) for mask, count in profile.terms)
    return Profile(profile.m, tuple(map(image.__getitem__, profile.masks)), _terms=terms)


# The tables for m hold m! - 1 rows of 2^m - 1 entries once built: under
# 0.5 MB at m = 6, about 84 MB at m = 8 and about 1.5 GB at m = 9.
MAX_CANONICAL_M = 8


@functools.cache
def _ballot_positions(m: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The masks of :func:`all_ballots` and each one's position among them, built once per m."""
    masks = tuple(map(ballot_mask, all_ballots(m)))
    return masks, {mask: i for i, mask in enumerate(masks)}


@functools.cache
def ballot_permutation_tables(m: int) -> tuple[tuple[int, ...], ...]:
    """For every non-identity candidate permutation tau, in `itertools.permutations`
    order, the table mapping position i in :func:`all_ballots` to that of tau(ballot i).

    Built on first use for each m and kept for the life of the process.
    """
    if not 2 <= m <= MAX_CANONICAL_M:
        raise ValueError(f"canonical forms need 2 <= m <= {MAX_CANONICAL_M}")
    masks, position = _ballot_positions(m)
    perms = itertools.permutations(range(m))
    next(perms)  # the identity
    return tuple(tuple(position[_renamed(mask, tau)] for mask in masks) for tau in perms)


def canonical_form(profile: Profile) -> Profile:
    """Orbit representative under voter permutation and candidate renaming.

    Returns the profile whose ballot counts, read in :func:`all_ballots` order,
    are lexicographically least over all m! candidate permutations of the
    anonymized profile, its voters in that order.  Two profiles have equal
    canonical forms iff they differ only by the order of their voters and
    candidate names.

    For multisets of equal size, count vector A is lexicographically less
    than count vector B exactly when the sorted tuple of A's ballot positions
    in that order is lexicographically greater than that of B: at the first
    position where the counts differ, B holds more copies of it and A a
    later position in its place.  So the least vector is the one whose
    sorted position tuple is greatest over the identity and the m! - 1
    tables of :func:`ballot_permutation_tables`; each costs one lookup per
    voter and a sort.  m is capped at MAX_CANONICAL_M.
    """
    tables = ballot_permutation_tables(profile.m)
    masks, position = _ballot_positions(profile.m)
    combo = sorted(map(position.__getitem__, profile.masks))
    best = max([combo, *(sorted(map(table.__getitem__, combo)) for table in tables)])
    return Profile(profile.m, tuple(map(masks.__getitem__, best)))


# ---------------------------------------------------------------------------
# Profile text format
#
# UTF-8, LF line endings.  Lines starting with '#' are comments, blank lines
# are skipped.  The first non-comment line is `m=<int>`; every further
# non-blank line is one voter's ballot as strictly increasing space-separated
# 0-based candidate indices.  Numbers are plain ASCII digits (no sign, no
# underscores).  Multiplicity by repetition; voters are numbered 0,1,2,... in
# file order.
# ---------------------------------------------------------------------------


def _header(rows) -> tuple[int, int]:
    """(rows read, m) from the stripped rows of profile text, up to its `m=` line."""
    for line_no, line in enumerate(rows, start=1):
        if line and not line.startswith("#"):
            break
    else:
        raise ProfileFormatError(1, "missing 'm=<int>' line")
    if not line.startswith("m="):
        raise ProfileFormatError(line_no, "expected 'm=<int>' before any ballot line")
    count = line[2:].strip()
    if not (count.isascii() and count.isdigit()):
        raise ProfileFormatError(line_no, f"invalid candidate count {line[2:]!r}")
    m = int(count)
    if m < 2:
        raise ProfileFormatError(line_no, "candidate count must be at least 2")
    return line_no, m


def _indices(line: str, m: int) -> list[int]:
    """The candidate indices of one stripped ballot line, checked."""
    tokens = line.split()
    # int() alone would also take "+1", "1_0" and non-ASCII digits
    if not (line.isascii() and "".join(tokens).isdigit()):
        raise ValueError(f"invalid ballot line {line!r}")
    indices = list(map(int, tokens))
    if not all(map(operator.lt, indices, indices[1:])):
        raise ValueError("ballot indices must be strictly increasing")
    if indices[-1] >= m:
        raise ValueError(f"ballot indices must lie in 0..{m - 1}")
    return indices


def _read_ballots(rows: list[str], code, k: int | None = None, lines: dict | None = None):
    """(m, ballot lines in file order, line -> code(its indices), code -> count)
    of profile text's rows, each already stripped.

    Each distinct ballot line is counted, then checked and coded once, in file
    order, so the first bad line is reported where it first occurs, as row
    index + 1.  `lines` maps each m to the lines coded so far, since whether a
    line is valid depends on m.  A given k passes the size check and then the
    committee limit on the `m=` line, before any line is coded."""
    start, m = _header(rows)
    if k is not None:
        check_committee_size(m, k)
        check_committee_limit(m, k)
    body = [line for line in rows[start:] if line and line[0] != "#"]
    if not body:
        raise ProfileFormatError(1, "profile contains no ballots")
    coded = {} if lines is None else lines.setdefault(m, {})
    totals: dict = {}
    for line, count in Counter(body).items():
        key = coded.get(line)
        if key is None:
            try:
                key = coded[line] = code(_indices(line, m))
            except ValueError as err:
                raise ProfileFormatError(rows.index(line, start) + 1, str(err)) from None
        totals[key] = totals.get(key, 0) + count
    return m, body, coded, totals


def parse_profile(text: str, k: int | None = None) -> Profile:
    """The profile in `text`.  Each distinct ballot line is checked and coded to
    its mask once, and the kernel's terms come from the line counts.

    With a committee size `k`, a k outside 1..m-1 and then C(m, k) over the
    committee limit are refused, as plain ValueErrors, before any ballot line
    becomes a mask, which for candidate 19999999999 alone would take 2.5 GB."""
    m, body, coded, totals = _read_ballots(list(map(str.strip, text.split("\n"))), ballot_mask, k)
    return Profile(m, tuple(map(coded.__getitem__, body)), _terms=tuple(totals.items()))


def parse_ballot_counts(text: str) -> tuple[int, dict[Ballot, int]]:
    """m and the count of each distinct ballot of profile text, as candidate sets,
    with no mask built: a mask is as wide as its largest candidate, so candidate
    19999999999 alone would take 2.5 GB.  Errors as in :func:`parse_profile`."""
    m, _, _, totals = _read_ballots(list(map(str.strip, text.split("\n"))), frozenset)
    return m, totals


def format_profile(profile: Profile) -> str:
    """Render a profile in the text format, voters in order."""
    lines = [f"m={profile.m}"]
    rendered = {mask: " ".join(map(str, _members(mask))) for mask, _ in profile.terms}
    lines.extend(map(rendered.__getitem__, profile.masks))
    return "\n".join(lines) + "\n"


def format_committee(committee: Committee) -> str:
    return "{" + ",".join(str(c) for c in committee) + "}"


def format_choice_set(choices: ChoiceSet) -> str:
    return " ".join(format_committee(w) for w in sorted(choices))
