"""Independent reference scorer for checking abcvote's output.

Nothing here imports abcvote.  Ballots are bitmasks, identical ballots are
counted once with a multiplicity, and each rule becomes a table of exact
scores s(x, y) (x = |ballot ∩ committee|, y = |ballot|) scaled to integers
by the lcm of its denominators, so a committee's score is an integer sum
turned back into a `Fraction` at the end.  The program scores voter by voter
in `Fraction` arithmetic; the two paths share no code.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

NAMED = ("av", "pav", "ccav", "sav", "msav")


def _rational(text: str) -> Fraction:
    num, _, den = text.strip().partition("/")
    return Fraction(int(num), int(den or 1))


def fmt(value: Fraction) -> str:
    """p/q, or a plain integer when q is 1 (the program's rendering)."""
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def score_table(spec: str, m: int, k: int) -> list[list[Fraction]]:
    """table[x][y] = s(x, y) for 0 <= x <= k and 1 <= y <= m (column 0 unused)."""
    if spec == "av":
        fn = lambda x, y: Fraction(x)
    elif spec == "pav":
        fn = lambda x, y: sum((Fraction(1, i) for i in range(1, x + 1)), Fraction(0))
    elif spec == "ccav":
        fn = lambda x, y: Fraction(1 if x else 0)
    elif spec == "sav":
        fn = lambda x, y: Fraction(x, y)
    elif spec == "msav":
        fn = lambda x, y: x * max(Fraction(1, y), Fraction(1, k))
    elif spec.startswith("thiele:"):
        values = [_rational(t) for t in spec[len("thiele:"):].split(",")]
        if len(values) != k + 1:
            raise ValueError(f"{spec}: need {k + 1} values")
        fn = lambda x, y: values[x]
    elif spec.startswith("bswav:"):
        alpha = [_rational(t) for t in spec[len("bswav:"):].split(",")]
        if len(alpha) != m:
            raise ValueError(f"{spec}: need {m} weights")
        fn = lambda x, y: alpha[y - 1] * x
    else:
        raise ValueError(f"reference scorer does not know rule {spec!r}")
    return [[Fraction(0)] + [fn(x, y) for y in range(1, m + 1)] for x in range(k + 1)]


def tied_set(spec: str, m: int, k: int, ballots) -> tuple[list[tuple[int, ...]], Fraction]:
    """All maximum-score committees (lexicographic order) and their score.

    `ballots` is any iterable of candidate collections; order and voter
    labels do not matter.
    """
    table = score_table(spec, m, k)
    scale = math.lcm(*(s.denominator for row in table for s in row))
    int_table = [[int(s * scale) for s in row] for row in table]
    counts = Counter(sum(1 << c for c in ballot) for ballot in ballots)
    distinct = [(mask, mask.bit_count(), n) for mask, n in counts.items()]
    best, chosen = None, []
    for committee in itertools.combinations(range(m), k):
        members = sum(1 << c for c in committee)
        total = sum(n * int_table[(mask & members).bit_count()][y] for mask, y, n in distinct)
        if best is None or total > best:
            best, chosen = total, [committee]
        elif total == best:
            chosen.append(committee)
    return chosen, Fraction(best, scale)


def format_committees(committees) -> str:
    return " ".join("{" + ",".join(str(c) for c in w) + "}" for w in sorted(committees))


def winners_stdout(spec: str, m: int, k: int, ballots) -> str:
    """Exact expected stdout of `abcvote winners` in text format."""
    chosen, best = tied_set(spec, m, k, ballots)
    return f"{format_committees(chosen)}  score {fmt(best)}\n"


def fitted_spec(stdout: str, family: str, m: int, k: int) -> str:
    """Turn `s: ...` / `alpha: ...` fit output into a rule spec, checking the
    family's side conditions (monotone Thiele scores with s(0) = 0, or
    non-negative weights).  Raises ValueError on anything malformed."""
    prefix = "s: " if family == "thiele" else "alpha: "
    line = stdout.rstrip("\n")
    if not line.startswith(prefix) or "\n" in line:
        raise ValueError(f"unexpected fit output {stdout!r}")
    values = [_rational(t) for t in line[len(prefix):].split(",")]
    if family == "thiele":
        if len(values) != k + 1 or values[0] != 0:
            raise ValueError("fitted Thiele vector has the wrong shape")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("fitted Thiele vector is not monotone")
        return "thiele:" + ",".join(fmt(v) for v in values)
    if len(values) != m or any(v < 0 for v in values):
        raise ValueError("fitted weights have the wrong shape or sign")
    return "bswav:" + ",".join(fmt(v) for v in values)
