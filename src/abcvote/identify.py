"""Inverse problem: recover scoring parameters from observed choice sets.

Given observations (profile, full tied winner set), membership of a
committee in the winner set is linear in the unknown Thiele scores or
ballot-size weights.  Each observation therefore contributes ties (a weak
row each way) between the designated committee, the least chosen one, and
every other chosen committee, and strict rows putting the designated
committee above each committee not chosen; rows these imply are not
stated, and each row is kept once.  Strictness is encoded as margin >= 1,
which is sound here because the constraint family is scale-invariant: any
strictly feasible parameter vector scales to clear margin one.  Rows are
built on the scoring kernel's committee bitmasks from the terms each
observation carries, one (ballot mask, count) per distinct ballot, and
the fitted rule is re-checked by the kernel on the same terms.  Row
entries are integers.  Feasibility is decided by midpoint stages: each
unknown in turn is fixed to the midpoint of its feasible interval, whose
ends are exact rational LPs (dual simplex, Bland's rule) on integer rows
over one stage denominator, so fitted values are deterministic; the last
unknown is read off its two tightest rows with no LP.  Only when a stage
finds no point does a Farkas LP run, to certify infeasibility with a
checkable non-negative combination of the rows of that system that sums
to an impossible row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import le, lt, sub

from .profiles import (
    ChoiceSet,
    Profile,
    ProfileFormatError,
    _members,
    _read_ballots,
    ballot_mask,
    check_committee_size,
    format_committee,
    format_profile,
)
from .rules import (
    BswavWeights,
    Rule,
    ThieleScore,
    _argmax,
    _committee_masks,
    _scores,
    format_rational,
)

MAX_UNKNOWNS = 8


def _check_choice(m: int, chosen: ChoiceSet, k: int) -> None:
    check_committee_size(m, k)
    if not chosen:
        raise ValueError("observed choice set must be non-empty")
    for committee in chosen:
        if len(committee) != k:
            raise ValueError("observed committees must all have size k")
        if any(map(le, committee[1:], committee)):
            raise ValueError("observed committees must be strictly increasing index lists")
        if not (0 <= committee[0] and committee[-1] < m):  # its ends bound a strictly increasing committee
            raise ValueError("committee members out of range")


@dataclass(frozen=True)
class Observation:
    """One observed election: its ballots as the kernel's terms, the full tied choice set, and k.

    `terms` is ((mask, count), ...), one term per distinct ballot in increasing mask order,
    each count a positive int, so equal observations compare equal.
    """

    m: int
    terms: tuple[tuple[int, int], ...]
    chosen: ChoiceSet
    k: int

    def __post_init__(self):
        _check_choice(self.m, self.chosen, self.k)
        masks = [0, *(mask for mask, _ in self.terms)]
        if not all(map(lt, masks, masks[1:])) or masks[-1].bit_length() > self.m:
            raise ValueError(f"terms need ballot masks increasing from 1 to below 2**m, m={self.m}")
        if not all(type(count) is int and count > 0 for _, count in self.terms):
            raise ValueError("term counts must be positive integers")

    @classmethod
    def from_profile(cls, profile: Profile, chosen: ChoiceSet, k: int) -> "Observation":
        """The observation of `profile`, one term per distinct ballot."""
        return cls(profile.m, tuple(sorted(profile.terms)), frozenset(chosen), k)


@dataclass
class ConstraintSystem:
    """Homogeneous inequalities over named unknowns.

    Rows are coefficient tuples c meaning c . u >= 0 (weak) or c . u >= 1
    (strict): in a fit, the side constraints and each observation's ties
    with its designated committee, then that committee against the rest,
    each row once.  Entries are ints.  Certificates name rows of this
    system, counting weak rows first, then strict rows.
    """

    unknowns: tuple[str, ...]
    weak: list[tuple[int, ...]]
    strict: list[tuple[int, ...]]

    def all_rows(self) -> list[tuple[tuple[int, ...], int]]:
        rows = [(c, 0) for c in self.weak]
        rows += [(c, 1) for c in self.strict]
        return rows


def _observation_rows(obs: Observation, family: str):
    """Tie rows (weak) and strict rows of one observation, on the kernel's bitmasks.

    With w the count of ballot A, a committee W's row is integral: Thiele adds
    w to the coefficient of s_x, x = |A & W| >= 1; ballot-size weights add
    w * |A & W| to that of alpha_|A|, skipping full ballots, which add the
    same constant to every committee.  Rows are differences of these.
    Cost: C(m, k) committees times the distinct ballots.
    """
    m, k = obs.m, obs.k
    committees, masks = _committee_masks(m, k)
    table = []
    if family == "thiele":
        for cm in masks:
            coeffs = [0] * (k + 1)
            for mask, w in obs.terms:
                coeffs[(mask & cm).bit_count()] += w
            table.append(coeffs[1:])
    else:
        sized = [(mask, w, mask.bit_count() - 1) for mask, w in obs.terms if mask.bit_count() < m]
        for cm in masks:
            coeffs = [0] * (m - 1)
            for mask, w, y in sized:
                coeffs[y] += w * (mask & cm).bit_count()
            table.append(coeffs)
    designated, *tied = [row for w, row in zip(committees, table) if w in obs.chosen]
    weak = [tuple(map(sub, a, b)) for other in tied for a, b in ((designated, other), (other, designated))]
    strict = [tuple(map(sub, designated, other)) for w, other in zip(committees, table) if w not in obs.chosen]
    return weak, strict


def build_system(observations: list[Observation], family: str) -> ConstraintSystem:
    """Constraint system whose solutions are exactly the parameter vectors
    reproducing every observation, plus the family's side constraints
    (Thiele: monotone with s_0 = 0; weights: non-negative).

    The observations must be non-empty and share m and k, which fix the
    unknowns: s_1..s_k for Thiele, alpha_1..alpha_{m-1} for weights.
    """
    if family not in ("thiele", "bswav"):
        raise ValueError("family must be 'thiele' or 'bswav'")
    if not observations:
        raise ValueError("need at least one observation to fit")
    m, k = observations[0].m, observations[0].k
    if any(o.k != k or o.m != m for o in observations):
        raise ValueError("observations must share m and k")

    if family == "thiele":
        unknowns = tuple(f"s_{x}" for x in range(1, k + 1))
        side = []
        first = [0] * k
        first[0] = 1
        side.append(tuple(first))  # s_1 >= s_0 = 0
        for x in range(1, k):
            row = [0] * k
            row[x] = 1
            row[x - 1] = -1
            side.append(tuple(row))  # s_{x+1} >= s_x
    else:
        unknowns = tuple(f"alpha_{y}" for y in range(1, m))
        side = []
        for y in range(m - 1):
            row = [0] * (m - 1)
            row[y] = 1
            side.append(tuple(row))  # alpha_y >= 0

    if len(unknowns) > MAX_UNKNOWNS:
        raise ValueError(f"{len(unknowns)} unknowns exceed the solver cap {MAX_UNKNOWNS}")

    weak = list(side)
    strict: list[tuple[int, ...]] = []
    for obs in observations:
        w, s = _observation_rows(obs, family)
        weak.extend(w)
        strict.extend(s)
    return ConstraintSystem(unknowns, list(dict.fromkeys(weak)), list(dict.fromkeys(strict)))


@dataclass
class FeasibilityResult:
    feasible: bool
    point: tuple[Fraction, ...] | None = None
    certificate: dict[int, Fraction] | None = None


def _tightest(rows):
    """Per direction, the row with the largest right-hand side.

    `rows` holds (coefficients, numerator, source): integer coefficients, not
    all zero, and the integer numerator of the right-hand side, all rows'
    over one common denominator.  Each row is divided by the gcd h of its
    coefficients, so rows fall into the same classes as when divided by the
    absolute value of their leading coefficient, and within a class the first
    of the largest numerator / h wins, compared by cross-multiplying.
    Returns (direction, numerator, source, h) tuples in order of first
    appearance.
    """
    best: dict[tuple[int, ...], tuple] = {}
    for coeffs, num, source in rows:
        h = gcd(*coeffs)
        key = tuple(coeffs) if h == 1 else tuple(c // h for c in coeffs)
        kept = best.get(key)
        if kept is None or num * kept[3] > kept[1] * h:
            best[key] = (key, num, source, h)
    return list(best.values())


def _integer_costs(stage) -> tuple[list[int], int]:
    """The right-hand sides numerator / h of `_tightest`'s rows as integers
    over their least common denominator, and that denominator."""
    reduced = []
    for _, num, _, h in stage:
        g = gcd(num, h)
        reduced.append((num // g, h // g))
    scale = lcm(*(d for _, d in reduced))
    return [num * (scale // d) for num, d in reduced], scale


class _Unbounded(ArithmeticError):
    """The linear program's objective is unbounded above."""


def _simplex(columns: list[tuple[int, ...]], rhs: tuple[int, ...], costs: list[int] | None = None):
    """Exact two-phase simplex with Bland's rule on an integer tableau.

    Maximizes costs . y subject to sum_i y_i * columns[i] = rhs and y >= 0,
    with integer columns, rhs and costs.  Returns None when no such y exists,
    raises `_Unbounded` when costs . y has no maximum, else
    (optimum, {column: y_column > 0}); with costs None only phase 1 runs
    and the optimum is 0.  The tableau is kept fraction-free (Edmonds'
    integer pivoting): its true entries are the stored integers over the
    common denominator `denom`, and every division below is exact.
    Artificial variables are never re-entered, and Bland's smallest-index
    rule rules out cycling.
    """
    ncols = len(columns)
    tableau = []
    for r, b in enumerate(rhs):
        sign = -1 if b < 0 else 1
        tableau.append([sign * col[r] for col in columns] + [sign * b])
    basis = [ncols + r for r in range(len(tableau))]  # artificials first
    denom = 1
    # phase 1 maximizes minus the sum of the artificials
    z = [sum(entries) for entries in zip(*tableau)]

    def pivot(r: int, c: int) -> None:
        nonlocal denom, z
        prow = tableau[r]
        p = prow[c]
        for i, row in enumerate(tableau):
            if i != r:
                tableau[i] = _eliminate(row, prow, p, row[c], denom)
        z = _eliminate(z, prow, p, z[c], denom)
        basis[r] = c
        denom = p
        if p < 0:
            for i, row in enumerate(tableau):
                tableau[i] = [-a for a in row]
            z = [-a for a in z]
            denom = -p

    def run() -> bool:
        """Bland pivots until optimal (True) or unbounded (False)."""
        while True:
            c = next((j for j in range(ncols) if z[j] > 0), None)
            if c is None:
                return True
            leave = None
            for i, row in enumerate(tableau):
                a = row[c]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    here, there = row[-1] * tableau[leave][c], tableau[leave][-1] * a
                    if here < there or (here == there and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                return False
            pivot(leave, c)

    run()
    if z[-1]:  # an artificial stays positive
        return None
    if costs is None:
        return Fraction(0), _solution(tableau, basis, denom, ncols)
    for r in reversed(range(len(tableau))):
        if basis[r] >= ncols:  # a zero artificial: pivot it out, or drop its redundant row
            c = next((j for j in range(ncols) if tableau[r][j]), None)
            if c is None:
                del tableau[r], basis[r]
            else:
                pivot(r, c)
    z = [denom * cost for cost in costs] + [0]
    for row, b in zip(tableau, basis):
        if costs[b]:
            z = [a - costs[b] * x for a, x in zip(z, row)]
    if not run():
        raise _Unbounded("the linear program is unbounded")
    return Fraction(-z[-1], denom), _solution(tableau, basis, denom, ncols)


def _solution(tableau: list[list[int]], basis: list[int], denom: int, ncols: int) -> dict[int, Fraction]:
    return {b: Fraction(row[-1], denom) for row, b in zip(tableau, basis) if row[-1] and b < ncols}


def _eliminate(row: list[int], prow: list[int], p: int, f: int, denom: int) -> list[int]:
    if not f:
        return row if p == denom else [p * a // denom for a in row]
    return [(p * a - f * b) // denom for a, b in zip(row, prow)]


def _midpoint(lower: Fraction | None, upper: Fraction | None) -> Fraction:
    if lower is not None and upper is not None:
        return (lower + upper) / 2
    if lower is not None:
        return lower + 1
    if upper is not None:
        return upper - 1
    return Fraction(0)


def _midpoint_point(distinct, n: int) -> list[Fraction] | None:
    """The midpoint rule's values, unknown by unknown, or None once a stage
    shows the rows infeasible.

    A stage's rows are `_tightest`'s over the unknowns not yet fixed, with
    numerators over the stage denominator `denom`.  Each end of an interval
    is the optimum of the dual LP max{b'.y : A'^T y = +-e_0, y >= 0}, whose
    costs are those numerators; an infeasible dual leaves that end open, an
    unbounded one shows the rows infeasible.  One unknown left, its rows are
    one x >= lower and one x <= upper at most, read off with no LP.
    """
    values: list[Fraction] = []
    stage, denom = distinct, 1
    for j in range(n - 1):
        columns = [key for key, *_ in stage]
        costs, scale = _integer_costs(stage)
        denom *= scale
        unit = (0,) * (n - j - 1)
        ends = []
        for sign in (1, -1):
            try:
                optimum = _simplex(columns, (sign, *unit), costs)
            except _Unbounded:
                return None
            ends.append(None if optimum is None else sign * optimum[0] / denom)
        value = _midpoint(*ends)
        values.append(value)
        # substituting x_j keeps parallel rows parallel: again keep the tightest
        common = lcm(denom, value.denominator)
        a, b = common // denom, common // value.denominator * value.numerator
        stage = _tightest((key[1:], cost * a - key[0] * b, None) for key, cost in zip(columns, costs) if any(key[1:]))
        denom = common
    if n:
        ends = [None, None]
        for (c,), num, _, h in stage:  # c is 1 (a lower end) or -1 (an upper end)
            ends[c < 0] = Fraction(c * num, h * denom)
        if None not in ends and ends[0] > ends[1]:
            return None
        values.append(_midpoint(*ends))
    return values


def solve_feasibility(system: ConstraintSystem) -> FeasibilityResult:
    """Exact rational LP (dual simplex, Bland's rule) with the midpoint rule.

    The midpoint stages decide feasibility: they fix the unknowns in index
    order to the midpoint of their residual interval (lower + 1 when
    unbounded above, upper - 1 when unbounded below, 0 when unconstrained),
    two dual LPs per unknown but the last, whose interval is read off its two
    tightest rows, and the point is returned once it satisfies every row.
    Only when a stage's dual LP is unbounded, the last interval is empty or
    the point fails a row does the Farkas LP run, to certify infeasibility:
    non-negative multipliers over original row indices combining to
    0 >= positive, read off a feasible y >= 0 with A^T y = 0 and b.y = 1.
    Row entries must be ints.
    """
    n = len(system.unknowns)
    if n > MAX_UNKNOWNS:
        raise ValueError(f"{n} unknowns exceed the solver cap {MAX_UNKNOWNS}")
    rows = []
    for i, (coeffs, rhs) in enumerate(system.all_rows()):
        if not all(type(c) is int for c in coeffs):
            raise ValueError(f"row {i} has an entry that is not an int")
        if not any(coeffs):
            if rhs > 0:
                return FeasibilityResult(False, None, {i: Fraction(1)})
            continue
        rows.append((coeffs, rhs, i))
    distinct = _tightest(rows)

    values = _midpoint_point(distinct, n)
    if values is not None:
        point = tuple(values)
        scale = lcm(*(v.denominator for v in point))
        scaled = [v.numerator * (scale // v.denominator) for v in point]
        # every row but the all-zero ones, times a positive integer
        if all(sum(c * v for c, v in zip(ints, scaled)) >= rhs * scale for ints, rhs, _ in rows):
            return FeasibilityResult(True, point, None)

    costs, scale = _integer_costs(distinct)
    farkas = _simplex([key + (c,) for (key, *_), c in zip(distinct, costs)], (0,) * n + (scale,))
    if farkas is None:
        raise AssertionError("the midpoint stages failed but the Farkas LP found no certificate")
    certificate = {}
    for col, y in farkas[1].items():
        _, _, i, h = distinct[col]
        certificate[i] = y / h
    if not verify_certificate(system, certificate):
        raise AssertionError("the LP produced an invalid certificate")
    return FeasibilityResult(False, None, certificate)


def verify_certificate(system: ConstraintSystem, certificate: dict[int, Fraction]) -> bool:
    """Sign-check an infeasibility certificate: multipliers are non-negative
    and combine the rows into 0 . u >= positive."""
    rows = system.all_rows()
    n = len(system.unknowns)
    combo = [Fraction(0)] * n
    rhs = Fraction(0)
    for index, multiplier in certificate.items():
        if multiplier < 0:
            return False
        coeffs, b = rows[index]
        for i in range(n):
            combo[i] += multiplier * coeffs[i]
        rhs += multiplier * b
    return all(c == 0 for c in combo) and rhs > 0


@dataclass
class FitResult:
    feasible: bool
    rule: Rule | None = None
    certificate: dict[int, Fraction] | None = None
    system: ConstraintSystem | None = None


def _fit(observations: list[Observation], family: str, make_rule) -> FitResult:
    """Solve the family's system, scale the first parameter to 1 when it is
    positive (the argmax is invariant under positive scaling), build the rule
    with `make_rule(point, first observation)` and re-verify it on each one."""
    system = build_system(observations, family)
    result = solve_feasibility(system)
    if not result.feasible:
        return FitResult(False, None, result.certificate, system)
    point = result.point
    if point[0] > 0:
        point = tuple(v / point[0] for v in point)
    rule = make_rule(point, observations[0])
    for obs in observations:  # one kernel call on the observation's own terms
        committees, _, scores = _scores(rule, obs.m, obs.terms)
        if _argmax(committees, scores) != obs.chosen:
            raise AssertionError("fitted rule fails to reproduce an observation")
    return FitResult(True, rule, None, system)


def fit_thiele(observations: list[Observation]) -> FitResult:
    """A Thiele scoring vector reproducing every observation, or infeasible;
    normalized to s_1 = 1 when s_1 > 0."""
    return _fit(observations, "thiele", lambda s, obs: Rule("thiele-fit", obs.k, ThieleScore((Fraction(0), *s))))


def fit_bswav(observations: list[Observation]) -> FitResult:
    """Ballot-size weights reproducing every observation, or infeasible.

    Normalized to alpha_1 = 1 when positive; the inert full-ballot weight is
    pinned to alpha_1 / m by convention.
    """
    return _fit(observations, "bswav", lambda a, obs: Rule("bswav-fit", obs.k, BswavWeights((*a, a[0] / obs.m))))


# ---------------------------------------------------------------------------
# Observations file format: repeated blocks of a profile in the core text
# format, each followed by one line `chosen: {i,j},{i,k},...` listing the
# observed committees as sorted index lists, comma-separated, with no spaces
# inside the list.
# ---------------------------------------------------------------------------

_COMMITTEE = r"\{[0-9]+(?:,[0-9]+)*\}"
_CHOSEN_RE = re.compile(rf"{_COMMITTEE}(?:,{_COMMITTEE})*")


def parse_observations(text: str, k: int) -> list[Observation]:
    """Observations in file order; every error names its line in `text`.

    The file's lines are stripped once and walked, and each `chosen:` line
    closes a block whose rows are read straight to terms: k and the committee
    limit are tested on the block's `m=` line, then each distinct ballot line
    is checked and coded to its mask, once per file and m."""
    rows = list(map(str.strip, text.split("\n")))
    observations = []
    lines: dict[int, dict[str, int]] = {}  # per m, the ballot lines coded so far
    start = 0  # the index of the open block's first row
    for end, row in enumerate(rows):
        if not row.startswith("chosen:"):
            continue
        line_no = end + 1
        try:
            m, _, _, totals = _read_ballots(rows[start:end], ballot_mask, k, lines)
        except ProfileFormatError as err:  # renumber from the block's first line
            raise ProfileFormatError(start + err.line_no, err.message) from None
        except ValueError as err:  # k or the committee limit, at this chosen line
            raise ProfileFormatError(line_no, str(err)) from None
        listed = row[len("chosen:"):].strip()
        if not _CHOSEN_RE.fullmatch(listed):
            raise ProfileFormatError(line_no, f"invalid chosen line {row!r}")
        chosen = frozenset(tuple(map(int, item.split(","))) for item in listed[1:-1].split("},{"))
        try:
            obs = Observation(m, tuple(sorted(totals.items())), chosen, k)
        except ValueError as err:
            raise ProfileFormatError(line_no, str(err)) from None
        if observations and m != observations[0].m:
            first_m = observations[0].m
            raise ProfileFormatError(line_no, f"observations must share m and k: m={m} here, m={first_m} before")
        observations.append(obs)
        start = end + 1
    for stray, row in enumerate(rows[start:], start=start + 1):
        if row and not row.startswith("#"):
            raise ProfileFormatError(stray, "trailing profile block without a 'chosen:' line")
    return observations


def format_observations(observations: list[Observation]) -> str:
    """The observations file of `observations`: each profile's voters in
    :func:`all_ballots` order, by size and then members."""
    parts = []
    for obs in observations:
        terms = sorted(obs.terms, key=lambda term: (term[0].bit_count(), _members(term[0])))
        masks = tuple(mask for mask, count in terms for _ in range(count))
        parts.append(format_profile(Profile(obs.m, masks)))
        parts.append(f"chosen: {','.join(map(format_committee, sorted(obs.chosen)))}\n")
    return "".join(parts)


def format_fit(result: FitResult) -> str:
    """CLI rendering: `s: ...` / `alpha: ...` with p/q rationals, or `infeasible`."""
    if not result.feasible:
        return "infeasible"
    scoring = result.rule.scoring
    if isinstance(scoring, ThieleScore):
        return "s: " + ",".join(map(format_rational, scoring.values))
    return "alpha: " + ",".join(map(format_rational, scoring.alpha))
