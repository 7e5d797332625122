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
observation carries, one (ballot mask, weight) per distinct ballot, and
the fitted rule is re-checked by the kernel on the same terms.  Row
entries are exact rationals: `int`, or `Fraction` only when an
observation has fractional multiplicities.  Feasibility is decided by an
exact rational LP (dual simplex, Bland's rule), and each unknown in turn
is fixed to the midpoint of its feasible interval so fitted values are
deterministic; infeasibility comes with a checkable non-negative
combination of the rows of that system that sums to an impossible row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import lt, sub

from .profiles import (
    Ballot,
    ChoiceSet,
    Profile,
    ProfileFormatError,
    ProfileVector,
    parse_profile,
    format_committee,
    format_profile,
    vector_to_profile,
)
from .rules import (
    BswavWeights,
    Rule,
    ThieleScore,
    _argmax,
    _committee_masks,
    _profile_terms,
    _scores,
    _vector_terms,
    check_committee_limit,
    format_rational,
)

MAX_UNKNOWNS = 8


def _check_choice(m: int, chosen: ChoiceSet, k: int) -> None:
    if not 1 <= k <= m - 1:
        raise ValueError(f"committee size k={k} must satisfy 1 <= k <= m-1={m - 1}")
    if not chosen:
        raise ValueError("observed choice set must be non-empty")
    for committee in chosen:
        if len(committee) != k:
            raise ValueError("observed committees must all have size k")
        if any(b <= a for a, b in zip(committee, committee[1:])):
            raise ValueError("observed committees must be strictly increasing index lists")
        if any(not 0 <= c < m for c in committee):
            raise ValueError("committee members out of range")


@dataclass(frozen=True)
class Observation:
    """One observed election: its ballots as the kernel's terms, the full tied choice set, and k.

    `terms` is (L, ((mask, weight), ...)), one term per distinct ballot in increasing mask
    order, weight = multiplicity * L with L the lcm of the multiplicities' denominators (1
    for a profile), so equal observations compare equal.
    """

    m: int
    terms: tuple[int, tuple[tuple[int, int], ...]]
    chosen: ChoiceSet
    k: int

    def __post_init__(self):
        _check_choice(self.m, self.chosen, self.k)
        scale, terms = self.terms
        masks = [0, *(mask for mask, _ in terms)]
        if scale < 1 or not all(map(lt, masks, masks[1:])) or masks[-1].bit_length() > self.m:
            raise ValueError(f"terms need L >= 1 and ballot masks increasing from 1 to below 2**m, m={self.m}")
        if not all(weight for _, weight in terms):
            raise ValueError("zero weights must be omitted")

    @classmethod
    def from_profile(cls, profile: Profile, chosen: ChoiceSet, k: int) -> "Observation":
        """The observation of `profile`, one term per distinct ballot."""
        _check_choice(profile.m, chosen, k)  # before any mask: k >= m could come with a huge m
        return cls(profile.m, (1, tuple(sorted(_profile_terms(profile)))), frozenset(chosen), k)

    @classmethod
    def from_vector(cls, vector: ProfileVector, chosen: ChoiceSet, k: int) -> "Observation":
        """The observation of a rational profile vector: its entries, scaled by L."""
        return cls(vector.m, _vector_terms(vector), frozenset(chosen), k)

    @property
    def vector(self) -> ProfileVector:
        """The terms as a profile vector: each weight over L, at its ballot's mask."""
        scale, terms = self.terms
        return ProfileVector(self.m, tuple((mask, Fraction(weight, scale)) for mask, weight in terms))


@dataclass
class ConstraintSystem:
    """Homogeneous inequalities over named unknowns.

    Rows are coefficient tuples c meaning c . u >= 0 (weak) or c . u >= 1
    (strict): in a fit, the side constraints and each observation's ties
    with its designated committee, then that committee against the rest,
    each row once.  Entries are exact rationals: `int`, or `Fraction` only
    where an observation has fractional multiplicities.  Certificates
    name rows of this system, counting weak rows first, then strict rows.
    """

    unknowns: tuple[str, ...]
    weak: list[tuple[int | Fraction, ...]]
    strict: list[tuple[int | Fraction, ...]]

    def all_rows(self) -> list[tuple[tuple[int | Fraction, ...], int]]:
        rows = [(c, 0) for c in self.weak]
        rows += [(c, 1) for c in self.strict]
        return rows


def _observation_rows(obs: Observation, family: str):
    """Tie rows (weak) and strict rows of one observation, on the kernel's bitmasks.

    With the multiplicities scaled by L (the lcm of their denominators) to
    integer weights w, a committee W's row is integral: Thiele adds w to the
    coefficient of s_x, x = |A & W| >= 1; ballot-size weights add w * |A & W|
    to that of alpha_|A|, skipping full ballots, which add the same constant
    to every committee.  Rows are differences of these, over L only when
    L > 1.  Cost: C(m, k) committees times the distinct ballots.
    """
    m, k = obs.m, obs.k
    committees, masks = _committee_masks(m, k)
    scale, terms = obs.terms
    table = []
    if family == "thiele":
        for cm in masks:
            coeffs = [0] * (k + 1)
            for mask, w in terms:
                coeffs[(mask & cm).bit_count()] += w
            table.append(coeffs[1:])
    else:
        sized = [(mask, w, mask.bit_count() - 1) for mask, w in terms if mask.bit_count() < m]
        for cm in masks:
            coeffs = [0] * (m - 1)
            for mask, w, y in sized:
                coeffs[y] += w * (mask & cm).bit_count()
            table.append(coeffs)
    designated, *tied = [row for w, row in zip(committees, table) if w in obs.chosen]
    weak = [tuple(map(sub, a, b)) for other in tied for a, b in ((designated, other), (other, designated))]
    strict = [tuple(map(sub, designated, other)) for w, other in zip(committees, table) if w not in obs.chosen]
    if scale != 1:
        weak = [tuple(Fraction(a, scale) for a in row) for row in weak]
        strict = [tuple(Fraction(a, scale) for a in row) for row in strict]
    return weak, strict


def build_system(
    observations: list[Observation], family: str, k: int | None = None, m: int | None = None
) -> ConstraintSystem:
    """Constraint system whose solutions are exactly the parameter vectors
    reproducing every observation, plus the family's side constraints
    (Thiele: monotone with s_0 = 0; weights: non-negative).

    An empty observation list yields just the side constraints; k (for
    Thiele) or m (for weights) must then be passed explicitly.
    """
    if family not in ("thiele", "bswav"):
        raise ValueError("family must be 'thiele' or 'bswav'")
    if observations:
        k = observations[0].k
        m = observations[0].m
        if any(o.k != k or o.m != m for o in observations):
            raise ValueError("observations must share m and k")
    elif (family == "thiele" and k is None) or (family == "bswav" and m is None):
        raise ValueError("empty observation list needs explicit dimensions")

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
    strict: list[tuple[int | Fraction, ...]] = []
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

    `rows` holds (coefficients, rhs, source) with integer coefficients, not
    all zero.  Each row is divided by the gcd of its coefficients, so rows
    fall into the same classes as when divided by the absolute value of
    their leading coefficient, and within a class the first of the largest
    right-hand sides wins.  Returns (direction, rhs, source, gcd) tuples in
    order of first appearance.
    """
    best: dict[tuple[int, ...], tuple] = {}
    for coeffs, rhs, source in rows:
        h = gcd(*coeffs)
        if h != 1:
            coeffs, rhs = [c // h for c in coeffs], Fraction(rhs, h)
        key = tuple(coeffs)
        if key not in best or rhs > best[key][1]:
            best[key] = (key, rhs, source, h)
    return list(best.values())


def _integer_costs(costs: list[Fraction]) -> tuple[list[int], int]:
    """The costs times the lcm of their denominators, and that lcm."""
    scale = lcm(*(c.denominator for c in costs))
    return [c.numerator * (scale // c.denominator) for c in costs], scale


def _simplex(columns: list[tuple[int, ...]], rhs: tuple[int, ...], costs: list[int] | None = None):
    """Exact two-phase simplex with Bland's rule on an integer tableau.

    Maximizes costs . y subject to sum_i y_i * columns[i] = rhs and y >= 0,
    with integer columns, rhs and costs.  Returns None when no such y exists,
    else (optimum, {column: y_column > 0}); with costs None only phase 1 runs
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
        raise ArithmeticError("the linear program is unbounded")
    return Fraction(-z[-1], denom), _solution(tableau, basis, denom, ncols)


def _solution(tableau: list[list[int]], basis: list[int], denom: int, ncols: int) -> dict[int, Fraction]:
    return {b: Fraction(row[-1], denom) for row, b in zip(tableau, basis) if row[-1] and b < ncols}


def _eliminate(row: list[int], prow: list[int], p: int, f: int, denom: int) -> list[int]:
    if not f:
        return row if p == denom else [p * a // denom for a in row]
    return [(p * a - f * b) // denom for a, b in zip(row, prow)]


def solve_feasibility(system: ConstraintSystem) -> FeasibilityResult:
    """Exact rational LP (dual simplex, Bland's rule) with the midpoint rule.

    Feasible systems yield the deterministic point obtained by fixing
    variables in index order to the midpoint of their residual interval
    (lower + 1 when unbounded above, upper - 1 when unbounded below, 0 when
    unconstrained).  Each end of the interval is the optimum of the dual LP
    max{b'.y : A'^T y = +-e_0, y >= 0} over the rows with the earlier
    variables substituted; an infeasible dual means that end is unbounded.
    Infeasible systems yield a certificate: non-negative multipliers over
    original row indices combining to 0 >= positive, read off a feasible
    y >= 0 with A^T y = 0 and b.y = 1 (Farkas).
    """
    n = len(system.unknowns)
    if n > MAX_UNKNOWNS:
        raise ValueError(f"{n} unknowns exceed the solver cap {MAX_UNKNOWNS}")
    rows = []
    for i, (coeffs, rhs) in enumerate(system.all_rows()):
        if all(type(c) is int for c in coeffs):  # every row of a parsed file
            den, ints = 1, coeffs
        else:
            den = lcm(*(c.denominator for c in coeffs))
            ints = [c.numerator * (den // c.denominator) for c in coeffs]
        if not any(ints):
            if rhs > 0:
                return FeasibilityResult(False, None, {i: Fraction(1)})
            continue
        rows.append((ints, rhs * den, (i, den)))
    distinct = _tightest(rows)

    costs, scale = _integer_costs([rhs for _, rhs, *_ in distinct])
    farkas = _simplex([key + (c,) for (key, *_), c in zip(distinct, costs)], (0,) * n + (scale,))
    if farkas is not None:
        certificate = {}
        for col, y in farkas[1].items():
            _, _, (i, den), h = distinct[col]
            certificate[i] = y * den / h
        if not verify_certificate(system, certificate):
            raise AssertionError("the LP produced an invalid certificate")
        return FeasibilityResult(False, None, certificate)

    values: list[Fraction] = []
    stage = distinct
    for j in range(n):
        columns = [key for key, *_ in stage]
        costs, scale = _integer_costs([rhs for _, rhs, *_ in stage])
        unit = (0,) * (n - j - 1)
        ends = []
        for sign in (1, -1):
            optimum = _simplex(columns, (sign, *unit), costs)
            ends.append(None if optimum is None else sign * optimum[0] / scale)
        lower, upper = ends
        if lower is not None and upper is not None:
            value = (lower + upper) / 2
        elif lower is not None:
            value = lower + 1
        elif upper is not None:
            value = upper - 1
        else:
            value = Fraction(0)
        values.append(value)
        # substituting x_j keeps parallel rows parallel: again keep the tightest
        stage = _tightest((key[1:], rhs - key[0] * value, None) for key, rhs, *_ in stage if any(key[1:]))

    point = tuple(values)
    scale = lcm(*(v.denominator for v in point))
    scaled = [v.numerator * (scale // v.denominator) for v in point]
    for ints, rhs, _ in rows:  # every row but the all-zero ones, times a positive integer
        if sum(c * v for c, v in zip(ints, scaled)) < rhs * scale:
            raise AssertionError("the LP produced an infeasible point")
    return FeasibilityResult(True, point, None)


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


def _fit(observations: list[Observation], family: str, k: int, m: int | None, make_rule) -> FitResult:
    """Solve the family's system, scale the first parameter to 1 when it is
    positive (the argmax is invariant under positive scaling), build the
    rule with `make_rule` and re-verify it against each observation."""
    if any(obs.k != k or m not in (None, obs.m) for obs in observations):
        raise ValueError(f"observations disagree with the requested {'k' if m is None else 'm, k'}")
    system = build_system(observations, family, k=k, m=m)
    result = solve_feasibility(system)
    if not result.feasible:
        return FitResult(False, None, result.certificate, system)
    point = result.point
    if point[0] > 0:
        point = tuple(v / point[0] for v in point)
    rule = make_rule(point)
    for obs in observations:  # one kernel call on the observation's own terms
        committees, _, scores = _scores(rule, obs.m, obs.terms[1])
        if _argmax(committees, scores) != obs.chosen:
            raise AssertionError("fitted rule fails to reproduce an observation")
    return FitResult(True, rule, None, system)


def fit_thiele(observations: list[Observation], k: int) -> FitResult:
    """A Thiele scoring vector reproducing every observation, or infeasible;
    normalized to s_1 = 1 when s_1 > 0."""
    return _fit(observations, "thiele", k, None,
                lambda s: Rule("thiele-fit", k, ThieleScore(k, (Fraction(0), *s))))


def fit_bswav(observations: list[Observation], m: int, k: int) -> FitResult:
    """Ballot-size weights reproducing every observation, or infeasible.

    Normalized to alpha_1 = 1 when positive; the inert full-ballot weight is
    pinned to alpha_1 / m by convention.
    """
    return _fit(observations, "bswav", k, m, lambda a: Rule("bswav-fit", k, BswavWeights(m, (*a, a[0] / m))))


# ---------------------------------------------------------------------------
# Observations file format: repeated blocks of a profile in the core text
# format, each followed by one line `chosen: {i,j},{i,k},...` listing the
# observed committees as sorted index lists, comma-separated, with no spaces
# inside the list.
# ---------------------------------------------------------------------------

_COMMITTEE = r"\{[0-9]+(?:,[0-9]+)*\}"
_CHOSEN_RE = re.compile(rf"{_COMMITTEE}(?:,{_COMMITTEE})*")


def parse_observations(text: str, k: int) -> list[Observation]:
    """Observations in file order; every error names its line in `text`."""
    observations = []
    block: list[str] = []
    lines: dict[int, dict[str, Ballot]] = {}  # ballot lines checked once per file
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip().startswith("chosen:"):
            block.append(line)
            continue
        try:
            profile = parse_profile("\n".join(block), lines)
        except ProfileFormatError as err:  # renumber from the block's first line
            raise ProfileFormatError(line_no - len(block) + err.line_no - 1, err.message) from None
        listed = line.split(":", 1)[1].strip()
        if not _CHOSEN_RE.fullmatch(listed):
            raise ProfileFormatError(line_no, f"invalid chosen line {line.strip()!r}")
        chosen = frozenset(tuple(map(int, item.split(","))) for item in listed[1:-1].split("},{"))
        check_committee_limit(profile.m, k)  # before any ballot becomes a mask
        try:
            obs = Observation.from_profile(profile, chosen, k)
        except ValueError as err:
            raise ProfileFormatError(line_no, str(err)) from None
        if observations and obs.m != observations[0].m:
            first_m = observations[0].m
            raise ProfileFormatError(line_no, f"observations must share m and k: m={obs.m} here, m={first_m} before")
        observations.append(obs)
        block = []
    for stray, line in enumerate(block, start=line_no - len(block) + 1):
        if line.strip() and not line.strip().startswith("#"):
            raise ProfileFormatError(stray, "trailing profile block without a 'chosen:' line")
    return observations


def format_observations(observations: list[Observation]) -> str:
    parts = []
    for obs in observations:
        parts.append(format_profile(vector_to_profile(obs.vector)))
        parts.append(f"chosen: {','.join(map(format_committee, sorted(obs.chosen)))}\n")
    return "".join(parts)


def format_fit(result: FitResult, family: str) -> str:
    """CLI rendering: `s: ...` / `alpha: ...` with p/q rationals, or `infeasible`."""
    if not result.feasible:
        return "infeasible"
    if family == "thiele":
        values = result.rule.scoring.values
        return "s: " + ",".join(format_rational(v) for v in values)
    return "alpha: " + ",".join(format_rational(a) for a in result.rule.scoring.alpha)
