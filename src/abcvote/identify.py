"""Inverse problem: recover scoring parameters from observed choice sets.

Given observations (profile, full tied winner set), membership of a
committee in the winner set is linear in the unknown Thiele scores or
ballot-size weights.  Each observation therefore contributes weak
constraints (chosen committees score at least as much as everything) and
strict constraints against the non-chosen committees.  Strictness is
encoded as margin >= 1, which is sound here because the constraint family
is scale-invariant: any strictly feasible parameter vector scales to clear
margin one.  Feasibility is decided by exact Fourier-Motzkin elimination
over rationals, with midpoint back-substitution so fitted values are
deterministic; infeasibility comes with a checkable non-negative
combination of the constraints that sums to an impossible row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .profiles import (
    ChoiceSet,
    Profile,
    ProfileFormatError,
    ProfileVector,
    index_ballot,
    parse_profile,
    format_profile,
    profile_to_vector,
)
from .rules import (
    MAX_COMMITTEES,
    BswavWeights,
    Rule,
    ThieleScore,
    enumerate_committees,
    format_rational,
    winners_from_vector,
)

MAX_UNKNOWNS = 8


@dataclass(frozen=True)
class Observation:
    """One observed election: profile vector, the full tied choice set, and k."""

    vector: ProfileVector
    chosen: ChoiceSet
    k: int

    def __post_init__(self):
        if not self.chosen:
            raise ValueError("observed choice set must be non-empty")
        for committee in self.chosen:
            if len(committee) != self.k:
                raise ValueError("observed committees must all have size k")
            if any(b <= a for a, b in zip(committee, committee[1:])):
                raise ValueError("observed committees must be strictly increasing index lists")
            if any(not 0 <= c < self.vector.m for c in committee):
                raise ValueError("committee members out of range")

    @classmethod
    def from_profile(cls, profile: Profile, chosen: ChoiceSet, k: int) -> "Observation":
        return cls(profile_to_vector(profile), frozenset(chosen), k)

    @property
    def m(self) -> int:
        return self.vector.m


@dataclass
class ConstraintSystem:
    """Homogeneous inequalities over named unknowns.

    Rows are coefficient tuples c meaning c . u >= 0 (weak) or c . u >= 1
    (strict).  Row indices used by infeasibility certificates count weak
    rows first, then strict rows.
    """

    unknowns: tuple[str, ...]
    weak: list[tuple[Fraction, ...]]
    strict: list[tuple[Fraction, ...]]

    def all_rows(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        rows = [(c, Fraction(0)) for c in self.weak]
        rows += [(c, Fraction(1)) for c in self.strict]
        return rows


def _thiele_coefficients(vector: ProfileVector, members: frozenset[int], k: int) -> tuple[Fraction, ...]:
    # coefficient of s_x is the (rational) number of ballots meeting W in x candidates
    coeffs = [Fraction(0)] * k
    for idx, weight in vector.entries:
        x = len(index_ballot(idx, vector.m) & members)
        if x >= 1:
            coeffs[x - 1] += weight
    return tuple(coeffs)


def _bswav_coefficients(vector: ProfileVector, members: frozenset[int]) -> tuple[Fraction, ...]:
    # coefficient of alpha_y collects |ballot ∩ W| over size-y ballots; full
    # ballots are skipped since they add the same constant to every committee
    m = vector.m
    coeffs = [Fraction(0)] * (m - 1)
    for idx, weight in vector.entries:
        ballot = index_ballot(idx, m)
        if len(ballot) < m:
            coeffs[len(ballot) - 1] += weight * len(ballot & members)
    return tuple(coeffs)


def _observation_rows(obs: Observation, family: str):
    committees = enumerate_committees(obs.m, obs.k)
    if family == "thiele":
        table = [_thiele_coefficients(obs.vector, frozenset(w), obs.k) for w in committees]
    else:
        table = [_bswav_coefficients(obs.vector, frozenset(w)) for w in committees]
    by_committee = dict(zip(committees, table))
    chosen = [w for w in committees if w in obs.chosen]
    designated = chosen[0]
    weak, strict = [], []
    for winner in chosen:
        wrow = by_committee[winner]
        for other in committees:
            if other != winner:
                weak.append(tuple(a - b for a, b in zip(wrow, by_committee[other])))
    drow = by_committee[designated]
    for other in committees:
        if other not in obs.chosen:
            strict.append(tuple(a - b for a, b in zip(drow, by_committee[other])))
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
        first = [Fraction(0)] * k
        first[0] = Fraction(1)
        side.append(tuple(first))  # s_1 >= s_0 = 0
        for x in range(1, k):
            row = [Fraction(0)] * k
            row[x] = Fraction(1)
            row[x - 1] = Fraction(-1)
            side.append(tuple(row))  # s_{x+1} >= s_x
    else:
        unknowns = tuple(f"alpha_{y}" for y in range(1, m))
        side = []
        for y in range(m - 1):
            row = [Fraction(0)] * (m - 1)
            row[y] = Fraction(1)
            side.append(tuple(row))  # alpha_y >= 0

    if len(unknowns) > MAX_UNKNOWNS:
        raise ValueError(f"{len(unknowns)} unknowns exceed the elimination cap {MAX_UNKNOWNS}")
    if observations and comb(m, k) > MAX_COMMITTEES:
        # every observation contributes rows for all C(m, k) committees
        raise ValueError(f"C({m},{k}) committees exceed the enumeration limit {MAX_COMMITTEES}")

    weak = list(side)
    strict: list[tuple[Fraction, ...]] = []
    for obs in observations:
        w, s = _observation_rows(obs, family)
        weak.extend(w)
        strict.extend(s)
    return ConstraintSystem(unknowns, weak, strict)


@dataclass
class FeasibilityResult:
    feasible: bool
    point: tuple[Fraction, ...] | None = None
    certificate: dict[int, Fraction] | None = None


@dataclass
class _Row:
    coeffs: tuple[Fraction, ...]
    rhs: Fraction
    cert: dict[int, Fraction]


def _scaled(row: _Row, factor: Fraction) -> _Row:
    return _Row(
        tuple(c * factor for c in row.coeffs),
        row.rhs * factor,
        {i: v * factor for i, v in row.cert.items()},
    )


def _combine(pos: _Row, neg: _Row, var: int) -> _Row:
    a = _scaled(pos, -neg.coeffs[var])
    b = _scaled(neg, pos.coeffs[var])
    cert = dict(a.cert)
    for i, v in b.cert.items():
        cert[i] = cert.get(i, Fraction(0)) + v
    return _Row(
        tuple(x + y for x, y in zip(a.coeffs, b.coeffs)),
        a.rhs + b.rhs,
        cert,
    )


def _dedupe(rows: list[_Row]) -> list[_Row]:
    """Keep, per coefficient direction, only the strongest right-hand side."""
    best: dict[tuple[Fraction, ...], _Row] = {}
    order: list[tuple[Fraction, ...]] = []
    for row in rows:
        lead = next((c for c in row.coeffs if c != 0), None)
        if lead is None:
            continue
        scale = 1 / abs(lead)
        canon = _scaled(row, scale)
        key = canon.coeffs
        if key not in best:
            best[key] = canon
            order.append(key)
        elif canon.rhs > best[key].rhs:
            best[key] = canon
    return [best[key] for key in order]


def solve_feasibility(system: ConstraintSystem) -> FeasibilityResult:
    """Exact Fourier-Motzkin elimination with midpoint back-substitution.

    Feasible systems yield the deterministic point obtained by fixing
    variables in index order to the midpoint of their residual interval
    (lower + 1 when unbounded above, upper - 1 when unbounded below, 0 when
    unconstrained).  Infeasible systems yield a certificate: non-negative
    multipliers over original row indices combining to 0 >= positive.
    """
    n = len(system.unknowns)
    if n > MAX_UNKNOWNS:
        raise ValueError(f"{n} unknowns exceed the elimination cap {MAX_UNKNOWNS}")
    rows = [
        _Row(tuple(coeffs), rhs, {i: Fraction(1)})
        for i, (coeffs, rhs) in enumerate(system.all_rows())
    ]

    def contradiction(candidates: list[_Row]) -> _Row | None:
        for row in candidates:
            if all(c == 0 for c in row.coeffs) and row.rhs > 0:
                return row
        return None

    bad = contradiction(rows)
    if bad is not None:
        return FeasibilityResult(False, None, bad.cert)

    rows = _dedupe(rows)
    frames: list[tuple[int, list[_Row]]] = []
    for var in range(n - 1, -1, -1):
        frames.append((var, rows))
        pos = [r for r in rows if r.coeffs[var] > 0]
        neg = [r for r in rows if r.coeffs[var] < 0]
        zero = [r for r in rows if r.coeffs[var] == 0]
        combined = [_combine(p, ng, var) for p in pos for ng in neg]
        bad = contradiction(combined)
        if bad is not None:
            return FeasibilityResult(False, None, bad.cert)
        rows = _dedupe(zero + combined)

    values: list[Fraction] = [Fraction(0)] * n
    for var, var_rows in reversed(frames):
        lower: Fraction | None = None
        upper: Fraction | None = None
        for row in var_rows:
            c = row.coeffs[var]
            if c == 0:
                continue
            rest = sum(
                (row.coeffs[i] * values[i] for i in range(var) if row.coeffs[i] != 0),
                Fraction(0),
            )
            bound = (row.rhs - rest) / c
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

    point = tuple(values)
    for coeffs, rhs in system.all_rows():
        total = sum((c * v for c, v in zip(coeffs, point) if c != 0), Fraction(0))
        if total < rhs:
            raise AssertionError("back-substitution produced an infeasible point")
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
    if any(winners_from_vector(rule, obs.vector, obs.k) != obs.chosen for obs in observations):
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
# observed committees as sorted index lists.
# ---------------------------------------------------------------------------

_CHOSEN_RE = re.compile(r"\{([0-9]+(?:,[0-9]+)*)\}")


def parse_observations(text: str, k: int) -> list[Observation]:
    """Observations in file order; every error names its line in `text`."""
    observations = []
    block: list[str] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip().startswith("chosen:"):
            block.append(line)
            continue
        try:
            profile = parse_profile("\n".join(block))
        except ProfileFormatError as err:  # renumber from the block's first line
            raise ProfileFormatError(line_no - len(block) + err.line_no - 1, err.message) from None
        listed = _CHOSEN_RE.findall(line.split(":", 1)[1])
        chosen = frozenset(tuple(int(c) for c in item.split(",")) for item in listed)
        try:
            observations.append(Observation.from_profile(profile, chosen, k))
        except ValueError as err:
            raise ProfileFormatError(line_no, str(err)) from None
        block = []
    for stray, line in enumerate(block, start=line_no - len(block) + 1):
        if line.strip() and not line.strip().startswith("#"):
            raise ProfileFormatError(stray, "trailing profile block without a 'chosen:' line")
    return observations


def format_observations(observations: list[Observation]) -> str:
    from .profiles import vector_to_profile

    parts = []
    for obs in observations:
        parts.append(format_profile(vector_to_profile(obs.vector)))
        committees = ",".join(
            "{" + ",".join(str(c) for c in committee) + "}" for committee in sorted(obs.chosen)
        )
        parts.append(f"chosen: {committees}\n")
    return "".join(parts)


def format_fit(result: FitResult, family: str) -> str:
    """CLI rendering: `s: ...` / `alpha: ...` with p/q rationals, or `infeasible`."""
    if not result.feasible:
        return "infeasible"
    if family == "thiele":
        values = result.rule.scoring.values
        return "s: " + ",".join(format_rational(v) for v in values)
    return "alpha: " + ",".join(format_rational(a) for a in result.rule.scoring.alpha)
