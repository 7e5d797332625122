"""Property tests: every public scoring entry point agrees exactly with the
naive `Fraction` oracle in conftest, scores included."""

from fractions import Fraction
from math import ceil

from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote.axioms import find_min_continuity_lambda
from abcvote.profiles import Profile, ProfileVector
from abcvote.rules import (
    NAMED_RULES,
    AbcScoringTable,
    Rule,
    active_range,
    committee_score,
    committee_scores,
    continuity_lambda_bound,
    least_continuity_lambda,
    named_rule,
    parse_rule_spec,
    scaled_pair_winners,
    vector_scores,
    winners,
    winners_from_vector,
)
from abcvote.verdict import as_choice_fn

from conftest import (
    oracle_argmax,
    oracle_ballots,
    oracle_profile_scores,
    oracle_scores,
    oracle_vector_scores,
    oracle_vector_winners,
    oracle_winners,
)

PROPERTY = settings(max_examples=150, deadline=None)

increments = st.builds(Fraction, st.integers(0, 24), st.integers(1, 12))


@st.composite
def sizes(draw, many):
    """(m, k).  With `many`, m is 6 or 7 and k is 2 or 3, where enough distinct
    ballots fit for the kernel to bit-slice a table that is not affine (at
    k = 1 every row is affine on its active range)."""
    if many:
        return draw(st.sampled_from(((6, 2), (6, 3), (7, 2), (7, 3))))
    m = draw(st.integers(2, 7))
    return m, draw(st.integers(1, m - 1))


@st.composite
def profiles(draw, m, many):
    """1-40 voters drawn from a pool of at most five ballots, so ballots repeat;
    with `many`, 25-60 distinct ballots, some of them repeated."""
    if many:
        distinct = draw(st.integers(25, min(60, 2**m - 1)))
        pool = sorted(draw(st.sets(st.integers(1, 2**m - 1), min_size=distinct, max_size=distinct)))
        picks = pool + draw(st.lists(st.sampled_from(pool), max_size=20))
    else:
        pool = draw(st.lists(st.integers(1, 2**m - 1), min_size=1, max_size=5))
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return Profile.from_ballots(m, [frozenset(c for c in range(m) if mask >> c & 1) for mask in picks])


def _spec_value(value: Fraction, den: int) -> str:
    # written over a chosen denominator, unreduced, so specs mix denominators
    return f"{value.numerator * den}/{value.denominator * den}"


@st.composite
def thiele_specs(draw, m, k):
    steps = draw(st.lists(increments, min_size=k, max_size=k))
    values, total = [Fraction(0)], Fraction(0)
    for step in steps:
        total += step
        values.append(total)
    dens = draw(st.lists(st.integers(1, 5), min_size=k + 1, max_size=k + 1))
    return parse_rule_spec("thiele:" + ",".join(_spec_value(v, d) for v, d in zip(values, dens)), k, m)


@st.composite
def bswav_specs(draw, m, k):
    alpha = draw(st.lists(increments, min_size=m, max_size=m))
    dens = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    return parse_rule_spec("bswav:" + ",".join(_spec_value(a, d) for a, d in zip(alpha, dens)), k, m)


@st.composite
def tables(draw, m, k):
    """Random AbcScoringTable: monotone on each active range, anything (even negative) off it."""
    values = [[None] * m for _ in range(k + 1)]
    for y in range(1, m + 1):
        active = set(active_range(k, m, y))
        level = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 7)))
        for x in range(k + 1):
            if x in active:
                level += draw(increments)
                values[x][y - 1] = level
            else:
                values[x][y - 1] = Fraction(draw(st.integers(-99, 99)), draw(st.integers(1, 9)))
    return Rule("table", k, AbcScoringTable(tuple(tuple(row) for row in values)))


@st.composite
def affine_tables(draw, m, k):
    """Random AbcScoringTable that is b + a * x on each active range, b != 0, and
    anything off it: the kernel scores these by per-candidate gains."""
    values = [[None] * m for _ in range(k + 1)]
    for y in range(1, m + 1):
        active = set(active_range(k, m, y))
        intercept = Fraction(draw(st.integers(-12, 12).filter(bool)), draw(st.integers(1, 7)))
        slope = draw(increments)
        for x in range(k + 1):
            if x in active:
                values[x][y - 1] = intercept + slope * x
            else:
                values[x][y - 1] = Fraction(draw(st.integers(-99, 99)), draw(st.integers(1, 9)))
    return Rule("affine-table", k, AbcScoringTable(tuple(tuple(row) for row in values)))


@st.composite
def stepped_tables(draw, m, k):
    """Random AbcScoringTable whose ballot sizes share one of two rows of steps
    s(x+1, y) - s(x, y), each size with its own s(0, y): it depends on y, yet
    has few enough rows of steps for the kernel to bit-slice it."""
    step_rows = draw(st.lists(st.lists(increments, min_size=k, max_size=k), min_size=2, max_size=2))
    values = [[None] * m for _ in range(k + 1)]
    for y in range(1, m + 1):
        level = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 7)))
        steps = step_rows[draw(st.integers(0, 1))]
        for x in range(k + 1):
            values[x][y - 1] = level + sum(steps[:x])
    return Rule("stepped-table", k, AbcScoringTable(tuple(tuple(row) for row in values)))


@st.composite
def rules(draw, m, k):
    kind = draw(st.sampled_from(("named", "thiele", "bswav", "table", "affine", "stepped")))
    if kind == "named":
        return named_rule(draw(st.sampled_from(NAMED_RULES)), k, m)
    strategy = {
        "thiele": thiele_specs,
        "bswav": bswav_specs,
        "table": tables,
        "affine": affine_tables,
        "stepped": stepped_tables,
    }[kind]
    return draw(strategy(m, k))


@st.composite
def instances(draw):
    many = draw(st.booleans())
    m, k = draw(sizes(many))
    return draw(rules(m, k)), draw(profiles(m, many))


@st.composite
def vector_instances(draw):
    """Rational vectors with negative and fractional entries (possibly all zero):
    at most 8 entries, or with `many` 25-60 of them."""
    many = draw(st.booleans())
    m, k = draw(sizes(many))
    values = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    distinct = draw(st.integers(25, min(60, 2**m - 1)) if many else st.integers(0, min(8, 2**m - 1)))
    entries = draw(st.dictionaries(st.integers(1, 2**m - 1), values, min_size=distinct, max_size=distinct))
    return draw(rules(m, k)), ProfileVector.from_dict(m, entries)


@st.composite
def pair_instances(draw):
    many = draw(st.booleans())
    m, k = draw(sizes(many))
    return draw(rules(m, k)), draw(profiles(m, many)), draw(profiles(m, many)), draw(st.integers(1, 64))


@PROPERTY
@given(instances())
def test_profile_scores_match_oracle(instance):
    rule, profile = instance
    expected = oracle_profile_scores(rule.score, profile, rule.k)
    assert committee_scores(rule, profile) == expected
    assert winners(rule, profile) == oracle_winners(rule.score, profile, rule.k)
    for committee, score in expected[:: max(1, len(expected) // 4)]:
        assert committee_score(rule, profile, committee) == score


@st.composite
def rule_sequences(draw):
    """One profile and 2-4 rules of its m, each with its own k, to score it in turn."""
    many = draw(st.booleans())
    m, _ = draw(sizes(many))
    ks = st.sampled_from((2, 3)) if many else st.integers(1, m - 1)
    return draw(profiles(m, many)), [draw(rules(m, k)) for k in draw(st.lists(ks, min_size=2, max_size=4))]


@PROPERTY
@given(rule_sequences())
def test_one_profile_scored_by_several_rules_matches_oracle(instance):
    # the terms counted on the first scoring are kept on the profile and
    # read by every later rule and k
    profile, sequence = instance
    for rule in sequence:
        expected = oracle_profile_scores(rule.score, profile, rule.k)
        assert committee_scores(rule, profile) == expected
        assert winners(rule, profile) == oracle_argmax(expected)
    assert profile._terms is not None


@PROPERTY
@given(vector_instances())
def test_vector_scores_match_oracle(instance):
    rule, vector = instance
    assert vector_scores(rule, vector, rule.k) == oracle_vector_scores(rule.score, vector, rule.k)
    assert winners_from_vector(rule, vector, rule.k) == oracle_vector_winners(rule.score, vector, rule.k)


@PROPERTY
@given(pair_instances())
def test_scaled_pair_winners_match_oracle(instance):
    rule, a, b, lam = instance
    weighted = [(ballot, lam) for ballot in oracle_ballots(a)] + [(ballot, 1) for ballot in oracle_ballots(b)]
    expected = oracle_argmax(oracle_scores(rule.score, weighted, a.m, rule.k))
    assert scaled_pair_winners(rule, a, b, lam) == expected


@PROPERTY
@given(pair_instances())
def test_continuity_bound_matches_oracle(instance):
    rule, a, b, _ = instance
    scores_a = [score for _, score in oracle_profile_scores(rule.score, a, rule.k)]
    scores_b = [score for _, score in oracle_profile_scores(rule.score, b, rule.k)]
    losers = [score for score in scores_a if score != max(scores_a)]
    if losers:
        gap = max(scores_a) - max(losers)
        expected = 1 + ceil((max(scores_b) - min(scores_b)) / gap)
    else:
        expected = 1
    bound = continuity_lambda_bound(rule, a, b)
    assert bound == expected
    # soundness: from the bound on, lambda*a + b elects only winners of a
    weighted = [(ballot, bound) for ballot in oracle_ballots(a)] + [(ballot, 1) for ballot in oracle_ballots(b)]
    chosen = oracle_argmax(oracle_scores(rule.score, weighted, a.m, rule.k))
    assert chosen <= oracle_winners(rule.score, a, rule.k)


@PROPERTY
@given(pair_instances(), st.integers(1, 24))
def test_min_continuity_lambda_matches_generic_path_and_oracle(instance, cap):
    rule, a, b, _ = instance
    target = oracle_winners(rule.score, a, rule.k)
    expected = None
    for lam in range(1, cap + 1):
        weighted = [(ballot, lam) for ballot in oracle_ballots(a)] + [(ballot, 1) for ballot in oracle_ballots(b)]
        if oracle_argmax(oracle_scores(rule.score, weighted, a.m, rule.k)) <= target:
            expected = lam
            break
    assert find_min_continuity_lambda(rule, a, b, cap) == expected
    # the materialized lambda*a + b path, run through the rule as a plain choice function
    assert find_min_continuity_lambda(as_choice_fn(rule), a, b, cap) == expected
    if expected is None:
        assert least_continuity_lambda(rule, a, b) > cap
    else:
        assert least_continuity_lambda(rule, a, b) == expected
