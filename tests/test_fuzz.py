"""Fuzzing the input parsers and the CLI: whatever the input, a parser
returns or raises ValueError, and `abcvote` exits 0, 1 or 2 without a
traceback.  Profiles stay at m <= 4 and a few voters so every verb is quick."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote.axioms import AXIOMS
from abcvote.cli import main
from abcvote.identify import parse_observations
from abcvote.profiles import ProfileFormatError, format_profile, parse_profile, profile_to_vector
from abcvote.rules import parse_rule_spec

from conftest import JUNK, observation_texts, profile_texts

FUZZ = settings(max_examples=120, deadline=None)

rationals = st.one_of(
    st.integers(-2, 4).map(str),
    st.tuples(st.integers(-2, 4), st.integers(0, 3)).map(lambda t: f"{t[0]}/{t[1]}"),
    JUNK,
)
rule_specs = st.one_of(
    st.sampled_from(["av", "pav", "ccav", "sav", "msav", "triv", "thiele:0,1,3/2", "bswav:1,1/2,1/3,1/4"]),
    st.tuples(st.sampled_from(["thiele:", "bswav:", "thiele", "pav:"]), st.lists(rationals, max_size=5)).map(
        lambda t: t[0] + ",".join(t[1])
    ),
    JUNK,
)
small_ints = st.integers(-1, 5).map(str)
AXIOM_NAMES = sorted({name for axiom in AXIOMS for name in (axiom.name, *axiom.aliases)}) + ["nonsense"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            return exc.code


@FUZZ
@given(profile_texts())
def test_parse_profile_returns_or_raises_format_error(text):
    try:
        profile = parse_profile(text)
    except ProfileFormatError as err:
        assert str(err).startswith("line ")
        return
    assert profile_to_vector(parse_profile(format_profile(profile))) == profile_to_vector(profile)


@FUZZ
@given(rule_specs, st.integers(-1, 5), st.integers(0, 5))
def test_parse_rule_spec_returns_or_raises_value_error(spec, k, m):
    try:
        rule = parse_rule_spec(spec, k, m)
    except ValueError:
        return
    assert rule.k == k


@FUZZ
@given(observation_texts(), st.integers(1, 3))
def test_parse_observations_returns_or_raises_located_error(text, k):
    try:
        observations = parse_observations(text, k)
    except ProfileFormatError as err:
        assert str(err).startswith("line ")
        return
    assert all(obs.k == k for obs in observations)


@FUZZ
@given(
    st.sampled_from(["winners", "score"]), rule_specs, small_ints, profile_texts(),
    st.lists(st.integers(-1, 4), max_size=3).map(lambda xs: " ".join(map(str, xs))),
    st.sampled_from(["text", "json"]),
)
def test_cli_winners_and_score(workdir, verb, rule, k, profile, committee, fmt):
    path = workdir / "p.abc"
    path.write_text(profile)
    argv = [verb, "--rule", rule, "--k", k, "--profile", str(path), "--format", fmt]
    if verb == "score":
        argv += ["--committee", committee]
    assert run(argv) in (0, 1, 2)


@FUZZ
@given(
    st.sampled_from(AXIOM_NAMES), rule_specs, small_ints, profile_texts(),
    st.one_of(st.none(), profile_texts()),
    st.lists(
        st.sampled_from(
            [["--splits"], ["--lambda-cap", "3"], ["--lambda-cap", "0"], ["--lambda-cap", "-1"], ["--format", "json"]]
        ),
        max_size=3,
    ),
)
def test_cli_check(workdir, axiom, rule, k, profile, profile2, extra):
    path = workdir / "a.abc"
    path.write_text(profile)
    argv = ["check", "--axiom", axiom, "--rule", rule, "--k", k, "--profile", str(path)]
    if profile2 is not None:
        other = workdir / "b.abc"
        other.write_text(profile2)
        argv += ["--profile2", str(other)]
    assert run(argv + [flag for option in extra for flag in option]) in (0, 1, 2)


@FUZZ
@given(
    st.sampled_from(["thiele", "bswav"]), st.integers(0, 3).map(str), observation_texts(),
    st.sampled_from(["text", "json"]),
)
def test_cli_fit(workdir, family, k, text, fmt):
    path = workdir / "obs.txt"
    path.write_text(text)
    argv = ["fit", "--family", family, "--k", k, "--observations", str(path), "--format", fmt]
    assert run(argv) in (0, 1, 2)
