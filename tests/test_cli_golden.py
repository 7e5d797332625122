"""The CLI's output contract.

`golden/check_corpus.json` pins the exit code and exact stdout of
`abcvote check`, in text and JSON, for every axiom name and alias plus the
sampling, splits, lambda-cap and usage-error variants.  It was captured
from the implementation before the axiom table replaced the per-verb
dispatch, and must not change unless a change means to alter the output.
`@name` arguments stand for profile files written from its `profiles`.

`golden/search_corpus.json` likewise pins `abcvote search` (witnesses
found and searches exhausted, pair axioms included, m <= 5) and
`abcvote separations`, in text and JSON.  It was captured from the m!
dense-vector canonical scan that the ballot tables replaced, so it pins the
first witness in stream order and every exhausted instance count.

`golden/fit_corpus.json` pins `abcvote fit`: Thiele and ballot-size fits,
feasible and infeasible, in text and JSON, plus an empty file and a k that
the observations do not have.  `@name` arguments stand for its
`observations` files.  It was captured before `fit` read k and m off the
observations instead of taking them as parameters.

Every verb's `--format json` payload must validate against
docs/cli-output.schema.json.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from abcvote.axioms import AXIOMS
from abcvote.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((Path(__file__).parent / "golden" / "check_corpus.json").read_text(encoding="utf-8"))
SEARCH_CORPUS = json.loads((Path(__file__).parent / "golden" / "search_corpus.json").read_text(encoding="utf-8"))
FIT_CORPUS = json.loads((Path(__file__).parent / "golden" / "fit_corpus.json").read_text(encoding="utf-8"))
SCHEMA = json.loads((ROOT / "docs" / "cli-output.schema.json").read_text(encoding="utf-8"))


@pytest.fixture
def profiles(tmp_path):
    for name, text in CORPUS["profiles"].items():
        (tmp_path / f"{name}.abc").write_text(text, encoding="utf-8")
    return tmp_path


def _resolve(argv, directory):
    return [str(directory / f"{arg[1:]}.abc") if arg.startswith("@") else arg for arg in argv]


def test_corpus_covers_every_name_and_alias():
    named = {case["argv"][case["argv"].index("--axiom") + 1] for case in CORPUS["cases"]}
    assert {name for axiom in AXIOMS for name in (axiom.name, *axiom.aliases)} <= named


@pytest.mark.parametrize("case", CORPUS["cases"], ids=lambda case: " ".join(case["argv"][1:3] + case["argv"][-1:]))
def test_check_output_pinned(case, profiles, capsys):
    assert main(_resolve(case["argv"], profiles)) == case["code"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", SEARCH_CORPUS["cases"], ids=lambda case: " ".join(case["argv"]))
def test_search_output_pinned(case, capsys):
    assert main(case["argv"]) == case["code"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", FIT_CORPUS["cases"], ids=lambda case: " ".join(case["argv"][1:]))
def test_fit_output_pinned(case, tmp_path, capsys):
    for name, text in FIT_CORPUS["observations"].items():
        (tmp_path / f"{name}.abc").write_text(text, encoding="utf-8")
    assert main(_resolve(case["argv"], tmp_path)) == case["code"]
    assert capsys.readouterr().out == case["stdout"]


def test_not_party_list_message(profiles, capsys):
    argv = ["check", "--axiom", "party-prop", "--rule", "av", "--k", "1", "--profile", "@not_party"]
    assert main(_resolve(argv, profiles)) == 2
    assert capsys.readouterr().err == "error: profile is not party-list: two distinct ballots overlap\n"


JSON_RUNS = [
    ["winners", "--rule", "pav", "--k", "2", "--profile", "@example"],
    ["score", "--rule", "pav", "--k", "2", "--profile", "@example", "--committee", "0 1"],
    ["check", "--axiom", "iol", "--rule", "sav", "--k", "1", "--profile", "@sav_ce"],
    ["check", "--axiom", "anonymity", "--rule", "pav", "--k", "2", "--profile", "@example"],
    ["check", "--axiom", "continuity", "--rule", "av", "--k", "1", "--profile", "@a", "--profile2", "@b"],
    ["check", "--axiom", "continuity", "--rule", "av", "--k", "1", "--profile", "@a", "--profile2", "@b",
     "--lambda-cap", "1"],
    ["search", "--axiom", "convexity", "--rule", "pav", "--k", "2", "--max-m", "4", "--max-n", "2"],
    ["search", "--axiom", "convexity", "--rule", "av", "--k", "2", "--max-m", "3", "--max-n", "2"],
    ["separations"],
    ["fit", "--family", "thiele", "--k", "1", "--observations", "@observations"],
    ["fit", "--family", "thiele", "--k", "1", "--observations", "@infeasible"],
    ["fit", "--family", "bswav", "--k", "1", "--observations", "@observations"],
]


@pytest.mark.parametrize("argv", JSON_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_json_payload_matches_schema(argv, profiles, capsys):
    (profiles / "observations.abc").write_text("m=3\n0 1\n0 1\n2\nchosen: {0},{1}\n")
    (profiles / "infeasible.abc").write_text("m=3\n0 1\n0 1\n2\nchosen: {0},{1},{2}\nm=3\n0 1\n1\n2\nchosen: {1}\n")
    assert main(_resolve(argv, profiles) + ["--format", "json"]) in (0, 1)
    jsonschema.validate(json.loads(capsys.readouterr().out), SCHEMA)
