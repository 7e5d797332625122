import json

import pytest

from abcvote.cli import main
from abcvote.identify import Observation, format_observations
from abcvote.profiles import parse_profile, profile_to_vector
from abcvote.rules import named_rule, winners
from abcvote.search import enumerate_profiles


def fs(*xs):
    return frozenset(xs)


EXAMPLE = "m=4\n0 1\n0\n2 3\n"
SAV_CE = "m=3\n0 1\n0 1\n2\n"
NOT_PARTY = "m=3\n0 1\n1 2\n"


@pytest.fixture
def example(tmp_path):
    path = tmp_path / "ex.abc"
    path.write_text(EXAMPLE)
    return str(path)


class TestWinners:
    def test_pav_example(self, example, capsys):
        assert main(["winners", "--rule", "pav", "--k", "2", "--profile", example]) == 0
        assert capsys.readouterr().out == "{0,2} {0,3}  score 3\n"

    def test_inline_thiele_matches_pav(self, example, capsys):
        main(["winners", "--rule", "pav", "--k", "2", "--profile", example])
        expected = capsys.readouterr().out
        main(["winners", "--rule", "thiele:0,1,3/2", "--k", "2", "--profile", example])
        assert capsys.readouterr().out == expected

    def test_json_output(self, example, capsys):
        assert main(["winners", "--rule", "pav", "--k", "2", "--format", "json", "--profile", example]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rule": "pav", "k": 2, "winners": [[0, 2], [0, 3]], "score": "3"}

    def test_malformed_ballot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.abc"
        path.write_text("m=2\n1 0\n")
        assert main(["winners", "--rule", "av", "--k", "1", "--profile", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["thiele:0,1/0", "bswav:1/0,1,1,1"])
    def test_zero_denominator_exits_2(self, example, rule, capsys):
        k = "1" if rule.startswith("thiele") else "2"
        assert main(["winners", "--rule", rule, "--k", k, "--profile", example]) == 2
        assert "error: zero denominator in '1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["m=12\n0 1_0\n", "m=4\n+1\n", "m=4\n\u0661\n", "m=+4\n0\n"])
    def test_loose_integers_exit_2(self, tmp_path, text, capsys):
        path = tmp_path / "loose.abc"
        path.write_text(text, encoding="utf-8")
        assert main(["winners", "--rule", "av", "--k", "1", "--profile", str(path)]) == 2
        assert "line " in capsys.readouterr().err

    def test_byte_identical_reruns(self, example, capsys):
        main(["winners", "--rule", "sav", "--k", "2", "--profile", example])
        first = capsys.readouterr().out
        main(["winners", "--rule", "sav", "--k", "2", "--profile", example])
        assert capsys.readouterr().out == first


class TestScore:
    def test_exact_rational(self, example, capsys):
        assert main(["score", "--rule", "pav", "--k", "2", "--profile", example, "--committee", "0 1"]) == 0
        assert capsys.readouterr().out == "{0,1}  score 5/2\n"

    def test_wrong_size_exits_2(self, example):
        assert main(["score", "--rule", "pav", "--k", "2", "--profile", example, "--committee", "0"]) == 2

    @pytest.mark.parametrize("committee", ["-1 0", "0 4"])
    def test_candidate_out_of_range_exits_2(self, example, committee, capsys):
        argv = ["score", "--rule", "pav", "--k", "2", "--profile", example, "--committee", committee]
        assert main(argv) == 2
        assert "outside 0..3" in capsys.readouterr().err


class TestCheck:
    def test_sav_iol_violation(self, tmp_path, capsys):
        path = tmp_path / "ce.abc"
        path.write_text(SAV_CE)
        code = main(["check", "--axiom", "iol", "--rule", "sav", "--k", "1", "--profile", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "violation: independence-of-losers" in out
        assert "m=3" in out  # witness profile rendered in core format

    def test_witness_profile_reparses(self, tmp_path, capsys):
        path = tmp_path / "ce.abc"
        path.write_text(SAV_CE)
        main(
            ["check", "--axiom", "iol", "--rule", "sav", "--k", "1", "--format", "json",
             "--profile", str(path)]
        )
        record = json.loads(capsys.readouterr().out)
        reduced = parse_profile(record["witness"]["reduced_profile"])
        original = parse_profile(record["witness"]["profile"])
        assert profile_to_vector(original) == profile_to_vector(parse_profile(SAV_CE))
        assert reduced.m == 3

    def test_av_convexity_passes(self, example):
        assert main(["check", "--axiom", "convexity", "--rule", "av", "--k", "2", "--profile", example]) == 0

    def test_party_prop_on_non_party_list_is_usage_error(self, tmp_path):
        path = tmp_path / "np.abc"
        path.write_text(NOT_PARTY)
        code = main(["check", "--axiom", "party-prop", "--rule", "av", "--k", "1", "--profile", str(path)])
        assert code == 2

    def test_consistency_pair(self, tmp_path):
        a = tmp_path / "a.abc"
        b = tmp_path / "b.abc"
        a.write_text("m=2\n0\n")
        b.write_text("m=2\n0 1\n")
        code = main(
            ["check", "--axiom", "consistency", "--rule", "av", "--k", "1",
             "--profile", str(a), "--profile2", str(b)]
        )
        assert code == 0

    def test_consistency_needs_second_input(self, example):
        assert main(["check", "--axiom", "consistency", "--rule", "av", "--k", "2", "--profile", example]) == 2

    def test_consistency_splits(self, example):
        code = main(["check", "--axiom", "consistency", "--rule", "pav", "--k", "2",
                     "--profile", example, "--splits"])
        assert code == 0

    def test_continuity_lambda(self, tmp_path, capsys):
        a = tmp_path / "a.abc"
        b = tmp_path / "b.abc"
        a.write_text("m=2\n0\n")
        b.write_text("m=2\n1\n")
        code = main(
            ["check", "--axiom", "continuity", "--rule", "av", "--k", "1",
             "--profile", str(a), "--profile2", str(b)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("lambda 2")

    def test_unknown_axiom(self, example):
        assert main(["check", "--axiom", "nonsense", "--rule", "av", "--k", "2", "--profile", example]) == 2


class TestSearchCommand:
    def test_pav_convexity_witness_printed(self, capsys):
        code = main(["search", "--axiom", "convexity", "--rule", "pav", "--k", "2",
                     "--max-m", "4", "--max-n", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "witness found" in out and "m=4" in out

    def test_av_convexity_exhausted(self, capsys):
        code = main(["search", "--axiom", "convexity", "--rule", "av", "--k", "2",
                     "--max-m", "4", "--max-n", "2"])
        assert code == 1
        assert "exhausted" in capsys.readouterr().out

    def test_json_mode(self, capsys):
        main(["search", "--axiom", "iol", "--rule", "sav", "--k", "1", "--max-m", "3",
              "--max-n", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True
        assert payload["rule"] == "sav"


class TestSeparationsCommand:
    def test_exit_zero_and_deterministic(self, capsys):
        assert main(["separations"]) == 0
        first = capsys.readouterr().out
        assert main(["separations"]) == 0
        assert capsys.readouterr().out == first
        assert "all expectations met" in first

    def test_json(self, capsys):
        assert main(["separations", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


class TestFitCommand:
    def test_pav_observations_recover_harmonic(self, tmp_path, capsys):
        rule = named_rule("pav", 2, 4)
        profiles = [p for n in (1, 2) for p in enumerate_profiles(4, n)]
        obs = [Observation.from_profile(p, winners(rule, p), 2) for p in profiles]
        path = tmp_path / "pav_obs.txt"
        path.write_text(format_observations(obs))
        code = main(["fit", "--family", "thiele", "--k", "2", "--observations", str(path)])
        assert code == 0
        assert capsys.readouterr().out == "s: 0,1,3/2\n"

    def test_infeasible_exits_one(self, tmp_path, capsys):
        text = (
            "m=3\n0 1\n0 1\n2\nchosen: {0},{1},{2}\n"
            "m=3\n0 1\n1\n2\nchosen: {1}\n"
        )
        path = tmp_path / "obs.txt"
        path.write_text(text)
        code = main(["fit", "--family", "thiele", "--k", "1", "--observations", str(path)])
        assert code == 1
        assert capsys.readouterr().out == "infeasible\n"

    def test_bad_observation_file_exits_2(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("m=3\n0 1\n")
        assert main(["fit", "--family", "thiele", "--k", "1", "--observations", str(path)]) == 2


class TestFlags:
    def test_threads_validated(self, example):
        assert main(["winners", "--rule", "av", "--k", "2", "--profile", example, "--threads", "0"]) == 2

    def test_missing_file(self):
        assert main(["winners", "--rule", "av", "--k", "2", "--profile", "/nonexistent.abc"]) == 2
