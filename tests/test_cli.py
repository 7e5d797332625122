import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from abcvote import axioms, cli, identify, rules
from abcvote import profiles as profiles_module
from abcvote.cli import main
from abcvote.identify import Observation, format_observations
from abcvote.profiles import Profile, ProfileVector, all_ballots, enumerate_committees, parse_profile, profile_to_vector
from abcvote.rules import bswav_rule, named_rule, parse_rule_spec, winners
from abcvote.search import enumerate_profiles


def fs(*xs):
    return frozenset(xs)


EXAMPLE = "m=4\n0 1\n0\n2 3\n"
SAV_CE = "m=3\n0 1\n0 1\n2\n"
NOT_PARTY = "m=3\n0 1\n1 2\n"


def run_limited(argv, timeout, address_space=1 << 30):
    """Run `main(argv)` in a child under `timeout` seconds and an address-space
    limit, so an input that allocates before it is refused fails the test
    quickly instead of exhausting memory; None on a timeout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import resource, sys; sys.path.insert(0, {src!r}); "
        f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space})); "
        f"from abcvote.cli import main; sys.exit(main({argv!r}))"
    )
    try:
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


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

    def test_undecodable_profile_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.abc"
        path.write_bytes(b"m=3\r\n0 1\r\n# caf\xe9\n2\n")
        assert main(["winners", "--rule", "av", "--k", "1", "--profile", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: line 3: invalid UTF-8 byte 0xe9\n")

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

    @pytest.mark.parametrize("token", ["\u0661", "1_0", "+1", "1/ 2", "0x1"])
    def test_rule_spec_token_outside_plain_digits_exits_2(self, example, token, capsys):
        # int() would read "١" as 1, "1_0" as 10 and "+1" as 1
        assert main(["winners", "--rule", f"thiele:0,{token}", "--k", "1", "--profile", example]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid rational {token!r}: expected p or p/q in plain digits\n"

    @pytest.mark.parametrize("rule, k", [("ccav", 50_000_000), ("pav", 30_000)])
    def test_committee_size_over_m_exits_2_before_allocating(self, example, rule, k):
        # the k + 1 Thiele values used to be built before k was compared with m
        out = run_limited(["winners", "--rule", rule, "--k", str(k), "--profile", example], timeout=10)
        assert out is not None, f"winners --rule {rule} --k {k} did not exit within 10 s"
        assert (out.returncode, out.stderr) == (2, f"error: committee size k={k} must satisfy 1 <= k <= m-1=3\n")

    def test_over_committee_limit_exits_2(self, tmp_path, capsys):
        # C(24, 12) = 2,704,156 committees, over profiles.MAX_COMMITTEES
        path = tmp_path / "wide.abc"
        path.write_text("m=24\n0\n1 2\n")
        assert main(["winners", "--rule", "av", "--k", "12", "--profile", str(path)]) == 2
        assert "enumeration limit" in capsys.readouterr().err
        for cap in ([], ["--lambda-cap", "3"]):
            argv = ["check", "--axiom", "continuity", "--rule", "av", "--k", "12",
                    "--profile", str(path), "--profile2", str(path), *cap]
            assert main(argv) == 2
            assert "enumeration limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, m",
        [
            # a mask with bit 19999999999 set takes 2.5 GB: these died of a MemoryError
            (["winners", "--rule", "av", "--k", "1"], "20000000000"),
            (["check", "--axiom", "anonymity", "--rule", "av", "--k", "1"], "20000000000"),
            (["check", "--axiom", "iol", "--rule", "av", "--k", "1"], "20000000000"),
            # C(m, k) itself is slow to compute at a huge k
            (["winners", "--rule", "av", "--k", "1000000"], "20000000000"),
            # and so are the k + 1 values of a Thiele rule, whose denominators reach tens of thousands of digits
            (["winners", "--rule", "pav", "--k", "100000"], "20000000000"),
            # a ballot-size rule has m weights: 48 s to build at m = 10^7, past 20 s at m = 2*10^10
            (["winners", "--rule", "sav", "--k", "1"], "10000000"),
            (["check", "--axiom", "weak-efficiency", "--rule", "sav", "--k", "1"], "20000000000"),
            (["score", "--rule", "sav", "--k", "1", "--committee", "0"], "20000000000"),
        ],
        ids=["winners", "anonymity", "iol", "huge-k", "huge-k-pav", "sav", "sav-check", "sav-score"],
    )
    def test_committee_limit_before_any_mask_or_weight(self, tmp_path, argv, m):
        path = tmp_path / "huge.abc"
        path.write_text(f"m={m}\n0 {int(m) - 1}\n2\n")
        out = run_limited([*argv, "--profile", str(path)], timeout=10, address_space=2_000_000 * 1024)
        assert out is not None, f"{argv[0]} at m = {m} did not exit within 10 s"
        k = argv[argv.index("--k") + 1]
        assert (out.returncode, out.stderr) == (2, f"error: C({m},{k}) committees exceed the enumeration limit 200000\n")

    @pytest.mark.parametrize(
        "argv, m",
        [
            # 20,000 committees of 19,999 members, and 200,000 masks of up to 200,000 bits:
            # both passed the count and died of a MemoryError while building them
            (["winners", "--rule", "av", "--k", "19999"], 20_000),
            (["winners", "--rule", "pav", "--k", "1"], 200_000),
            (["check", "--axiom", "anonymity", "--rule", "av", "--k", "19999"], 20_000),
        ],
        ids=["wide-committees", "wide-masks", "wide-check"],
    )
    def test_committee_width_limit_exits_2(self, tmp_path, argv, m):
        path = tmp_path / "wide.abc"
        path.write_text(f"m={m}\n0 1\n0\n2\n")
        out = run_limited([*argv, "--profile", str(path)], timeout=10, address_space=2_000_000 * 1024)
        assert out is not None, f"{argv[0]} at m = {m} did not exit within 10 s"
        k = argv[argv.index("--k") + 1]
        message = f"error: C({m},{k}) committees with their {m}-bit masks exceed the memory limit 34000000 B\n"
        assert (out.returncode, out.stderr) == (2, message)

    @pytest.mark.parametrize("m, committee, score", [(120, "0,1,2", "3"), (21_000, "0,1", "2")])
    def test_ballot_size_rule_scores_one_committee_over_the_committee_limit(self, tmp_path, m, committee, score):
        # C(120, 3) = 280,840 and C(21000, 2) committees are over the limit, but `score` scores
        # one of them; only sav's m weights are bounded
        path = tmp_path / "wide.abc"
        path.write_text(f"m={m}\n0 1\n0\n2\n")
        k = str(len(committee.split(",")))
        out = run_limited(["score", "--rule", "sav", "--k", k, "--committee", committee, "--profile", str(path)], 20)
        assert out is not None and (out.returncode, out.stdout) == (0, f"{{{committee}}}  score {score}\n")

    @pytest.mark.parametrize("axiom", ["excellence", "party-proportionality", "aversion-unanimous", "msav-threshold"])
    def test_party_list_check_at_huge_m_exits_2(self, tmp_path, axiom):
        # a party-list checker lists all m candidates before it scores: the limit comes first
        path = tmp_path / "huge.abc"
        path.write_text("m=20000000000\n0 1\n0 1\n2\n")
        argv = ["check", "--axiom", axiom, "--rule", "av", "--k", "1", "--profile", str(path)]
        out = run_limited(argv, timeout=10, address_space=2_000_000 * 1024)
        assert out is not None, f"check --axiom {axiom} at a huge m did not exit within 10 s"
        message = "error: C(20000000000,1) committees exceed the enumeration limit 200000\n"
        assert (out.returncode, out.stderr) == (2, message)

    @pytest.mark.parametrize("rule", ["pav", "sav"])
    def test_one_kernel_call_per_job(self, example, rule, monkeypatch):
        # the winners and their score come from one scoring
        calls = []
        kernel = rules._kernel
        monkeypatch.setattr(rules, "_kernel", lambda *args: calls.append(args) or kernel(*args))
        assert main(["winners", "--rule", rule, "--k", "2", "--profile", example]) == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("committee", ["0 \u0661", "+0 1_0", "0 +1", "0\u20031", "0 1.0"])
    def test_loose_integers_exit_2(self, example, committee, capsys):
        # the profile parser's rule: plain ASCII digits only
        argv = ["score", "--rule", "pav", "--k", "2", "--profile", example, "--committee", committee]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must list plain digits" in captured.err

    @pytest.mark.parametrize(
        "rule, k, committee, repeated",
        [("av", "1", "0 0", 0), ("pav", "2", "0 0 1", 0), ("pav", "2", "2,1,2", 2), ("pav", "2", "7 7", 7)],
        ids=["av", "pav-over-k", "comma", "out-of-range"],
    )
    def test_repeated_member_exits_2(self, tmp_path, rule, k, committee, repeated, capsys):
        # refused before the size and range checks, naming the candidate; these
        # scored {0,0} as 2 and {0,0,1} as 5/2
        path = tmp_path / "m3.abc"
        path.write_text("m=3\n0 1\n0\n2\n")
        argv = ["score", "--rule", rule, "--k", k, "--profile", str(path), "--committee", committee]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: committee lists candidate {repeated} more than once\n"

    def test_comma_separated(self, example, capsys):
        argv = ["score", "--rule", "pav", "--k", "2", "--profile", example, "--committee", "1,0"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "{0,1}  score 5/2\n"

    def test_huge_candidate_count_builds_only_the_ballot_sizes_present(self, tmp_path):
        # building a table row for every ballot size 1..m took over 20 s at
        # this m; a Thiele rule's scale and rows do not depend on m
        path = tmp_path / "huge.abc"
        path.write_text("m=20000000000\n0 1\n0\n2\n")
        argv = ["score", "--rule", "av", "--k", "1", "--profile", str(path), "--committee", "0"]
        out = run_limited(argv, timeout=10, address_space=2_000_000 * 1024)
        assert out is not None, "score at m = 20000000000 did not exit within 10 s"
        assert (out.returncode, out.stdout) == (0, "{0}  score 2\n")

    def test_committee_is_read_before_the_rule(self, tmp_path):
        # PAV at k = 100,000 builds 100,001 harmonic numbers, which ran past 5 s; a
        # one-member committee is refused before the rule is built
        path = tmp_path / "huge.abc"
        path.write_text("m=20000000000\n0 1\n0\n2\n")
        argv = ["score", "--rule", "pav", "--k", "100000", "--profile", str(path), "--committee", "0"]
        out = run_limited(argv, timeout=10, address_space=2_000_000 * 1024)
        assert out is not None, "score at k = 100000 did not exit within 10 s"
        assert (out.returncode, out.stderr) == (2, "error: committee size 1 does not match rule k=100000\n")

    @pytest.mark.parametrize(
        "ballots, rule, committee, expected",
        [
            (["0 1", "0", "2"], "av", "19999999999", "{19999999999}  score 0\n"),
            (["0 19999999999", "19999999999", "2"], "av", "19999999999", "{19999999999}  score 2\n"),
            # 31 distinct ballots at k = 2, where `winners` would bit-slice PAV
            ([f"{c} 19999999999" for c in range(30)] + ["19999999999"], "pav", "0 19999999999",
             "{0,19999999999}  score 63/2\n"),
        ],
        ids=["committee", "ballots", "sliced"],
    )
    def test_huge_candidate_index_builds_no_huge_mask(self, tmp_path, ballots, rule, committee, expected):
        # a mask with bit 19999999999 set takes 2.5 GB; `score` reads each
        # ballot's size and overlap with the committee, and builds no mask
        path = tmp_path / "huge.abc"
        path.write_text("m=20000000000\n" + "".join(f"{ballot}\n" for ballot in ballots))
        k = str(len(committee.split()))
        argv = ["score", "--rule", rule, "--k", k, "--profile", str(path), "--committee", committee]
        out = run_limited(argv, timeout=10, address_space=2_000_000 * 1024)
        assert out is not None, "score at m = 20000000000 did not exit within 10 s"
        assert (out.returncode, out.stdout) == (0, expected)


class TestCheck:
    def test_sav_iol_violation(self, tmp_path, capsys):
        path = tmp_path / "ce.abc"
        path.write_text(SAV_CE)
        code = main(["check", "--axiom", "iol", "--rule", "sav", "--k", "1", "--profile", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "violation: independence-of-losers" in out
        assert "m=3" in out  # witness profile rendered in core format

    @pytest.mark.parametrize(
        "flag", [["--mode", "sample"], ["--mode", "all"], ["--seed", "3"], ["--count", "4"], ["--max-voters", "40"]]
    )
    def test_walk_flags_are_unknown(self, tmp_path, flag, capsys):
        # every check of a library rule is decided exactly, so nothing is sampled and no walk needs a cap
        path = tmp_path / "ce.abc"
        path.write_text(SAV_CE)
        with pytest.raises(SystemExit) as exit_:
            main(["check", "--axiom", "iol", "--rule", "sav", "--k", "1", "--profile", str(path), *flag])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")

    def test_iol_first_witness_past_the_walk_cap(self, tmp_path, capsys):
        # sav's winner (2,) has 9 * 2**20 reduced profiles, over the walk's cap of 65,536; least
        # margins find its first losing one, where the second voter's {0,1} is cut to {1}
        path = tmp_path / "sav.abc"
        full = "0 1 2 3 4 5\n"
        path.write_text("m=6\n0 1\n0 1\n2\n" + full * 4)
        argv = ["check", "--axiom", "iol", "--rule", "sav", "--k", "1", "--profile", str(path), "--format", "json"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["passed"], payload["checked"]) == (False, 9437185)
        assert payload["witness"]["reduced_profile"] == "m=6\n0 1\n1\n2\n" + full * 4

    def test_iol_witness_on_more_voters_than_the_cap(self, tmp_path, capsys):
        # 66,003 voters, each with one reduction but the two {0,1}: sav's (0,) and (1,) survive
        # their 4 reduced profiles each, and (2,) loses on its 2nd of 9, where the second {0,1}
        # is cut to {1}; one reduction is tried past the voters' first ones
        path = tmp_path / "many.abc"
        path.write_text("m=3\n" + "0\n1\n2\n" * 22000 + "2\n0 1\n0 1\n")
        argv = ["check", "--axiom", "iol", "--rule", "sav", "--k", "1", "--profile", str(path), "--format", "json"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["passed"], payload["checked"], payload["witness"]["committee"]) == (False, 10, [2])
        assert payload["witness"]["reduced_profile"] == "m=3\n" + "0\n1\n2\n" * 22000 + "2\n0 1\n1\n"

    def test_counts_past_the_int_text_limit(self, tmp_path, capsys):
        # 300 voters approving all of m = 50: each of ccav's 50 winners has (2**49)**300 reduced
        # profiles, a count of 4,426 digits, over CPython's default limit of 4,300 for int to text
        path = tmp_path / "wide.abc"
        path.write_text("m=50\n" + (" ".join(map(str, range(50))) + "\n") * 300)
        argv = ["check", "--axiom", "iol", "--rule", "ccav", "--k", "1", "--profile", str(path)]
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(argv) == 0
        checked = 50 * 2**14700
        with cli._any_int_digits():
            text = str(checked)
        passed = f"pass: independence-of-losers holds on this instance ({text} cases checked)\n"
        assert capsys.readouterr() == (passed, "")
        assert main(argv + ["--format", "json"]) == 0
        payload = capsys.readouterr().out
        with cli._any_int_digits():
            assert json.loads(payload)["checked"] == checked
        # the limit is lifted only while the output is written
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.parametrize("verb", ["winners", "score"])
    def test_scores_past_the_int_text_limit(self, tmp_path, verb, capsys):
        # weights 1/p and 1/q with 3,001-digit p and q give candidate 0 the score
        # (p + q)/(p * q), whose denominator has 6,001 digits
        p, q = 10**3000 + 1, 10**3000 + 3
        path = tmp_path / "p.abc"
        path.write_text("m=3\n0\n0 1\n")
        with cli._any_int_digits():
            rule, score = f"bswav:1/{p},1/{q},1", f"{p + q}/{p * q}"
        committee = ["--committee", "0"] if verb == "score" else []
        argv = [verb, "--rule", rule, "--k", "1", "--profile", str(path), *committee]
        assert main(argv) == 0
        assert capsys.readouterr() == (f"{{0}}  score {score}\n", "")

    def test_splits_over_ten_voters(self, tmp_path, capsys):
        # a rule passes every split by its form; 20 voters have 2**19 - 1 of them
        path = tmp_path / "twenty.abc"
        path.write_text("m=3\n" + "0 1\n2\n" * 10)
        argv = ["check", "--axiom", "consistency", "--rule", "pav", "--k", "2", "--profile", str(path), "--splits"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "pass: consistency holds on this instance (524287 cases checked)\n"

    @pytest.mark.parametrize(
        "axiom, text, message",
        [
            ("anonymity", "m=3\n" + "0\n1 2\n" * 4 + "2\n", "anonymity is checked on at most 8 voters"),
            ("neutrality", "m=9\n0 1\n8\n3 4 5\n", "neutrality is checked on at most 8 candidates"),
        ],
        ids=["anonymity", "neutrality"],
    )
    def test_permutation_walk_cap_exits_2(self, tmp_path, axiom, text, message, capsys):
        # a rule refuses past the cap as its walk would, and the message names no mode
        path = tmp_path / "p.abc"
        path.write_text(text)
        for fmt in ("text", "json"):
            argv = ["check", "--axiom", axiom, "--rule", "pav", "--k", "2", "--profile", str(path), "--format", fmt]
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_iol_cap_counts_only_reductions_that_exist(self, tmp_path, capsys):
        # a ballot {1} missing the winner (0,) has one reduction, itself, not 2; the
        # 17 of them once counted 2**17 = 131072 reduced profiles, over the cap
        path = tmp_path / "p.abc"
        path.write_text("m=3\n" + "0\n" * 20 + "1\n" * 17)
        assert main(["check", "--axiom", "iol", "--rule", "av", "--k", "1", "--profile", str(path)]) == 0
        assert capsys.readouterr().out == "pass: independence-of-losers holds on this instance (1 cases checked)\n"

    def test_iol_wide_ballot_decided_at_once(self, tmp_path):
        # one voter approving all of m = 40: each of the 40 winners has 2**39 reduced
        # profiles; ccav's pass by its form, sav's by least margins in 40 lookups each
        path = tmp_path / "wide.abc"
        path.write_text("m=40\n" + " ".join(map(str, range(40))) + "\n")
        for rule in ("ccav", "sav"):
            out = run_limited(["check", "--axiom", "iol", "--rule", rule, "--k", "1", "--profile", str(path)], timeout=10)
            assert out is not None, f"the over-cap IOL check of {rule} did not exit within 10 s"
            assert (out.returncode, out.stderr) == (0, "")
            assert out.stdout == "pass: independence-of-losers holds on this instance (21990232555520 cases checked)\n"

    @pytest.mark.parametrize("rule, checked", [("pav", 24), ("ccav", 136)])
    def test_iol_exhaustive_pass_counts(self, tmp_path, rule, checked, capsys):
        # every reduced profile of every winner is counted; a ballot that
        # misses a winner (such as {3,4} against pav's) must keep one candidate
        path = tmp_path / "p.abc"
        path.write_text("m=5\n0 1\n0 1 2\n2\n3 4\n")
        argv = ["check", "--axiom", "iol", "--rule", rule, "--k", "2", "--profile", str(path)]
        assert main(argv) == 0
        passed = f"pass: independence-of-losers holds on this instance ({checked} cases checked)\n"
        assert capsys.readouterr().out == passed
        assert main(argv + ["--format", "json"]) == 0
        expected = f'{{"axiom": "independence-of-losers", "checked": {checked}, "passed": true, "witness": null}}\n'
        assert capsys.readouterr().out == expected

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

    @pytest.mark.parametrize("cap", [[], ["--lambda-cap", "5"]])
    def test_continuity_profiles_must_share_m(self, tmp_path, cap, capsys):
        a = tmp_path / "a.abc"
        b = tmp_path / "b.abc"
        a.write_text("m=3\n0\n1 2\n")
        b.write_text("m=4\n3\n3\n3\n1\n")
        argv = ["check", "--axiom", "continuity", "--rule", "av", "--k", "1",
                "--profile", str(a), "--profile2", str(b), *cap]
        message = "error: profiles must share the candidate count: m=3 and m=4\n"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)
        if not cap:  # consistency reads no --lambda-cap, and says the same
            argv[2] = "consistency"
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message)

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

    def test_no_admissible_committee_size_exits_2(self, capsys):
        # committees have size k <= m - 1, so --k 5 needs --max-m 6: nothing to search
        code = main(["search", "--axiom", "convexity", "--rule", "av", "--k", "5", "--max-m", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k_set [5] needs m_max of at least 6\n"

    def test_unknown_rule_lists_every_search_rule(self, capsys):
        code = main(["search", "--rule", "thiele:0,1", "--axiom", "convexity", "--k", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = "error: unknown rule 'thiele:0,1'; expected one of av, pav, ccav, sav, msav, triv, min-approval\n"
        assert captured.err == expected

    def test_search_rule_names_ignore_case(self, capsys):
        assert main(["search", "--rule", "MIN-Approval", "--axiom", "weak-efficiency", "--k", "1", "--max-m", "3",
                     "--max-n", "1"]) == 0
        assert "witness found" in capsys.readouterr().out

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

    def test_undecodable_observations_name_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "obs.txt"
        path.write_bytes(b"m=3\n0 1\n2\nchosen: {0}\nm=3\n\xff\nchosen: {1}\n")
        assert main(["fit", "--family", "thiele", "--k", "1", "--observations", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: line 6: invalid UTF-8 byte 0xff\n")

    def test_no_m_option(self, tmp_path, capsys):
        # the candidate count always comes from the observations file
        path = tmp_path / "obs.txt"
        path.write_text("m=3\n0 1\n2\nchosen: {0},{1}\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--family", "bswav", "--k", "1", "--m", "3", "--observations", str(path)])
        assert exc.value.code == 2
        assert main(["fit", "--family", "bswav", "--k", "1", "--observations", str(path)]) == 0

    @pytest.mark.parametrize(
        "text, line",
        [
            # a repeated member, which no committee of size k has
            ("m=3\n0 1\n2\nchosen: {0,0}\n", 4),
            # committees are sorted index lists; {1,0} is not one
            ("m=3\n0 1\n2\nchosen: {0,1},{1,0}\n", 4),
            # a bad ballot in the second block is located within the file
            ("m=3\n0 1\n2\nchosen: {0,1}\nm=3\n0 +1\nchosen: {0,1}\n", 6),
        ],
    )
    def test_malformed_observations_located_by_file_line(self, tmp_path, text, line, capsys):
        path = tmp_path / "obs.txt"
        path.write_text(text)
        assert main(["fit", "--family", "thiele", "--k", "2", "--observations", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line {line}: ")

    @pytest.mark.parametrize(
        "listed", ["{0,1}{1,2}", "{0,1} junk {9,9}", "{0, 1}", "", "{0,1},", "{}", "{0,1};{0,2}", "{0,1} # tie"]
    )
    def test_chosen_line_outside_the_grammar_exits_2(self, tmp_path, listed, capsys):
        # `{i,...}` groups separated by commas, nothing else
        path = tmp_path / "obs.txt"
        path.write_text(f"m=3\n0 1\n2\nchosen: {listed}\n")
        assert main(["fit", "--family", "thiele", "--k", "2", "--observations", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 4: invalid chosen line {f'chosen: {listed}'.strip()!r}\n"

    @pytest.mark.parametrize("family", ["thiele", "bswav"])
    def test_mixed_m_located_by_file_line(self, tmp_path, family, capsys):
        path = tmp_path / "obs.txt"
        path.write_text("m=3\n0 1\n2\nchosen: {0,1}\n# a second election\nm=4\n0 1\n2 3\nchosen: {0,1}\n")
        assert main(["fit", "--family", family, "--k", "2", "--observations", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 9: observations must share m and k: m=4 here, m=3 before\n"

    @pytest.mark.parametrize("text", ["", "# no observations yet\n\n"])
    def test_empty_observations_file_named(self, tmp_path, text, capsys):
        path = tmp_path / "obs.txt"
        path.write_text(text)
        assert main(["fit", "--family", "thiele", "--k", "1", "--observations", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: observations file is empty\n"

    def test_ballot_lines_are_checked_again_when_m_changes(self, tmp_path, capsys):
        # `0 5` passed in the m = 6 block; the m = 4 block must not take it from the line cache
        path = tmp_path / "obs.txt"
        path.write_text("m=6\n0 5\n1\nchosen: {0}\nm=4\n0 5\n1\nchosen: {0}\n")
        assert main(["fit", "--family", "thiele", "--k", "1", "--observations", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 6: ballot indices must lie in 0..3\n"

    def test_no_mask_decoded_or_vector_built_and_one_kernel_call_per_observation(self, tmp_path, monkeypatch, capsys):
        # ballots go straight from the parsed lines to kernel terms: no mask is decoded back to a
        # ballot, no profile vector is built, and the re-check is one kernel call per observation
        rng = random.Random(200)
        rule = named_rule("pav", 2, 5)
        profiles = [Profile.from_ballots(5, [rng.choice(all_ballots(5)) for _ in range(6)]) for _ in range(200)]
        path = tmp_path / "obs.txt"
        path.write_text(format_observations([Observation.from_profile(p, winners(rule, p), 2) for p in profiles]))
        decoded, vectors, kernel_calls = [], [], []
        kernel = rules._kernel
        monkeypatch.setattr(profiles_module, "mask_ballot", lambda *args: decoded.append(args))
        monkeypatch.setattr(ProfileVector, "__post_init__", lambda vector: vectors.append(vector))
        monkeypatch.setattr(rules, "_kernel", lambda *args: kernel_calls.append(args) or kernel(*args))
        assert main(["fit", "--family", "thiele", "--k", "2", "--observations", str(path)]) == 0
        assert capsys.readouterr().out == "s: 0,1,3/2\n"
        assert decoded == [] and vectors == []
        assert len(kernel_calls) == 200

    def test_committee_of_all_candidates_located_by_file_line(self, tmp_path, capsys):
        path = tmp_path / "obs.txt"
        path.write_text("m=3\n0 1\n2\nchosen: {0,1,2}\n")
        assert main(["fit", "--family", "thiele", "--k", "3", "--observations", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 4: committee size k=3 must satisfy 1 <= k <= m-1=2\n"

    def test_over_committee_limit_exits_2(self, tmp_path):
        # C(30, 8) = 5,852,925 committees, over profiles.MAX_COMMITTEES: the limit
        # must stop the fit before any constraint row is built, so the child
        # runs under a 20 s timeout and a 1 GB address-space limit
        path = tmp_path / "wide.txt"
        path.write_text("m=30\n0 1 2\n3\nchosen: {0,1,2,3,4,5,6,7}\n")
        out = run_limited(["fit", "--family", "thiele", "--k", "8", "--observations", str(path)], timeout=20)
        assert out is not None, "fit over the committee limit did not exit within 20 s"
        assert out.returncode == 2
        assert out.stderr == f"error: {path}: line 4: C(30,8) committees exceed the enumeration limit 200000\n"

    def test_huge_candidate_count_exits_2_without_2_to_the_m(self, tmp_path):
        # ballot indices used to be range-checked against 2**m - 1, a
        # 20-billion-bit integer here, which the 2 GB address space cannot hold
        path = tmp_path / "huge.txt"
        path.write_text("m=20000000000\n0 1\n2\nchosen: {0}\n")
        argv = ["fit", "--family", "thiele", "--k", "1", "--observations", str(path)]
        out = run_limited(argv, timeout=10, address_space=2_000_000 * 1024)
        assert out is not None, "fit at m = 20000000000 did not exit within 10 s"
        assert out.returncode == 2
        assert out.stderr == f"error: {path}: line 4: C(20000000000,1) committees exceed the enumeration limit 200000\n"

    @pytest.mark.parametrize(
        "k, message",
        [
            ("1", "line 4: C(20000000000,1) committees exceed the enumeration limit 200000"),
            # k >= m passes the limit: k is checked before the 2.5 GB mask of candidate 19999999999
            ("30000000000", "line 4: committee size k=30000000000 must satisfy 1 <= k <= m-1=19999999999"),
        ],
        ids=["limit", "k-over-m"],
    )
    def test_huge_candidate_index_exits_2_at_once(self, tmp_path, k, message):
        # coding the ballot `0 19999999999` to its index looped once per skipped candidate
        path = tmp_path / "huge.txt"
        path.write_text("m=20000000000\n0 19999999999\n2\nchosen: {0}\n")
        argv = ["fit", "--family", "thiele", "--k", k, "--observations", str(path)]
        out = run_limited(argv, timeout=10, address_space=2_000_000 * 1024)
        assert out is not None, "fit on a huge candidate index did not exit within 10 s"
        assert (out.returncode, out.stderr) == (2, f"error: {path}: {message}\n")

    def test_pav_k5_fit_is_reached(self, tmp_path):
        # 10 seeded PAV profiles of 8 voters at m = 8, each candidate approved
        # with probability 0.4: 234 rows over five unknowns.
        # Eliminating the unknowns one by one takes over a minute here; the LP
        # takes well under a second, and the child runs under a 60 s timeout
        rng = random.Random(5)
        rule = named_rule("pav", 5, 8)

        def ballot():
            return frozenset(c for c in range(8) if rng.random() < 0.4) or fs(rng.randrange(8))

        profiles = [Profile.from_ballots(8, [ballot() for _ in range(8)]) for _ in range(10)]
        obs = [Observation.from_profile(p, winners(rule, p), 5) for p in profiles]
        path = tmp_path / "pav_k5.txt"
        path.write_text(format_observations(obs))
        argv = ["fit", "--family", "thiele", "--k", "5", "--observations", str(path)]
        src = str(Path(cli.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); from abcvote.cli import main; sys.exit(main({argv!r}))"
        try:
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("the k = 5 PAV fit did not finish within 60 s")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("s: ")
        fitted = parse_rule_spec("thiele:" + out.stdout[3:].strip(), 5, 8)
        for ob, profile in zip(obs, profiles):
            assert winners(fitted, profile) == ob.chosen


class TestFlags:
    def test_missing_file(self):
        assert main(["winners", "--rule", "av", "--k", "2", "--profile", "/nonexistent.abc"]) == 2

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            # continuity's cap used to fall back to the computed bound at 0
            ["check", "--axiom", "continuity", "--rule", "av", "--k", "1", "--profile", "{a}", "--profile2", "{a}"],
            # the search cap used to become 64 at 0, and to be ignored by every other axiom
            ["search", "--axiom", "convexity", "--rule", "av", "--k", "1", "--max-m", "2", "--max-n", "2"],
        ],
    )
    def test_lambda_cap_below_one_exits_2(self, tmp_path, argv, cap, capsys):
        path = tmp_path / "a.abc"
        path.write_text("m=2\n0\n")
        assert main([str(path) if arg == "{a}" else arg for arg in argv] + ["--lambda-cap", cap]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --lambda-cap must be at least 1\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--axiom", "convexity", "--rule", "av", "--k", "1", "--profile", "{a}"],
            ["check", "--axiom", "consistency", "--splits", "--rule", "av", "--k", "1", "--profile", "{a}"],
            ["search", "--axiom", "iol", "--rule", "av", "--k", "1", "--max-m", "2", "--max-n", "2"],
        ],
    )
    def test_lambda_cap_outside_continuity_exits_2(self, tmp_path, argv, capsys):
        path = tmp_path / "a.abc"
        path.write_text("m=2\n0\n")
        assert main([str(path) if arg == "{a}" else arg for arg in argv] + ["--lambda-cap", "7"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --lambda-cap applies only to --axiom continuity\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--axiom", "convexity", "--splits"], "--splits applies only to --axiom consistency without --profile2"),
            (["--axiom", "consistency", "--profile2", "{a}", "--splits"],
             "--splits applies only to --axiom consistency without --profile2"),
            (["--axiom", "convexity", "--profile2", "{a}"], "--profile2 applies only to --axiom consistency, continuity"),
            # refused before the file is read
            (["--axiom", "anonymity", "--profile2", "no-such-file.abc"],
             "--profile2 applies only to --axiom consistency, continuity"),
        ],
        ids=["splits", "splits-pair", "profile2", "profile2-missing"],
    )
    def test_check_flag_the_axiom_does_not_read_exits_2(self, tmp_path, argv, message, capsys):
        # these flags used to be accepted and ignored
        path = tmp_path / "a.abc"
        path.write_text("m=2\n0\n")
        argv = ["check", "--rule", "av", "--k", "1", "--profile", "{a}", *argv]
        assert main([str(path) if arg == "{a}" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    # each flag that only some axioms read: whether the table says an axiom reads it, a value, and the refusal
    TABLE_FLAGS = {
        "--lambda-cap": (lambda axiom: axiom.name == "continuity", "7",
                         "--lambda-cap applies only to --axiom continuity"),
        "--profile2": (lambda axiom: axiom.arity == 2, "{a}",
                       "--profile2 applies only to --axiom consistency, continuity"),
        # a switch: it takes no value, and it stands in for the second profile
        "--splits": (lambda axiom: axiom.name == "consistency", None,
                     "--splits applies only to --axiom consistency without --profile2"),
    }

    @pytest.mark.parametrize("flag", TABLE_FLAGS)
    @pytest.mark.parametrize("axiom", axioms.AXIOMS, ids=[axiom.name for axiom in axioms.AXIOMS])
    def test_check_reads_a_flag_exactly_where_the_table_says(self, tmp_path, axiom, flag, capsys):
        reads, value, message = self.TABLE_FLAGS[flag]
        path = tmp_path / "a.abc"
        path.write_text("m=2\n0\n")
        argv = ["check", "--rule", "av", "--k", "1", "--axiom", axiom.name, "--profile", "{a}", flag]
        argv += [value] if value is not None else []
        if axiom.arity == 2 and flag not in ("--profile2", "--splits"):
            argv += ["--profile2", "{a}"]
        code = main([str(path) if arg == "{a}" else arg for arg in argv])
        captured = capsys.readouterr()
        if reads(axiom):
            assert (code, captured.err) == (0, "")
        else:
            assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


class TestCommitteeSizeRefusal:
    @pytest.mark.parametrize(
        "refuse, text, k, m",
        [
            (["winners", "--rule", "av", "--k", "4", "--profile", "{a}"], EXAMPLE, 4, 4),
            # the size before the committee, which has one member, not k
            (["score", "--rule", "pav", "--k", "4", "--profile", "{a}", "--committee", "0"], EXAMPLE, 4, 4),
            (["check", "--axiom", "convexity", "--rule", "ccav", "--k", "4", "--profile", "{a}"], EXAMPLE, 4, 4),
            (["fit", "--family", "thiele", "--k", "3", "--observations", "{a}"], "m=3\n0 1\n2\nchosen: {0,1,2}\n", 3, 3),
            # the size is checked before the committee limit, which this k is also over
            (["winners", "--rule", "ccav", "--k", "5000000", "--profile", "{a}"], "m=5000000\n0 1\n", 5_000_000, 5_000_000),
            (lambda: named_rule("av", 0, 4), None, 0, 4),
            (lambda: bswav_rule("bswav", 3, [1, 1, 1]), None, 3, 3),
            (lambda: enumerate_committees(1, 1), None, 1, 1),
            (lambda: enumerate_committees(4, 4), None, 4, 4),
        ],
        ids=["winners", "score", "check", "fit", "winners-over-limit", "named_rule", "bswav_rule",
             "enumerate_committees-1-1", "enumerate_committees-4-4"],
    )
    def test_one_message_for_k_outside_1_to_m_minus_1(self, tmp_path, refuse, text, k, m, capsys):
        message = f"committee size k={k} must satisfy 1 <= k <= m-1={m - 1}"
        if callable(refuse):
            with pytest.raises(ValueError) as err:
                refuse()
            assert str(err.value) == message
            return
        path = tmp_path / "a.txt"
        path.write_text(text)
        assert main([str(path) if arg == "{a}" else arg for arg in refuse]) == 2
        located = f"{path}: line 4: " if refuse[0] == "fit" else ""  # at the `chosen:` line
        assert capsys.readouterr() == ("", f"error: {located}{message}\n")
