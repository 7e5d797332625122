"""Command-line front end.

Verbs: winners, score, check, search, separations, fit.  Exit codes follow
one convention everywhere: 0 for pass/success, 1 for a violation, an
infeasible fit, or an exhausted search, 2 for usage and format errors.
Rationals are always rendered as p/q (or a plain integer), never as
decimals, and output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

from . import axioms, identify, search
from .profiles import (
    Profile,
    ProfileFormatError,
    check_committee_size,
    format_choice_set,
    format_committee,
    parse_ballot_counts,
    parse_profile,
)
from .rules import (
    ballots_score,
    check_committee,
    continuity_lambda_bound,
    format_rational,
    parse_rule_spec,
    winners_and_score,
)


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at `path`, its newlines read as text-mode `open`
    reads them; the first byte that does not decode is refused with its line."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    # CR never occurs inside a UTF-8 sequence, so newlines translate before decoding
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {line_no}: invalid UTF-8 byte 0x{data[err.start]:02x}") from None


def _parsed(parse, path: str, text: str):
    """parse(text), a format error located in the file at `path`."""
    try:
        return parse(text)
    except ProfileFormatError as err:
        raise ValueError(f"{path}: {err}") from None


def _read_profile(path: str, k: int) -> Profile:
    """The profile at `path`, once k passes the size check and then the committee
    limit on its `m=` line: before any ballot line becomes a mask, and before the
    rule, whose k + 1 Thiele values at a huge k would never be built."""
    return _parsed(functools.partial(parse_profile, k=k), path, _read_text(path))


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def cmd_winners(args) -> int:
    profile = _read_profile(args.profile, args.k)
    rule = parse_rule_spec(args.rule, args.k, profile.m)
    chosen, score = winners_and_score(rule, profile)
    if args.format == "json":
        _emit_json(
            {
                "rule": rule.name,
                "k": rule.k,
                "winners": [list(w) for w in sorted(chosen)],
                "score": format_rational(score),
            }
        )
    else:
        print(f"{format_choice_set(chosen)}  score {format_rational(score)}")
    return 0


def cmd_score(args) -> int:
    # the ballots as candidate sets: `score` reads each one's size and overlap
    # with the committee off the rule's table, so a huge index builds no mask
    m, counts = _parsed(parse_ballot_counts, args.profile, _read_text(args.profile))
    check_committee_size(m, args.k)
    tokens = args.committee.replace(",", " ").split()
    # plain ASCII digits only, as in profile files: int() would also take "+1", "1_0" and "١"
    if not (args.committee.isascii() and "".join(tokens).isdigit()):
        raise ValueError(f"committee {args.committee!r} must list plain digits, none outside 0..{m - 1}")
    committee = tuple(sorted(int(tok) for tok in tokens))
    # before the rule, whose k + 1 Thiele values at a huge k would never be built
    check_committee(committee, args.k, m)
    rule = parse_rule_spec(args.rule, args.k, m)
    score = ballots_score(rule, m, counts, committee)
    if args.format == "json":
        _emit_json(
            {
                "rule": rule.name,
                "k": rule.k,
                "committee": list(committee),
                "score": format_rational(score),
            }
        )
    else:
        print(f"{format_committee(committee)}  score {format_rational(score)}")
    return 0


def _print_witness(verdict) -> None:
    for key, value in sorted(axioms.verdict_to_json(verdict)["witness"].items()):
        if isinstance(value, str) and "\n" in value:
            print(f"# {key}")
            print(value, end="")
        else:
            print(f"# {key}: {json.dumps(value, sort_keys=True)}")


def _read_by(reads) -> tuple:
    """The scope of a flag that the axioms passing `reads` read: that test, and their names for the error."""
    return lambda axiom, args: reads(axiom), "--axiom " + ", ".join(a.name for a in axioms.AXIOMS if reads(a))


# The `check` and `search` flags that only some checks read: each flag, whether the
# check at hand reads it, and where it applies, for the error when it does not.
# An unset flag is None.
_FLAG_SCOPES = (
    ("profile2", *_read_by(lambda axiom: axiom.arity == 2)),
    ("lambda_cap", *_read_by(lambda axiom: "lambda_cap" in axiom.settings)),
    # consistency alone can also be checked over the bipartitions of one profile
    ("splits", lambda axiom, args: axiom.name == "consistency" and not args.profile2,
     "--axiom consistency without --profile2"),
    ("max_voters", lambda axiom, args: args.splits, "--splits"),
    ("mode", *_read_by(lambda axiom: "mode" in axiom.settings)),
    ("seed", lambda axiom, args: args.mode == "sample", "--mode sample"),
    ("count", lambda axiom, args: args.mode == "sample", "--mode sample"),
)


def _given(args, *flags) -> dict:
    """The flags among `flags` that the user set, by name: an unset one keeps its reader's default."""
    return {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}


def _lookup_axiom(args):
    """The axiom named by --axiom; a flag that its check would not read is refused."""
    axiom = axioms.lookup(args.axiom)
    for flag, reads, scope in _FLAG_SCOPES:
        if getattr(args, flag, None) is not None and not reads(axiom, args):
            raise ValueError(f"--{flag.replace('_', '-')} applies only to {scope}")
    return axiom


def cmd_check(args) -> int:
    axiom = _lookup_axiom(args)
    profiles = [_read_profile(args.profile, args.k)]
    if axiom.arity == 2 and not args.splits:
        if not args.profile2:
            alternative = " (or one with --splits)" if axiom.name == "consistency" else ""
            raise ValueError(f"{axiom.name} takes two profiles: --profile A --profile2 B{alternative}")
        profiles.append(_read_profile(args.profile2, args.k))
    rule = parse_rule_spec(args.rule, args.k, profiles[0].m)
    settings = _given(args, "mode", "seed", "count", "lambda_cap")
    if axiom.name == "continuity" and "lambda_cap" not in settings:
        settings["lambda_cap"] = continuity_lambda_bound(rule, *profiles)
    if args.splits:
        verdict = axioms.check_consistency_splits(rule, profiles[0], **_given(args, "max_voters"))
    else:
        verdict = axiom.bind(settings)(rule, *profiles)

    if axiom.name == "continuity":
        lam = verdict.checked if verdict.passed else None
        if args.format == "json":
            _emit_json({"axiom": "continuity", "lambda": lam, "lambda_cap": settings["lambda_cap"]})
        else:
            print(f"lambda {lam if lam is not None else 'not-found'} (cap {settings['lambda_cap']})")
    elif args.format == "json":
        _emit_json(axioms.verdict_to_json(verdict))
    elif verdict.passed:
        print(f"pass: {verdict.axiom} holds on this instance ({verdict.checked} cases checked)")
    else:
        print(f"violation: {verdict.axiom}")
        _print_witness(verdict)
    return 0 if verdict.passed else 1


def cmd_search(args) -> int:
    axiom = _lookup_axiom(args)
    bounds = search.SearchBounds(m_max=args.max_m, k_set=(args.k,), n_max=args.max_n, **_given(args, "lambda_cap"))
    result = search.find_counterexample(args.rule, axiom.name, bounds)
    if args.format == "json":
        payload = {
            "rule": args.rule,
            "axiom": axiom.name,
            "found": result.found,
            "instances": result.instances,
            "witness": axioms.verdict_to_json(result.verdict)["witness"] if result.found else None,
        }
        _emit_json(payload)
    elif result.found:
        print(f"witness found after {result.instances} instances")
        _print_witness(result.verdict)
    else:
        print(f"exhausted {result.instances} instances, no counterexample")
    return 0 if result.found else 1


def cmd_separations(args) -> int:
    report = search.separation_suite()
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        print(report.render(), end="")
    return 0 if report.ok else 1


def cmd_fit(args) -> int:
    parse = functools.partial(identify.parse_observations, k=args.k)
    observations = _parsed(parse, args.observations, _read_text(args.observations))
    if not observations:
        raise ValueError(f"{args.observations}: observations file is empty")
    fit = identify.fit_thiele if args.family == "thiele" else identify.fit_bswav
    result = fit(observations)
    rendered = identify.format_fit(result)
    if args.format == "json":
        payload = {"family": args.family, "feasible": result.feasible, "fit": rendered}
        _emit_json(payload)
    else:
        print(rendered)
    return 0 if result.feasible else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `abcvote` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="abcvote",
        description="exact winners, axiom checks, counterexample search, and rule fitting "
        "for approval-based committee elections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rules="av|pav|ccav|sav|msav|triv|thiele:...|bswav:..."):
        p.add_argument("--rule", required=True, help=rules)
        p.add_argument("--k", type=int, required=True, help="committee size")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("winners", help="compute the full tied winner set and its score")
    common(p)
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_winners)

    p = sub.add_parser("score", help="exact score of one committee")
    common(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--committee", required=True, help="candidate indices, e.g. '0 2'")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("check", help="check one axiom on a concrete instance")
    common(p)
    p.add_argument("--axiom", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--profile2", help="second profile (consistency, continuity)")
    p.add_argument("--splits", action="store_true", default=None, help="check consistency over all bipartitions")
    walk = inspect.signature(next(a.checker for a in axioms.AXIOMS if "mode" in a.settings)).parameters
    splits = inspect.signature(axioms.check_consistency_splits).parameters
    p.add_argument("--max-voters", type=int, help=f"most voters for --splits (default {splits['max_voters'].default})")
    modes = {"all": "walk all cases", "sample": "sample them"}
    modes[walk["mode"].default] += " (default)"
    p.add_argument("--mode", choices=tuple(modes), help=" or ".join(modes.values()))
    p.add_argument("--seed", type=int, help=f"seed for sample mode (default {walk['seed'].default})")
    p.add_argument("--count", type=int, help=f"samples in sample mode (default {walk['count'].default})")
    p.add_argument("--lambda-cap", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="search bounded profile space for a counterexample")
    common(p, f"{'|'.join(search.SEARCH_RULES)} (no inline rules)")
    p.add_argument("--axiom", required=True)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--lambda-cap", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("separations", help="run the fixed separation battery")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_separations)

    p = sub.add_parser("fit", help="fit scoring parameters to observed choice sets")
    p.add_argument("--family", choices=("thiele", "bswav"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("k", "count", "lambda_cap", "max_voters"):
        if getattr(args, flag, None) is not None and getattr(args, flag) < 1:
            print(f"error: --{flag.replace('_', '-')} must be at least 1", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
