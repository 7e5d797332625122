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
import json
import sys

from . import axioms, identify, search
from .profiles import (
    Profile,
    ProfileFormatError,
    format_choice_set,
    format_committee,
    parse_profile,
)
from .rules import (
    check_committee_limit,
    committee_score,
    continuity_lambda_bound,
    format_rational,
    parse_rule_spec,
    winners_and_score,
)


class UsageError(ValueError):
    """A usage or input error; `main` reports every ValueError with exit 2."""


def _read_profile(path: str) -> Profile:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_profile(handle.read())
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from None
    except ProfileFormatError as err:
        raise UsageError(f"{path}: {err}") from None


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def cmd_winners(args) -> int:
    profile = _read_profile(args.profile)
    # before the rule: a Thiele rule builds k + 1 values, which at a huge k never ends
    check_committee_limit(profile.m, args.k)
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
    profile = _read_profile(args.profile)
    rule = parse_rule_spec(args.rule, args.k, profile.m)
    tokens = args.committee.replace(",", " ").split()
    # plain ASCII digits only, as in profile files: int() would also take "+1", "1_0" and "١"
    if not (args.committee.isascii() and "".join(tokens).isdigit()):
        raise UsageError(f"committee {args.committee!r} must list plain digits, none outside 0..{profile.m - 1}")
    committee = tuple(sorted(int(tok) for tok in tokens))
    score = committee_score(rule, profile, committee)
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


_SAMPLED = ("anonymity", "neutrality", "independence-of-losers")

# The `check` and `search` flags that only some checks read: each flag, whether the
# check at hand reads it, and where it applies, for the error when it does not.
# An unset flag is None.
_FLAG_SCOPES = (
    ("profile2", lambda axiom, args: axiom.arity == 2, "--axiom consistency, continuity"),
    ("lambda_cap", lambda axiom, args: axiom.name == "continuity", "--axiom continuity"),
    # consistency alone can also be checked over the bipartitions of one profile
    ("splits", lambda axiom, args: axiom.name == "consistency" and not args.profile2,
     "--axiom consistency without --profile2"),
    ("max_voters", lambda axiom, args: args.splits, "--splits"),
    ("mode", lambda axiom, args: axiom.name in _SAMPLED, f"--axiom {', '.join(_SAMPLED)}"),
    ("seed", lambda axiom, args: args.mode == "sample", "--mode sample"),
    ("count", lambda axiom, args: args.mode == "sample", "--mode sample"),
)


def _lookup_axiom(args):
    """The axiom named by --axiom; a flag that its check would not read is refused."""
    axiom = axioms.lookup(args.axiom)
    for flag, reads, scope in _FLAG_SCOPES:
        if getattr(args, flag, None) is not None and not reads(axiom, args):
            raise UsageError(f"--{flag.replace('_', '-')} applies only to {scope}")
    return axiom


def cmd_check(args) -> int:
    axiom = _lookup_axiom(args)
    profiles = [_read_profile(args.profile)]
    if axiom.arity == 2 and not args.splits:
        if not args.profile2:
            alternative = " (or one with --splits)" if axiom.name == "consistency" else ""
            raise UsageError(f"{axiom.name} takes two profiles: --profile A --profile2 B{alternative}")
        profiles.append(_read_profile(args.profile2))
    # before the rule, as in `winners`, and before any checker: the party-list ones list
    # all m candidates before they score
    check_committee_limit(profiles[0].m, args.k)
    rule = parse_rule_spec(args.rule, args.k, profiles[0].m)
    cap = args.lambda_cap
    if axiom.name == "continuity" and not cap:
        cap = continuity_lambda_bound(rule, *profiles)
    if args.splits:
        max_voters = 10 if args.max_voters is None else args.max_voters
        verdict = axioms.check_consistency_splits(rule, profiles[0], max_voters)
    else:
        options = axioms.CheckOptions(args.k, args.mode or "all", args.seed or 0, args.count or 20, lambda_cap=cap)
        verdict = axiom.check(rule, *profiles, options)

    if axiom.name == "continuity":
        lam = verdict.checked if verdict.passed else None
        if args.format == "json":
            _emit_json({"axiom": "continuity", "lambda": lam, "lambda_cap": cap})
        else:
            print(f"lambda {lam if lam is not None else 'not-found'} (cap {cap})")
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
    bounds = search.SearchBounds(
        m_max=args.max_m,
        k_set=(args.k,),
        n_max=args.max_n,
        lambda_cap=args.lambda_cap or 64,
    )
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
    try:
        with open(args.observations, encoding="utf-8") as handle:
            observations = identify.parse_observations(handle.read(), args.k)
    except OSError as err:
        raise UsageError(f"cannot read {args.observations}: {err}") from None
    if not observations:
        raise UsageError("observations file is empty")
    if args.family == "thiele":
        result = identify.fit_thiele(observations, args.k)
    else:
        result = identify.fit_bswav(observations, observations[0].m, args.k)
    rendered = identify.format_fit(result, args.family)
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

    def common(p, rule=True):
        if rule:
            p.add_argument("--rule", required=True, help="av|pav|ccav|sav|msav|triv|thiele:...|bswav:...")
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
    p.add_argument("--max-voters", type=int, help="most voters for --splits (default 10)")
    p.add_argument("--mode", choices=("all", "sample"), help="walk all cases (default) or sample them")
    p.add_argument("--seed", type=int, help="seed for sample mode (default 0)")
    p.add_argument("--count", type=int, help="samples in sample mode (default 20)")
    p.add_argument("--lambda-cap", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="search bounded profile space for a counterexample")
    common(p)
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
    for flag in ("k", "count", "lambda_cap"):
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
