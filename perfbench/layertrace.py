"""Per-layer tracing from outside the program.

The tracer replaces each listed public function with a timing wrapper in
every `abcvote` module namespace that holds it, so calls are caught on the
name the program actually calls through (`search.canonical_form`,
`axioms.winners`, ...).  `uninstall` puts the originals back.

Spans are kept on a stack while open.  When one closes, its duration and
self time (duration minus the time its child spans cover) are added to its
layer, and its duration counts toward the layer's busy time only when no
span of the same layer encloses it, so nested calls within a layer count
once.  Folding each span as it closes keeps memory flat on jobs that make
10^5 kernel calls.  Work counts come from call arguments and return values;
the time spent computing them is booked to the `trace` layer, so layer self
times still add up to the traced wall time.  A listed function that no
longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
from collections import Counter
from math import comb
from time import perf_counter

LAYERS = {
    "enumeration": [("profiles", "canonical_form"), ("search", "enumerate_profiles")],
    "kernel": [
        ("rules", name)
        for name in (
            "winners",
            "winners_from_vector",
            "committee_scores",
            "vector_scores",
            "committee_score",
            "continuity_lambda_bound",
            "scaled_pair_winners",
        )
    ],
    "checkers": [
        ("axioms", "check_*"),
        ("axioms", "find_min_continuity_lambda"),
        ("axioms", "replay"),
        ("partylist", "check_*"),
        ("partylist", "detect_party_structure"),
    ],
    "driver": [("search", "find_counterexample"), ("search", "separation_suite")],
    "identify": [
        ("identify", name) for name in ("build_system", "solve_feasibility", "fit_thiele", "fit_bswav")
    ],
    "cli": [("cli", "main"), ("profiles", "parse_profile"), ("identify", "parse_observations")],
}

# Functions whose busy time is reported together; every other function is
# its own group.
GROUPS = {
    "parse_profile": "parse",
    "parse_observations": "parse",
    "fit_thiele": "fit",
    "fit_bswav": "fit",
}


def _kernel_work(name: str, args) -> tuple[int, int]:
    """(committees scored, voter-committee terms) of one kernel entry."""
    rule = args[0]
    if name in ("winners", "committee_scores"):
        profile = args[1]
        committees = comb(profile.m, rule.k)
        return committees, committees * len(profile.ballots)
    if name in ("winners_from_vector", "vector_scores"):
        vector, k = args[1], args[2]
        committees = comb(vector.m, k)
        return committees, committees * len(vector.entries)
    if name == "committee_score":
        return 1, len(args[1].ballots)
    if name in ("continuity_lambda_bound", "scaled_pair_winners"):
        a, b = args[1], args[2]
        committees = comb(a.m, rule.k)
        return 2 * committees, committees * (len(a.ballots) + len(b.ballots))
    raise KeyError(name)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer key, group key, start, child time]
        self.depth: Counter = Counter()  # open spans per layer key and group key
        self.self_s: Counter = Counter()  # per layer name
        self.busy_s: Counter = Counter()  # per layer key and group key, plus "verify"
        self.counts: Counter = Counter()
        self.spans = 0
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    # --- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the listed functions; `modules` maps short names
        ("rules", "cli", ...) to the imported abcvote modules."""
        for layer, targets in LAYERS.items():
            for modname, pattern in targets:
                module = modules.get(modname)
                names = []
                if module is not None:
                    names = sorted(
                        name
                        for name, value in vars(module).items()
                        if fnmatch.fnmatchcase(name, pattern)
                        and inspect.isfunction(value)
                        and value.__module__ == module.__name__
                    )
                if not names:
                    self.absent.append(f"{modname}.{pattern}")
                for name in names:
                    original = getattr(module, name)
                    wrapper = self._wrap(original, name, layer)
                    for holder in modules.values():
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._restore.append((holder, attr, value))
                                setattr(holder, attr, wrapper)
                    self.wrapped.append(f"{modname}.{name}")

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    # --- spans -------------------------------------------------------------

    def _enter(self, layer_key: str, group_key: str) -> list:
        self.depth[layer_key] += 1
        self.depth[group_key] += 1
        span = [layer_key, group_key, 0.0, 0.0]
        self.stack.append(span)
        span[2] = perf_counter()
        return span

    def _exit(self, span: list) -> float:
        duration = perf_counter() - span[2]
        self.stack.pop()
        layer_key, group_key = span[0], span[1]
        self.spans += 1
        self.depth[layer_key] -= 1
        self.depth[group_key] -= 1
        self.self_s[layer_key[6:]] += duration - span[3]
        if not self.depth[layer_key]:
            self.busy_s[layer_key] += duration
        if not self.depth[group_key]:
            self.busy_s[group_key] += duration
        if self.stack:
            self.stack[-1][3] += duration
        return duration

    def _book_trace(self, started: float) -> None:
        spent = perf_counter() - started
        self.self_s["trace"] += spent
        if self.stack:
            self.stack[-1][3] += spent

    def _wrap(self, fn, name: str, layer: str):
        layer_key = "layer:" + layer
        group_key = "group:" + GROUPS.get(name, name)
        count = getattr(self, "_count_" + layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(layer_key, group_key)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit(span)
            started = perf_counter()
            count(name, duration, args, result)
            if inspect.isgenerator(result):
                result = self._generator(result, name, layer_key, group_key)
            self._book_trace(started)
            return result

        return wrapper

    def _generator(self, gen, name: str, layer_key: str, group_key: str):
        """Re-yield `gen` with one span around every resumption."""
        while True:
            span = self._enter(layer_key, group_key)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(span)
            self.counts[name + ".yielded"] += 1
            yield item

    # --- counts --------------------------------------------------------------

    def _count_enumeration(self, name, duration, args, result):
        if name == "canonical_form":
            self.counts["enum.candidates"] += 1
        elif isinstance(result, (list, tuple)):
            self.counts[name + ".yielded"] += len(result)

    def _count_kernel(self, name, duration, args, result):
        if self.depth["layer:kernel"]:
            return  # counted by the enclosing kernel entry
        self.counts["kernel.calls"] += 1
        if self.depth["layer:checkers"]:
            self.counts["kernel.calls_in_checkers"] += 1
        if self.depth["group:fit"]:
            self.busy_s["verify"] += duration
        try:
            committees, terms = _kernel_work(name, args)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.counts["kernel.uncounted_calls"] += 1
            return
        self.counts["kernel.committees"] += committees
        self.counts["kernel.terms"] += terms

    def _count_checkers(self, name, duration, args, result):
        if not self.depth["layer:checkers"]:
            self.counts["checker.calls"] += 1

    def _count_driver(self, name, duration, args, result):
        self.counts["driver.instances"] += getattr(result, "instances", 0)

    def _count_identify(self, name, duration, args, result):
        if name == "build_system":
            self.counts["identify.rows"] += len(result.weak) + len(result.strict)
            self.counts["identify.distinct_rows"] += len(set(result.weak)) + len(set(result.strict))

    def _count_cli(self, name, duration, args, result):
        pass

    # --- report ------------------------------------------------------------

    def metrics(self, job_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as name -> (value, unit)."""
        busy, own, counts = self.busy_s, self.self_s, self.counts
        candidates = counts["enum.candidates"]
        profiles = counts["enumerate_profiles.yielded"]
        terms = counts["kernel.terms"]
        checks = counts["checker.calls"]
        return {
            "enum.busy_s": (busy["layer:enumeration"], "s"),
            "enum.self_s": (own["enumeration"], "s"),
            "enum.canonical_s": (busy["group:canonical_form"], "s"),
            "enum.candidates": (candidates, "count"),
            "enum.profiles": (profiles, "count"),
            "enum.accept_ratio": (profiles / candidates if candidates else 0.0, "ratio"),
            "kernel.busy_s": (busy["layer:kernel"], "s"),
            "kernel.self_s": (own["kernel"], "s"),
            "kernel.calls": (counts["kernel.calls"], "count"),
            "kernel.committees": (counts["kernel.committees"], "count"),
            "kernel.terms": (terms, "count"),
            "kernel.ns_per_term": (busy["layer:kernel"] * 1e9 / terms if terms else 0.0, "ns"),
            "checker.calls": (checks, "count"),
            "checker.self_s": (own["checkers"], "s"),
            "checker.kernel_calls_per_check": (
                counts["kernel.calls_in_checkers"] / checks if checks else 0.0,
                "ratio",
            ),
            "driver.self_s": (own["driver"], "s"),
            "driver.instances": (counts["driver.instances"], "count"),
            "identify.build_s": (busy["group:build_system"], "s"),
            "identify.solve_s": (busy["group:solve_feasibility"], "s"),
            "identify.verify_s": (busy["verify"], "s"),
            "identify.self_s": (own["identify"], "s"),
            "identify.rows": (counts["identify.rows"], "count"),
            "identify.distinct_rows": (counts["identify.distinct_rows"], "count"),
            "cli.self_s": (own["cli"], "s"),
            "cli.parse_s": (busy["group:parse"], "s"),
            "trace.overhead_ratio": (job_wall_s / untraced_wall_s, "ratio"),
            "trace.job_wall_s": (job_wall_s, "s"),
            "trace.self_s": (own["trace"], "s"),
            "trace.unaccounted_s": (job_wall_s - sum(own.values()), "s"),
            "trace.spans": (self.spans, "count"),
            "trace.absent": (len(self.absent), "count"),
        }
