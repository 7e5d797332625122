"""Axiom verdicts and the rule adapter that every checker shares.

A failing verdict carries a structured witness; `fail` re-verifies it with
the replayer that sits beside its checker before the verdict is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .profiles import ChoiceSet, Profile
from .rules import Rule, winners

ChoiceFn = Callable[[Profile], ChoiceSet]
Replayer = Callable[[dict, ChoiceFn], bool]


@dataclass
class AxiomVerdict:
    """Outcome of one axiom check; `witness` is present iff the check failed."""

    axiom: str
    passed: bool
    witness: dict | None = None
    checked: int = 0


def as_choice_fn(rule) -> ChoiceFn:
    """Normalize a library rule or a bare profile->choice-set callable."""
    if isinstance(rule, Rule):
        return partial(winners, rule)
    if callable(rule):
        return rule
    raise TypeError(f"not an evaluable rule: {rule!r}")


def fail(axiom: str, witness: dict, choose: ChoiceFn, checked: int, replayer: Replayer) -> AxiomVerdict:
    """The failure verdict for `witness`, once `replayer` has reproduced it."""
    if not replayer(witness, choose):  # stale witnesses are a bug, never reported
        raise AssertionError(f"witness for {axiom} did not re-verify")
    return AxiomVerdict(axiom, False, witness, checked)
