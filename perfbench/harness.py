"""Import the program from the checkout, run one CLI job in-process, and
gauge how fast the machine runs Python at the moment."""

from __future__ import annotations

import bisect
import contextlib
import importlib
import io
import itertools
import signal
import statistics
import sys
import time
from fractions import Fraction
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """A fresh import of `abcvote.cli` from this checkout's `src/`.

    Earlier imports are dropped first, so every call pays the full import
    cost, as a new process would.  Refuses an `abcvote` found anywhere else.
    """
    if not (SRC / "abcvote" / "__init__.py").is_file():
        raise ProgramMissing(f"no abcvote package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "abcvote" or n.startswith("abcvote.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("abcvote.cli")
    if Path(cli.__file__).resolve().parent != SRC / "abcvote":
        raise ProgramMissing(f"abcvote imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None  # exception type name, when the job raised
    start: float = 0.0  # time.perf_counter() when the job was issued


def run_job(cli, argv: list[str]) -> Outcome:
    """Call `cli.main(argv)` with stdout and stderr captured; time the call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed job, not a failed run
        error = type(exc).__name__
    seconds = time.perf_counter() - start
    return Outcome(seconds, code, out.getvalue(), error, start)




# Time of `_calibration_loop` on the reference machine the benchmark's times
# are scaled to: a round figure near its median on a shared 2-core host with
# CPython 3.11.7.
CALIBRATION_REF_S = 0.0005


def _calibration_loop() -> int:
    """A fixed piece of the program's kind of work: committees from
    itertools.combinations, frozenset intersections, Fraction sums, dicts."""
    total = Fraction(0)
    seen: dict = {}
    for combo in itertools.combinations(range(9), 4):
        x = len(frozenset(combo) & {0, 2, 4, 6})
        total += Fraction(1, x + 1)
        seen[combo] = seen.get(combo[:2], 0) + x
    return total.numerator + len(seen)


class SpeedGauge:
    """Samples how fast the machine runs Python while it is active.

    A shared host runs the same Python code up to twice as fast at one
    moment as at another, as other tenants come and go, and process CPU time
    swings with it.  So every `interval` seconds of wall time a SIGALRM
    handler times one pass of the calibration loop, in the benchmark's one
    thread, between two bytecodes of whatever runs.  `measure` then takes
    the gauge's own passes out of an interval and scales what is left to the
    reference speed by the passes near it.
    """

    # Passes this far either side of an interval also gauge its speed, so
    # that a short interval still has several.
    WINDOW_S = 0.25

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.passes: list[tuple[float, float]] = []  # (start, end) of each

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _calibration_loop()
        self.passes.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, reference seconds) from `start` to `end`, both without
        the gauge's own passes.  The reference time is the wall time times
        the mean of CALIBRATION_REF_S / pass time over the passes within
        WINDOW_S of the interval: the time the same work would take on a
        machine where the loop takes CALIBRATION_REF_S."""
        lo = bisect.bisect_left(self.passes, start - self.WINDOW_S, key=lambda p: p[0])
        hi = bisect.bisect_right(self.passes, end + self.WINDOW_S, key=lambda p: p[0])
        nearby = [(a, b) for a, b in self.passes[lo:hi] if b <= end + self.WINDOW_S]
        own = sum(b - a for a, b in nearby if a >= start and b <= end)
        near = [b - a for a, b in nearby]
        if not near:
            self._tick(None, None)
            near = [self.passes[-1][1] - self.passes[-1][0]]
        seconds = end - start - own
        return seconds, seconds * statistics.fmean(CALIBRATION_REF_S / c for c in near)
