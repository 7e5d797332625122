"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. One block of each workload runs and passes every check.
2. A planted wrong expectation (the reference fed AV scores for a PAV job)
   drives the error rate above zero.
3. Traced and untraced runs of the same jobs give identical stdout digests,
   the traced layer self times plus the unaccounted remainder add up to the
   traced job wall time, and that remainder is small.
4. The speed gauge samples while active, stops when left, and takes its own
   passes out of the intervals it measures.

Exits 0 when all pass.
"""

from __future__ import annotations

import shutil
import signal
import sys
import time

import harness
import reference
import run
import workloads

SEED = 7


def tiny_run(name: str, trace: bool) -> dict:
    workdir = workloads.HERE / ".work" / f"selftest-{name}"
    try:
        # seconds=0 runs exactly one block, or one traced block
        return run.run(name, SEED, 0, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_tiny_streams_pass() -> None:
    for name in workloads.WORKLOADS:
        result = tiny_run(name, trace=False)
        bad = [job for job in result["jobs"] if job["status"] not in ("ok", "unverified")]
        assert result["failed"] == 0 and not bad, f"{name}: {bad[:3]}"
        assert result["attempted"] >= 1


def test_planted_wrong_expectation_is_caught() -> None:
    original = workloads.elections

    def planted(seed, workdir):
        blocks = original(seed, workdir)
        for job in blocks[0]:
            info = job.info
            if info["k"] > 1 and reference.winners_stdout("pav", info["m"], info["k"], info["ballots"]) != (
                reference.winners_stdout("av", info["m"], info["k"], info["ballots"])
            ):
                job.argv[job.argv.index("--rule") + 1] = "pav"
                info["spec"] = "av"  # the wrong expectation
                return blocks
        raise AssertionError("no job where PAV and AV outputs differ")

    workloads.WORKLOADS["elections"] = planted
    try:
        result = tiny_run("elections", trace=False)
    finally:
        workloads.WORKLOADS["elections"] = original
    assert result["failed"] >= 1 and result["error_rate"] > 0, result["error_rate"]


def test_trace_keeps_outputs_and_accounts_for_time() -> None:
    for name in workloads.WORKLOADS:
        result = tiny_run(name, trace=True)
        assert result["failed"] == 0, f"{name}: traced run failed"
        statuses = {job["status"] for job in result["jobs"]}
        assert "traced output differs from untraced output" not in statuses
        metrics = {key: value for key, (value, _) in result["metrics"].items()}
        layers = sum(metrics[f"{layer}.self_s"] for layer in ("enum", "kernel", "checker", "driver", "identify", "cli", "trace"))
        wall = metrics["trace.job_wall_s"]
        assert abs(layers + metrics["trace.unaccounted_s"] - wall) < 1e-6, (name, layers, wall)
        # the spans cover all but the job loop's own bookkeeping
        assert 0 <= metrics["trace.unaccounted_s"] <= 0.05 * wall, (name, metrics["trace.unaccounted_s"], wall)
        assert metrics["trace.absent"] == 0, result["absent"]


def test_gauge_takes_out_its_own_passes() -> None:
    with harness.SpeedGauge(interval=0.01) as gauge:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            harness._calibration_loop()
        end = time.perf_counter()
    inside = [(a, b) for a, b in gauge.passes if a >= start and b <= end]
    assert len(inside) >= 10, len(gauge.passes)
    seconds, reference_s = gauge.measure(start, end)
    assert abs(end - start - sum(b - a for a, b in inside) - seconds) < 1e-9
    assert seconds < end - start and reference_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def main() -> int:
    tests = [
        test_tiny_streams_pass,
        test_planted_wrong_expectation_is_caught,
        test_trace_keeps_outputs_and_accounts_for_time,
        test_gauge_takes_out_its_own_passes,
    ]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as err:
            failures += 1
            print(f"FAIL {test.__name__}: {err}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
