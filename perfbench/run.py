"""abcvote benchmark: seeded CLI job streams, timed in-process.

    python3 perfbench/run.py --workload elections|search|fit --seed N \
        --seconds S --trace 0|1

Each run is one process, one thread and one caller: a closed loop that
calls `abcvote.cli.main(argv)` with stdout captured and issues the next job
when the previous one returns.  With `--trace 0` it runs whole blocks of the
workload until S seconds have passed and reports the end-to-end metrics.
With `--trace 1` it runs a fixed prefix of the stream twice, untraced and
then with per-layer spans, and reports the per-layer metrics.  Every output
is checked after the timed part.  The last line of stdout is one JSON
object; a per-job record with stdout digests goes to
`perfbench/results/<workload>-seed<N>-trace<T>.json`.

Times are reported in reference seconds: a SIGALRM handler gauges the
machine's speed every 50 ms with a fixed calibration loop, and each time is
scaled by the speed gauged around it (see harness.SpeedGauge).  Only this
process is measured: there is no machine-wide tracing and no cache
dropping, and memory is the process's `ru_maxrss`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import checks
import harness
import workloads
from layertrace import Tracer

SETUP_REPEATS = 5

# Stream blocks traced per second of --seconds; about half the blocks an
# untraced run of the same length gets through at the recorded baseline.
TRACE_BLOCKS_PER_SECOND = {"elections": 0.1, "search": 0.08, "fit": 0.2}

RATIONALE = {
    "elections": (
        "winners on 50-300 voter profiles, m 8-12, k 3-5: nearly all time is in the kernel over "
        "C(m,k) x n terms while enumeration and identify sit idle; half the profiles repeat ballots "
        "from a party-like pool, half are mostly distinct, to show whether ballot aggregation helps "
        "only inputs that repeat ballots"
    ),
    "search": (
        "bounded counterexample search (m<=4 n<=3, m<=5 n<=2) over every axiom plus the separation "
        "battery: time splits between enumeration (canonical_form) and the checkers, which call the "
        "kernel thousands of times on tiny profiles, the opposite use of the kernel from elections"
    ),
    "fit": (
        "inverse fitting of Thiele (k 2-4) and ballot-size weights (m 3-5) to 8-20 observations: "
        "time is in identify, Fourier-Motzkin cost climbs steeply with the unknowns, and the kernel "
        "only re-checks fits, so kernel and enumeration changes should show no effect here"
    ),
}

LIMITS = (
    "only this benchmark's own process is measured; no machine-wide tracing, no cache dropping; "
    "memory is ru_maxrss; setup_s excludes interpreter start-up"
)


def environment() -> dict:
    try:
        load = list(os.getloadavg())  # the kernel's /proc/loadavg figures
    except OSError:
        load = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "loadavg_at_start": load,
        "limits": LIMITS,
    }


def program_modules() -> dict:
    return {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "abcvote" or name.startswith("abcvote.")
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def setup(name: str, seed: int, workdir, gauge: harness.SpeedGauge) -> tuple:
    """Import the program and write the inputs, SETUP_REPEATS times; the
    last round's program and jobs are the ones run.  Each round's time is
    given as measured and in reference seconds (see harness.SpeedGauge)."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        cli = harness.import_program()
        workdir.mkdir(parents=True)
        blocks = workloads.WORKLOADS[name](seed, workdir)
        seconds, reference = gauge.measure(start, time.perf_counter())
        times.append(seconds)
        scaled.append(reference)
    return cli, blocks, times, scaled


def timed_stream(cli, blocks, seconds: float, gauge: harness.SpeedGauge) -> tuple[list, list[float], float]:
    """Whole blocks, cycling through the pool, until `seconds` have passed.

    Returns the runs, with each job's time less the gauge's passes in it,
    each job's time in reference seconds, and the peak RSS."""
    runs = []
    start = time.perf_counter()
    b = 0
    while True:
        for j, job in enumerate(blocks[b % len(blocks)]):
            runs.append(((b % len(blocks), j), harness.run_job(cli, job.argv)))
        b += 1
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured, scaled = [], []
    for key, outcome in runs:
        job_s, reference = gauge.measure(outcome.start, outcome.start + outcome.seconds)
        measured.append((key, dataclasses.replace(outcome, seconds=job_s)))
        scaled.append(reference)
    return measured, scaled, peak_rss_mb


def judge(blocks, runs, expected) -> tuple[list[str], dict]:
    """Status of every run: each distinct job is checked once, and any rerun
    must repeat its first run byte for byte."""
    first: dict = {}
    verdicts: dict = {}
    statuses = []
    for key, outcome in runs:
        if outcome.error is not None:
            statuses.append(f"raised {outcome.error}")
            continue
        if key not in first:
            first[key] = outcome
            job = blocks[key[0]][key[1]]
            verdicts[key] = checks.check(job, outcome.code, outcome.stdout, expected)
            statuses.append(verdicts[key][0])
        elif (outcome.code, outcome.stdout) != (first[key].code, first[key].stdout):
            statuses.append("output changed between runs of the same job")
        else:
            statuses.append(verdicts[key][0])
    return statuses, verdicts


def input_properties(name: str, blocks, verdicts: dict) -> dict:
    """Measured shares of the input properties the workload's rationale rests on."""
    props = {key: verdict[1] for key, verdict in verdicts.items()}
    jobs = {key: blocks[key[0]][key[1]] for key in verdicts}
    if name == "elections":
        dup = [1 - len(set(j.info["ballots"])) / len(j.info["ballots"]) for j in jobs.values()]
        return {
            "duplicate_ballot_share": statistics.fmean(dup),
            "tied_output_share": statistics.fmean(p["tied"] for p in props.values()),
            "jobs_by_half": dict(Counter(j.info["half"] for j in jobs.values())),
        }
    if name == "search":
        searches = [p["witness"] for key, p in props.items() if jobs[key].kind == "search"]
        return {
            "witness_share": statistics.fmean(searches) if searches else 0.0,
            "exhausted_share": 1 - statistics.fmean(searches) if searches else 0.0,
            "separations_jobs": sum(1 for j in jobs.values() if j.kind == "separations"),
        }
    return {
        "feasible_share": statistics.fmean(p["feasible"] for p in props.values()),
        "unknowns": {str(k): v for k, v in sorted(Counter(p["unknowns"] for p in props.values()).items())},
    }


def job_records(blocks, runs, statuses, scaled) -> list[dict]:
    records = []
    for (key, outcome), status, reference_s in zip(runs, statuses, scaled):
        argv = [os.path.relpath(a, harness.ROOT) if os.path.isabs(a) else a for a in blocks[key[0]][key[1]].argv]
        records.append(
            {
                "job": f"{key[0]}.{key[1]}",
                "argv": argv,
                "exit": outcome.code,
                "stdout_sha256": checks.digest(outcome.stdout),
                "seconds": outcome.seconds,
                "reference_seconds": reference_s,
                "status": status,
            }
        )
    return records


def run(name: str, seed: int, seconds: float, trace: bool, workdir) -> dict:
    env = environment()
    with harness.SpeedGauge() as gauge:
        cli, blocks, setup_times, setup_scaled = setup(name, seed, workdir, gauge)
        if not trace:
            runs, scaled, peak_rss_mb = timed_stream(cli, blocks, seconds, gauge)
    expected = workloads.load_expected()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "environment": env}
    if trace:
        count = max(1, round(seconds * TRACE_BLOCKS_PER_SECOND[name]))
        keys = [(b % len(blocks), j) for b in range(count) for j in range(len(blocks[b % len(blocks)]))]
        untraced = [harness.run_job(cli, blocks[b][j].argv) for b, j in keys]
        tracer = Tracer()
        tracer.install(program_modules())
        try:
            traced = [harness.run_job(cli, blocks[b][j].argv) for b, j in keys]
        finally:
            tracer.uninstall()
        runs = list(zip(keys, traced))
    statuses, verdicts = judge(blocks, runs, expected)
    if trace:
        for i, (before, after) in enumerate(zip(untraced, traced)):
            if (before.code, before.stdout) != (after.code, after.stdout) and statuses[i] in ("ok", "unverified"):
                statuses[i] = "traced output differs from untraced output"
    failed = sum(1 for s in statuses if s not in ("ok", "unverified"))
    times = [outcome.seconds for _, outcome in runs]
    result.update(
        {
            "rationale": RATIONALE[name],
            "input_properties": input_properties(name, blocks, verdicts),
            "attempted": len(runs),
            "failed": failed,
            "unverified": statuses.count("unverified"),
            "error_rate": failed / len(runs),
            "setup_s_samples": setup_times,
            "setup_s_scaled_samples": setup_scaled,
        }
    )
    if not trace:
        p90 = percentile(scaled, 90)
        result["metrics"] = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "jobs_per_s": ((len(runs) - failed) / sum(scaled), "1/s"),
            "job_p50_s": (statistics.median(scaled), "s"),
            "job_p90_s": (p90, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["p90_samples"] = {"jobs": len(scaled), "beyond_p90": sum(1 for t in scaled if t > p90)}
        result["unscaled"] = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": (len(runs) - failed) / sum(times),
            "job_p50_s": statistics.median(times),
            "job_p90_s": percentile(times, 90),
        }
        result["slowdown_vs_reference"] = sum(times) / sum(scaled)
        result["gauge_passes"] = len(gauge.passes)
    else:
        result["metrics"] = tracer.metrics(sum(times), sum(o.seconds for o in untraced))
        result["wrapped"] = tracer.wrapped
        result["absent"] = tracer.absent
    result["jobs"] = job_records(blocks, runs, statuses, scaled if not trace else [None] * len(runs))
    return result


def report(result: dict) -> None:
    """Human-readable summary; the JSON line that follows is authoritative."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"rationale: {result['rationale']}")
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"input properties: {json.dumps(result['input_properties'], sort_keys=True)}")
    print(
        f"jobs attempted {result['attempted']}  failed {result['failed']}  "
        f"unverified {result['unverified']}  error_rate {result['error_rate']:.4f} ratio"
    )
    if "p90_samples" in result:
        print(f"job_p90_s over {result['p90_samples']['jobs']} jobs, {result['p90_samples']['beyond_p90']} beyond it")
    if "unscaled" in result:
        print(
            f"machine ran {result['slowdown_vs_reference']:.3f}x the reference time; unscaled: "
            + "  ".join(f"{key} {value:.6g}" for key, value in result["unscaled"].items())
        )
    if result.get("absent"):
        print(f"absent from this commit: {', '.join(result['absent'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {unit}")
    bad = [job for job in result["jobs"] if job["status"] not in ("ok", "unverified")]
    for job in bad[:10]:
        print(f"FAILED {' '.join(job['argv'])}: {job['status']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = workloads.HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except harness.ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    results_dir = workloads.HERE / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    report(result)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
