"""Record the expected outputs that the checks compare against.

    python3 perfbench/record.py [search|fit]

`search` runs every argv in the search workload's sample space plus the
separation battery; `fit` runs every member of every fit class.  Each entry
stores the exit code, the stdout digest and the time of one run in
reference seconds (see harness.SpeedGauge); the times rank the entries,
and the workloads aim their picks at fixed quantiles of that ranking.  Both
parts rewrite `expected.json` in place; run them only at a commit whose
outputs are known to be right.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import workloads
from harness import SpeedGauge, import_program, run_job

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_seconds(gauge: SpeedGauge, outcome) -> float:
    return round(gauge.measure(outcome.start, outcome.start + outcome.seconds)[1], 4)


def record_search(cli, gauge: SpeedGauge) -> dict:
    entries = {}
    for argv in workloads.search_space():
        outcome = run_job(cli, argv)
        if outcome.error is not None:
            raise RuntimeError(f"{' '.join(argv)} raised {outcome.error}")
        entries[" ".join(argv)] = {
            "code": outcome.code,
            "sha256": digest(outcome.stdout),
            "seconds": reference_seconds(gauge, outcome),
        }
        print(f"{outcome.seconds:8.3f}s  code {outcome.code}  {' '.join(argv)}", flush=True)
    return entries


def record_fit(cli, gauge: SpeedGauge) -> dict:
    workdir = workloads.HERE / ".work" / "record-fit"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        entries = {}
        for name in workloads.FIT_CLASSES:
            for index in range(workloads.FIT_MEMBERS):
                job = workloads.fit_job(workloads.fit_member(name, index), workdir)
                outcome = run_job(cli, job.argv)
                if outcome.error is not None:
                    raise RuntimeError(f"{job.info['id']} raised {outcome.error}")
                entries[job.info["id"]] = {
                    "code": outcome.code,
                    "sha256": digest(outcome.stdout),
                    "seconds": reference_seconds(gauge, outcome),
                }
                print(f"{outcome.seconds:8.3f}s  code {outcome.code}  {job.info['id']}", flush=True)
        return entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    parts = argv or ["search", "fit"]
    try:
        expected = workloads.load_expected()
    except FileNotFoundError:
        expected = {}
    cli = import_program()
    with SpeedGauge() as gauge:
        if "search" in parts:
            expected["search"] = record_search(cli, gauge)
            outcome = run_job(cli, ["separations"])
            expected["separations"] = {"code": outcome.code, "sha256": digest(outcome.stdout)}
        if "fit" in parts:
            expected["fit"] = record_fit(cli, gauge)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
