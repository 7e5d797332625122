"""Output checks, run after the timed stream.

`check` judges one job's exit code and stdout and returns a status:

- "ok": verified;
- "unverified": passed the independent checks, but expected.json holds no
  recorded output to compare it with;
- anything else: the reason the job failed.

It also returns the input properties the job revealed, so the run can
report them next to the workload's rationale.
"""

from __future__ import annotations

import hashlib

import reference


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _against_record(record: dict | None, code: int, stdout: str) -> str:
    if record is None:
        return "unverified"
    if code != record["code"] or digest(stdout) != record["sha256"]:
        return f"differs from the recorded output (exit {code}, recorded exit {record['code']})"
    return "ok"


def _check_winners(info: dict, code: int, stdout: str, expected: dict) -> tuple[str, dict]:
    chosen, _ = reference.tied_set(info["spec"], info["m"], info["k"], info["ballots"])
    props = {"tied": len(chosen) > 1}
    if code != 0:
        return f"exit {code}", props
    want = reference.winners_stdout(info["spec"], info["m"], info["k"], info["ballots"])
    return ("ok" if stdout == want else "winner set or score differs from the reference"), props


def _check_search(info: dict, code: int, stdout: str, expected: dict, argv: list[str]) -> tuple[str, dict]:
    props = {"witness": code == 0}
    return _against_record(expected["search"].get(" ".join(argv)), code, stdout), props


def _rescored(info: dict, stdout: str) -> str:
    try:
        spec = reference.fitted_spec(stdout, info["family"], info["m"], info["k"])
    except ValueError as err:
        return str(err)
    for ballots, chosen in info["observations"]:
        got, _ = reference.tied_set(spec, info["m"], info["k"], ballots)
        if set(got) != set(chosen):
            return "fitted parameters do not reproduce an observation"
    return "ok"


def _check_fit(info: dict, code: int, stdout: str, expected: dict) -> tuple[str, dict]:
    unknowns = info["k"] if info["family"] == "thiele" else info["m"] - 1
    props = {"feasible": code == 0, "unknowns": unknowns}
    if code == 0 and info["expect"] != "infeasible":
        status = _rescored(info, stdout)
    elif code == 1 and info["expect"] != "feasible":
        status = "ok" if stdout == "infeasible\n" else "infeasible fit printed something else"
    else:
        status = f"exit {code} where the fit is known to be {info['expect']}"
    if status == "ok":
        status = _against_record(expected["fit"].get(info["id"]), code, stdout)
    return status, props


def check(job, code: int | None, stdout: str, expected: dict) -> tuple[str, dict]:
    if job.kind == "winners":
        return _check_winners(job.info, code, stdout, expected)
    if job.kind == "search":
        return _check_search(job.info, code, stdout, expected, job.argv)
    if job.kind == "separations":
        return _against_record(expected["separations"], code, stdout), {}
    if job.kind == "fit":
        return _check_fit(job.info, code, stdout, expected)
    raise ValueError(f"unknown job kind {job.kind!r}")
