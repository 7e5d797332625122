"""Seeded job streams for the three workloads.

A workload turns a seed into a pool of blocks.  A block is a short list of
jobs with the same mix in every block, so a run that stops after a whole
block has a mix that does not depend on where it stopped.  A job is the argv
of one `abcvote` invocation plus what the checks need to judge its stdout;
input files are written into the run's work directory and the program sees
nothing but those files and the argv.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


@dataclass
class Job:
    kind: str  # winners | search | separations | fit
    argv: list[str]
    info: dict = field(default_factory=dict)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _profile_text(m: int, ballots) -> str:
    return f"m={m}\n" + "".join(" ".join(str(c) for c in sorted(b)) + "\n" for b in ballots)


def _random_ballot(rng: random.Random, m: int, p: float) -> frozenset[int]:
    ballot = frozenset(c for c in range(m) if rng.random() < p)
    return ballot or frozenset([rng.randrange(m)])


def _random_thiele(rng: random.Random, k: int) -> str:
    values, total = ["0"], Fraction(0)
    for _ in range(k):
        total += Fraction(rng.randint(0, 6), rng.randint(1, 4))
        values.append(reference.fmt(total))
    return "thiele:" + ",".join(values)


def _random_bswav(rng: random.Random, m: int) -> str:
    return "bswav:" + ",".join(reference.fmt(Fraction(rng.randint(0, 6), rng.randint(1, 5))) for _ in range(m))


# --- elections ---------------------------------------------------------------

# (m, k, n) slots of one half-block; each block has a duplicate-heavy and a
# mostly-distinct half with these sizes, and the two halves draw their rules
# from opposite families (Thiele or ballot-size) slot by slot.  The counts
# put the stream's median inside the (9,3,100) ballot-size cluster and its
# 90th percentile inside the (12,5,300) one rather than between clusters.
ELECTION_SIZES = [(8, 3, 50)] * 3 + [(9, 3, 100)] * 4 + [(10, 4, 150)] * 2 + [(11, 4, 200)] + [(12, 5, 300)] * 2
# At (12,5,300) a ballot-size rule costs about twice a Thiele rule, and the
# 90th percentile would fall in the gap between the two.  So three of the
# four largest jobs of a block take a ballot-size rule, which puts it inside
# the ballot-size cluster; which one takes a Thiele rule rotates by block.
ELECTION_LARGEST = ELECTION_SIZES.index(ELECTION_SIZES[-1])
ELECTION_POOL_BLOCKS = 12


def _party_ballots(rng: random.Random, m: int, n: int) -> list[frozenset[int]]:
    """Ballots from a few disjoint parties with supports in small multiples of
    one unit, so ballots repeat and equal marginal gains tie often; leftover
    voters approve the union of two parties."""
    order = list(range(m))
    rng.shuffle(order)
    parties, start = [], 0
    while start < m:
        size = min(rng.randint(1, 3), m - start)
        parties.append(frozenset(order[start:start + size]))
        start += size
    weights = [rng.randint(1, 4) for _ in parties]
    unit = n // sum(weights)
    ballots = [party for party, w in zip(parties, weights) for _ in range(w * unit)]
    while len(ballots) < n:
        a, b = rng.sample(parties, 2) if len(parties) > 1 else (parties[0], parties[0])
        ballots.append(a | b)
    rng.shuffle(ballots)
    return ballots


def _distinct_ballots(rng: random.Random, m: int, n: int) -> list[frozenset[int]]:
    return [_random_ballot(rng, m, rng.uniform(0.15, 0.5)) for _ in range(n)]


def _election_rule(rng: random.Random, family: str, m: int, k: int) -> str:
    if family == "thiele":
        choice = rng.choice(["av", "pav", "ccav", "thiele"])
        return _random_thiele(rng, k) if choice == "thiele" else choice
    choice = rng.choice(["sav", "msav", "bswav"])
    return _random_bswav(rng, m) if choice == "bswav" else choice


def elections(seed: int, workdir: Path) -> list[list[Job]]:
    rng = random.Random(f"elections/{seed}")
    blocks = []
    for b in range(ELECTION_POOL_BLOCKS):
        block = []
        for half, draw in (("dup", _party_ballots), ("distinct", _distinct_ballots)):
            for slot, (m, k, n) in enumerate(ELECTION_SIZES):
                if slot >= ELECTION_LARGEST:
                    largest = 2 * (half == "dup") + slot - ELECTION_LARGEST
                    family = "thiele" if largest == b % 4 else "bswav"
                else:
                    family = "thiele" if (b + slot + (half == "dup")) % 2 else "bswav"
                spec = _election_rule(rng, family, m, k)
                ballots = draw(rng, m, n)
                path = _write(workdir / f"e{b:02d}_{half}_{slot}.txt", _profile_text(m, ballots))
                argv = ["winners", "--rule", spec, "--k", str(k), "--profile", path]
                info = {"spec": spec, "m": m, "k": k, "ballots": ballots, "half": half}
                block.append(Job("winners", argv, info))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# --- search ------------------------------------------------------------------

SEARCH_RULES = ("av", "pav", "ccav", "sav", "msav", "min-approval")
SEARCH_AXIOMS = (
    "anonymity",
    "neutrality",
    "consistency",
    "continuity",
    "weak-efficiency",
    "independence-of-losers",
    "choice-set-convexity",
    "excellence",
    "party-proportionality",
    "aversion-unanimous",
    "msav-threshold",
)
SEARCH_BOUNDS = ((4, 2), (4, 3), (5, 2))


def _aimed(rng: random.Random, ranked: list, aims, window: int) -> list:
    """One seeded pick near each aimed quantile of a list ranked by cost.

    The aims are the same for every seed and every block, so a block costs
    about the same whatever the seed and wherever a run stops, while the
    seed still chooses among the 2*window+1 items around each aim.
    """
    picks = []
    for q in aims:
        at = int(q * len(ranked))
        picks.append(rng.choice(ranked[max(0, at - window):at + window + 1]))
    return picks


# Quantiles of each bounds class, ranked by the times recorded in
# expected.json, that every block aims at; one `abcvote separations` job
# rides along in every block.  The 0.05 aims land on searches that find a
# witness early; the rest mostly exhaust.  The counts put the stream's
# median inside the dense cluster of m<=4 n<=2 exhaustive searches and its
# 90th percentile inside the m<=5 n<=2 exhaustive ones.
SEARCH_AIMS = {
    (4, 2): (0.05, 0.15, 0.5, 0.55, 0.6, 0.7),
    (4, 3): (0.05, 0.3, 0.7),
    (5, 2): (0.05, 0.2, 0.7, 0.75),
}
SEARCH_WINDOW = 4
SEARCH_POOL_BLOCKS = 12


def search_argv(rule: str, axiom: str, k: int, bounds: tuple[int, int]) -> list[str]:
    m, n = bounds
    return ["search", "--rule", rule, "--axiom", axiom, "--k", str(k), "--max-m", str(m), "--max-n", str(n)]


def search_space() -> list[list[str]]:
    """Every search argv the workload can issue."""
    return [
        search_argv(rule, axiom, k, bounds)
        for bounds in SEARCH_BOUNDS
        for axiom in SEARCH_AXIOMS
        for rule in SEARCH_RULES
        for k in (1, 2, 3)
    ]


def search(seed: int, workdir: Path) -> list[list[Job]]:
    rng = random.Random(f"search/{seed}")
    recorded = load_expected()["search"]
    ranked = {
        bounds: sorted(
            (a for a in search_space() if (int(a[8]), int(a[10])) == bounds),
            key=lambda a: (recorded[" ".join(a)]["seconds"], a),
        )
        for bounds in SEARCH_BOUNDS
    }
    blocks = []
    for _ in range(SEARCH_POOL_BLOCKS):
        block = [
            Job("search", argv)
            for bounds, aims in SEARCH_AIMS.items()
            for argv in _aimed(rng, ranked[bounds], aims, SEARCH_WINDOW)
        ]
        block.append(Job("separations", ["separations"]))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# --- fit -----------------------------------------------------------------------

# Each class is a fixed population of FIT_MEMBERS seeded instances:
# (fit family, candidate counts, committee sizes, family of the hidden rule
# that labels the observations, expected verdict, most observations).
# A family of None is drawn per member, and the hidden rule then comes from
# the same family.
FIT_CLASSES = {
    "thiele-k2": ("thiele", (4, 5, 6), (2,), "thiele", "feasible", 20),
    "thiele-k3": ("thiele", (4, 5, 6), (3,), "thiele", "feasible", 20),
    "thiele-k4": ("thiele", (5,), (4,), "thiele", "feasible", 20),
    "bswav-m3": ("bswav", (3,), (1, 2), "bswav", "feasible", 20),
    "bswav-m4": ("bswav", (4,), (1, 2, 3), "bswav", "feasible", 20),
    "bswav-m5": ("bswav", (5,), (1, 2, 3, 4), "bswav", "feasible", 12),
    "thiele-on-bswav": ("thiele", (4, 5), (2, 3), "bswav", "any", 20),
    "bswav-on-thiele": ("bswav", (4, 5), (2, 3), "thiele", "any", 12),
    "contradiction": (None, (4, 5), (2,), None, "infeasible", 20),
}
FIT_MEMBERS = 120
# Quantiles of each class, ranked by recorded fit time, that every block
# aims at (see _aimed).  The two classes with the heaviest Fourier-Motzkin
# tail also aim at their 80th percentile, so that the stream's 90th
# percentile falls inside one cluster of similar cost.
FIT_AIMS = (0.25, 0.5, 0.75)
FIT_TAIL_AIMS = {"thiele-k3": (0.25, 0.5, 0.75, 0.8), "thiele-k4": (0.25, 0.5, 0.75, 0.8)}
FIT_WINDOW = 4
FIT_POOL_BLOCKS = 24


def _observations(rng: random.Random, spec: str, m: int, k: int, count: int) -> list[tuple[list, list]]:
    """`count` random profiles, each with the tied set the hidden rule chooses."""
    out = []
    for _ in range(count):
        ballots = [_random_ballot(rng, m, 0.4) for _ in range(rng.randint(4, 10))]
        chosen, _ = reference.tied_set(spec, m, k, ballots)
        out.append((ballots, chosen))
    return out


def _observations_text(m: int, observations) -> str:
    return "".join(
        _profile_text(m, ballots) + "chosen: " + ",".join(
            "{" + ",".join(str(c) for c in w) + "}" for w in chosen
        ) + "\n"
        for ballots, chosen in observations
    )


def _thiele_hidden(rng: random.Random, k: int) -> str:
    return rng.choice(["av", "pav", "ccav", _random_thiele(rng, k)])


def _bswav_hidden(rng: random.Random, m: int) -> str:
    return rng.choice(["sav", "msav", _random_bswav(rng, m)])


def fit_member(name: str, index: int) -> dict:
    """Instance `index` of fit class `name`; the same on every call."""
    rng = random.Random(f"fit/{name}/{index}")
    family, ms, ks, hidden_family, expect, most = FIT_CLASSES[name]
    family = family or rng.choice(("thiele", "bswav"))
    m, k = rng.choice(ms), rng.choice(ks)
    hidden = _thiele_hidden(rng, k) if (hidden_family or family) == "thiele" else _bswav_hidden(rng, m)
    observations = _observations(rng, hidden, m, k, rng.randint(8, most))
    if expect == "infeasible":
        # the same profile observed again with another choice set: no rule
        # of any family can produce both
        ballots, chosen = observations[0]
        other = next(w for w in itertools.combinations(range(m), k) if w not in chosen[:1])
        observations.append((ballots, [other]))
    return {"id": f"{name}/{index}", "family": family, "m": m, "k": k, "hidden": hidden,
            "expect": expect, "observations": observations}


def fit_job(member: dict, workdir: Path) -> Job:
    name = member["id"].replace("/", "_")
    path = _write(workdir / f"{name}.txt", _observations_text(member["m"], member["observations"]))
    return Job("fit", ["fit", "--family", member["family"], "--k", str(member["k"]), "--observations", path], member)


def fit(seed: int, workdir: Path) -> list[list[Job]]:
    rng = random.Random(f"fit/{seed}")
    recorded = load_expected()["fit"]
    jobs: dict[str, Job] = {}
    blocks = []
    for _ in range(FIT_POOL_BLOCKS):
        block = []
        for name in FIT_CLASSES:
            ranked = sorted(range(FIT_MEMBERS), key=lambda i: (recorded[f"{name}/{i}"]["seconds"], i))
            for index in _aimed(rng, ranked, FIT_TAIL_AIMS.get(name, FIT_AIMS), FIT_WINDOW):
                key = f"{name}/{index}"
                if key not in jobs:
                    jobs[key] = fit_job(fit_member(name, index), workdir)
                block.append(jobs[key])
        rng.shuffle(block)
        blocks.append(block)
    return blocks


WORKLOADS = {"elections": elections, "search": search, "fit": fit}
