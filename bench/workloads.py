"""The benchmark's workloads and its own seeded input generator.

The generator does not use ``tagstab.generators``: a change to the
program's random draws must not change the benchmark's inputs.  Every
stream follows the paper's mixture process over a Zipf(s = 1) background
of 100k tags: each assignment after the first copies a uniformly chosen
earlier assignment of the same stream with probability I (imitation) and
otherwise draws from the background.  Every log also carries a known number
of rows of each kind that ingestion rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VOCABULARY = 100_000
ZIPF_S = 1.0
IMITATION = 0.7
WINDOW = 10
P = 0.9
VARIANT = "tie_corrected"
KL_M = 10
KL_K = 25
TOP = 10
K_GRID = "0.1:0.9:0.1"

# Distinct counts, so that a report which swaps two reasons is caught.
REJECTS = {
    "blank line": 2,
    "duplicate seq": 3,
    "empty tag": 4,
    "field count mismatch": 5,
    "invalid seq": 6,
}

METRIC_OF = {
    "validate": "validate_s",
    "rbo": "rbo_s",
    "compare": "surface_s",
    "kl": "kl_s",
    "proportions": "proportions_s",
    "powerlaw": "powerlaw_s",
    "kl-baseline": "kl_baseline_s",
    "simulate": "simulate_s",
}
COMMANDS = tuple(METRIC_OF)


@dataclass(frozen=True)
class Log:
    stem: str
    rate: float  # imitation rate
    streams: int
    single_tag: int = 0  # extra streams that repeat one tag throughout


@dataclass(frozen=True)
class Workload:
    """``parts`` copies of ``logs`` with independent streams.  Every command
    that reads a log runs on each part, so that its metric is the median of
    many executions spread over the run (see README.md)."""

    name: str
    number: int  # mixed into the seed, so workloads never share streams
    logs: tuple[Log, ...]  # of one part; the first is the one analysed
    parts: int
    length: int
    t_grid: str
    kl_trials: int
    reps: dict[str, int] = field(default_factory=dict)  # executions per round
    interleaved: bool = False
    users: bool = False
    pooled: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # A4's comparison: a 70/30 imitation/background log against a
        # pure-background log, at A4's stream length; 12 streams of each
        # over the six parts instead of A4's 100 keep a run in its limit.
        Workload(
            "a4-mixture", 1, (Log("mixture", IMITATION, 2), Log("background", 0.0, 2)),
            parts=6, length=3000, t_grid="200:3000:200", kl_trials=4,
            reps={"kl-baseline": 4, "simulate": 4},
        ),
        # Ranking at every checkpoint costs time in proportion to the
        # distinct tags seen, so per-stream work grows about as length^2.
        Workload(
            "long-streams", 2, (Log("long", IMITATION, 1),),
            parts=4, length=6000, t_grid="600:6000:600", kl_trials=2,
            reps={"kl-baseline": 4, "simulate": 4},
        ),
        # Per-row and per-stream costs: rows interleaved across resources
        # in time order, with a user_id column, three checkpoints a stream.
        # The two single-tag resources end the pooled sample in a tie at
        # its maximum, the tail the power-law fit then picks (see CHANGES.md);
        # without them that happens on about one seed in four.
        Workload(
            "many-short", 3, (Log("short", IMITATION, 1500, single_tag=2),),
            parts=1, length=40, t_grid="20:40:10", kl_trials=10,
            reps={"validate": 2, "kl": 2, "proportions": 2, "kl-baseline": 3, "simulate": 2},
            interleaved=True, users=True, pooled=True,
        ),
    )
}


@dataclass(frozen=True)
class Job:
    command: str
    argv: tuple[str, ...]
    logs: tuple[str, ...] = ()  # stems of the logs whose truth checks the output


def stems(workload: Workload, part: int) -> list[str]:
    return [f"{log.stem}{part}" for log in workload.logs]


def jobs(workload: Workload, work: Path, seed: int) -> list[Job]:
    """Every distinct execution of one round."""
    path = lambda stem: str(work / f"{stem}.tsv")  # noqa: E731
    rbo = ("--p", str(P), "--window", str(WINDOW), "--variant", VARIANT)
    fit_mode = "--pooled" if workload.pooled else "--per-resource"
    per_part = []
    for part in range(1, workload.parts + 1):
        logs = stems(workload, part)
        main = logs[0]
        per_part += [
            Job("validate", ("validate", path(main)), (main,)),
            Job("rbo", ("rbo", path(main), *rbo), (main,)),
            Job("compare", ("compare", *map(path, logs), *rbo,
                            "--t-grid", workload.t_grid, "--k-grid", K_GRID), tuple(logs)),
            Job("kl", ("kl", path(main), "--m", str(KL_M), "--k", str(KL_K)), (main,)),
            Job("proportions", ("proportions", path(main), "--window", str(WINDOW),
                                "--top", str(TOP)), (main,)),
            Job("powerlaw", ("powerlaw", path(main), fit_mode), (main,)),
        ]
    return per_part + [
        Job("kl-baseline", ("kl-baseline", "--vocab", str(VOCABULARY), "--m", str(KL_M),
                            "--k", str(KL_K), "--length", str(workload.length),
                            "--trials", str(workload.kl_trials), "--seed", str(seed))),
        Job("simulate", ("simulate", "--model", "mixture", "--imitation-rate", str(IMITATION),
                         "--vocab", str(VOCABULARY), "--zipf-s", str(ZIPF_S),
                         "--length", str(workload.length),
                         "--streams", str(workload.logs[0].streams),
                         "--seed", str(seed), "--out", str(work / "simulated.tsv"))),
    ]


def schedule(workload: Workload, round_jobs: list[Job]) -> list[Job]:
    """One round: each job ``reps`` times, the repetitions spread evenly
    through the round so that every command samples the host's speed
    across it."""
    size = len(round_jobs)
    slots = []
    for index, job in enumerate(round_jobs):
        reps = workload.reps.get(job.command, 1)
        slots += [((index + i * size) / reps, job) for i in range(reps)]
    return [job for _, job in sorted(slots, key=lambda slot: slot[0])]


@dataclass
class LogTruth:
    """What the generator wrote into one log."""

    stem: str
    streams: dict[str, list[str]]  # resource id -> tags in seq order
    report: dict  # the ingestion report the log must produce


def _zipf_cdf() -> np.ndarray:
    weights = np.arange(1, VOCABULARY + 1, dtype=float) ** -ZIPF_S
    return np.cumsum(weights) / weights.sum()


def _draw(rng: np.random.Generator, n: int, length: int, rate: float, cdf: np.ndarray) -> np.ndarray:
    """Tag indices of n mixture streams, shape (n, length)."""
    total = n * length
    background = np.minimum(np.searchsorted(cdf, rng.random(total), side="right"), cdf.size - 1)
    position = np.tile(np.arange(length), n)
    start = np.repeat(np.arange(n) * length, length)
    imitate = (rng.random(total) < rate) & (position > 0)
    earlier = start + (rng.random(total) * position).astype(np.int64)
    source = np.where(imitate, earlier, start + position)
    # Follow each copy back to the background draw it started from; every
    # hop points strictly earlier, so the chains end.
    while True:
        hop = source[source]
        if np.array_equal(hop, source):
            break
        source = hop
    return background[source].reshape(n, length)


def _row(columns: list[str], resource: str, tag: str, seq: str, user: str) -> str:
    values = {"resource_id": resource, "tag": tag, "seq": seq, "user_id": user}
    return "\t".join(values[c] for c in columns) + "\n"


def write_log(path: Path, workload: Workload, log: Log, rng: np.random.Generator,
              cdf: np.ndarray) -> LogTruth:
    length = workload.length
    drawn = _draw(rng, log.streams, length, log.rate, cdf)
    if log.single_tag:
        # Tags rank 1, 2, ...: the most common tags, as a resource that
        # everyone tags alike would get.
        constant = np.repeat(np.arange(log.single_tag)[:, None], length, axis=1)
        drawn = np.vstack([drawn, constant])
    n = drawn.shape[0]
    resources = [f"r{s:05d}" for s in range(n)]
    columns = ["user_id", "resource_id", "tag", "seq"] if workload.users else ["resource_id", "tag", "seq"]
    users = rng.integers(0, 2000, size=n * length)
    if workload.interleaved:
        # Each stream's assignments get increasing times; rows go out in time order.
        times = np.sort(rng.random((n, length)), axis=1).ravel()
        order = np.argsort(times, kind="stable")
    else:
        order = np.arange(n * length)
    names = drawn.ravel()
    lines = [
        _row(columns, resources[i // length], f"tag{names[i] + 1}", str(i % length + 1), f"u{users[i]}")
        for i in order.tolist()
    ]

    inserts: list[tuple[int, str]] = []
    for reason, count in REJECTS.items():
        for k in range(count):
            resource = resources[int(rng.integers(0, n))]
            fresh = str(length + 1 + k)  # a seq no accepted row uses
            at = int(rng.integers(0, len(lines) + 1))
            if reason == "blank line":
                line = "\n"
            elif reason == "field count mismatch":
                line = _row(columns, resource, "extra", fresh, "u0").rstrip("\n") + "\tsurplus\n"
            elif reason == "empty tag":
                line = _row(columns, resource, "   ", fresh, "u0")
            elif reason == "invalid seq":
                line = _row(columns, resource, "tagx", f"x{fresh}", "u0")
            else:
                # First matching row wins, so the duplicate goes after its original.
                original = int(rng.integers(0, len(lines)))
                flat = int(order[original])
                line = _row(columns, resources[flat // length], "duplicate",
                            str(flat % length + 1), "u0")
                at = int(rng.integers(original + 1, len(lines) + 1))
            inserts.append((at, line))
    inserts.sort(key=lambda item: item[0])
    out: list[str] = ["\t".join(columns) + "\n"]
    cursor = 0
    for at, line in inserts:
        out.extend(lines[cursor:at])
        out.append(line)
        cursor = at
    out.extend(lines[cursor:])
    path.write_text("".join(out), encoding="utf-8")

    tag_names = [[f"tag{x + 1}" for x in row] for row in drawn.tolist()]
    report = {
        "streams_loaded": n,
        "assignments_loaded": n * length,
        "rows_rejected": sum(REJECTS.values()),
        "reject_reasons": dict(sorted(REJECTS.items())),
        "stream_lengths": {"min": length, "max": length, "mean": float(length), "median": float(length)},
    }
    return LogTruth(path.stem, dict(zip(resources, tag_names)), report)


def generate(workload: Workload, work: Path, seed: int) -> dict[str, LogTruth]:
    """Write every log of every part into ``work``; same seed, same bytes."""
    cdf = _zipf_cdf()
    truths = {}
    for part in range(1, workload.parts + 1):
        for index, (log, stem) in enumerate(zip(workload.logs, stems(workload, part))):
            rng = np.random.default_rng([seed, workload.number, part, index])
            truths[stem] = write_log(work / f"{stem}.tsv", workload, log, rng, cdf)
    return truths
