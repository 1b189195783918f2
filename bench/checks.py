"""Checks of each command's output against the generator's truth and the
reference in ``reference.py``.

Each ``check_<command>`` takes the command's output, a ``Context`` and the
truth of the logs the command read, and returns a list of problems; an
empty list means the output is correct.
Points compared with the reference are a fixed sample drawn from the seed.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, stdev

import reference
from workloads import KL_K, KL_M, P, TOP, VARIANT, WINDOW, Job, LogTruth, Workload

SAMPLE = 30  # reference points per sampled command
SAMPLE_T_ROWS = 3  # t rows of each surface compared with the reference
A4_MARGIN = 0.05
A4_TS = tuple(range(200, 2001, 200))


@dataclass
class Context:
    workload: Workload
    seed: int
    logs: dict[str, LogTruth]

    def sample(self, label: str, population: int, k: int) -> list[int]:
        """Indices 0 and population - 1 plus k - 2 more, fixed by the seed."""
        rng = random.Random(f"{self.seed}:{self.workload.name}:{label}")
        extra = rng.sample(range(1, max(population - 1, 1)), min(k - 2, max(population - 2, 0)))
        return sorted({0, population - 1, *extra})


def close(printed: str, value: float) -> bool:
    """``printed`` is ``value`` to the six significant digits printed."""
    shown = float(printed)
    if math.isnan(value) or math.isnan(shown):
        return math.isnan(value) and math.isnan(shown)
    if value == 0.0:
        return shown == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)
    return abs(shown - value) <= half_unit * 1.001


def _rows(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header {lines[0] if lines else ''!r}, expected {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def _keys_differ(rows: list[list[str]], expected: list[tuple], width: int) -> list[str]:
    got = [tuple(row[:width]) for row in rows]
    if got == expected:
        return []
    for i, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return [f"row {i + 1} is {a}, expected {b}"]
    return [f"{len(got)} rows, expected {len(expected)}"]


def _points(log: LogTruth, first: int, stop_margin: int, step: int) -> list[tuple[str, str]]:
    return [
        (resource, str(t))
        for resource, tags in log.streams.items()
        for t in range(first, len(tags) - stop_margin + 1, step)
    ]


def check_validate(text: str, ctx: Context, logs: list[LogTruth]) -> list[str]:
    log = logs[0]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    if report != log.report:
        return [f"report {report} differs from what was written {log.report}"]
    return []


def check_rbo(text: str, ctx: Context, logs: list[LogTruth]) -> list[str]:
    log = logs[0]
    rows, problems = _rows(text, "resource_id,t,rbo")
    problems += _keys_differ(rows, _points(log, 2 * WINDOW, 0, WINDOW), 2)
    if problems:
        return problems
    problems = [f"row {i + 1}: rbo {r[2]} outside [0, 1]" for i, r in enumerate(rows)
                if not 0.0 <= float(r[2]) <= 1.0]
    for i in ctx.sample(f"rbo:{log.stem}", len(rows), SAMPLE):
        resource, t, value = rows[i]
        want = reference.window_rbo(log.streams[resource], int(t), WINDOW, P, VARIANT)
        if not close(value, want):
            problems.append(f"rbo({resource}, t={t}) = {value}, reference {want:.6g}")
    return problems


def check_kl(text: str, ctx: Context, logs: list[LogTruth]) -> list[str]:
    log = logs[0]
    rows, problems = _rows(text, "resource_id,n,kl")
    problems += _keys_differ(rows, _points(log, KL_M, KL_M, KL_M), 2)
    if problems:
        return problems
    problems = [f"row {i + 1}: kl {r[2]} is not finite and >= 0" for i, r in enumerate(rows)
                if not (math.isfinite(float(r[2])) and float(r[2]) >= 0.0)]
    for i in ctx.sample(f"kl:{log.stem}", len(rows), SAMPLE):
        resource, n, value = rows[i]
        want = reference.kl_topk(log.streams[resource], int(n), KL_M, KL_K)
        if not close(value, want):
            problems.append(f"kl({resource}, n={n}) = {value}, reference {want:.6g}")
    return problems


def _k_grid() -> list[str]:
    return [f"{k / 10:#.6g}" for k in range(1, 10)]


def _t_grid(workload: Workload) -> list[int]:
    start, stop, step = (int(x) for x in workload.t_grid.split(":"))
    return list(range(start, stop + 1, step))


def check_compare(text: str, ctx: Context, logs: list[LogTruth]) -> list[str]:
    rows, problems = _rows(text, "dataset,t,k,f")
    ts = _t_grid(ctx.workload)
    expected = [(log.stem, str(t), k) for log in logs for t in ts for k in _k_grid()]
    problems += _keys_differ(rows, expected, 3)
    if problems:
        return problems
    width = len(_k_grid())
    for block in range(0, len(rows), width):
        cells = rows[block:block + width]
        stem, t = cells[0][0], int(cells[0][1])
        eligible = sum(1 for tags in ctx.logs[stem].streams.values() if len(tags) >= t)
        values = [float(c[3]) for c in cells]
        for c, v in zip(cells, values):
            if not close(c[3], round(v * eligible) / eligible):
                problems.append(f"f({stem}, t={t}, k={c[2]}) = {c[3]} is not i/{eligible}")
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"f({stem}, t={t}, k) increases with k: {values}")
    for number, log in enumerate(logs):
        for i in ctx.sample(f"compare:{log.stem}", len(ts), SAMPLE_T_ROWS):
            t = ts[i]
            scores = [reference.window_rbo(tags, t, WINDOW, P, VARIANT)
                      for tags in log.streams.values() if len(tags) >= t]
            first = (number * len(ts) + i) * width
            block = rows[first:first + width]
            for cell, k in zip(block, range(1, 10)):
                threshold = k / 10
                # A score within 1e-9 of k may land on either side of it.
                low = sum(1 for s in scores if s > threshold + 1e-9) / len(scores)
                high = sum(1 for s in scores if s > threshold - 1e-9) / len(scores)
                shown = float(cell[3])
                if not (close(cell[3], low) or close(cell[3], high) or low <= shown <= high):
                    problems.append(f"f({log.stem}, t={t}, k={cell[2]}) = {cell[3]}, "
                                    f"reference {low:.6g}")
    return problems


def check_a4(texts: list[str], ctx: Context) -> list[str]:
    """A4's clause over every part's ``compare`` output together: the mean of
    f_mix(t, 0.6) - f_bg(t, 0.6) over t = 200, 400, ..., 2000 is >= 0.05."""
    stabilized: dict[tuple[int, int], float] = {}  # (corpus, t) -> streams above 0.6
    streams = [0, 0]
    for text in texts:
        rows, _ = _rows(text, "dataset,t,k,f")
        for stem in dict.fromkeys(row[0] for row in rows):
            # The dataset label, not the row order, says which corpus it is.
            corpus = 0 if stem.rstrip("0123456789") == ctx.workload.logs[0].stem else 1
            n = len(ctx.logs[stem].streams)
            streams[corpus] += n
            for row in rows:
                if row[0] == stem and row[2] == f"{0.6:#.6g}":
                    key = (corpus, int(row[1]))
                    stabilized[key] = stabilized.get(key, 0.0) + float(row[3]) * n
    margin = mean(stabilized[0, t] / streams[0] - stabilized[1, t] / streams[1] for t in A4_TS)
    if not margin >= A4_MARGIN:
        return [f"A4: mean f_mix - f_bg at k = 0.6 over t = 200..2000 is {margin:.3f} "
                f"< {A4_MARGIN}"]
    return []


def check_proportions(text: str, ctx: Context, logs: list[LogTruth]) -> list[str]:
    log = logs[0]
    rows, problems = _rows(text, "resource_id,t,tag,proportion")
    if problems:
        return problems
    expected: list[tuple[str, str, str]] = []
    wanted: list[float] = []
    for resource, tags in log.streams.items():
        final = Counter(tags)
        top = [tag for tag, _ in sorted(final.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]]
        counts: Counter[str] = Counter()
        for t, tag in enumerate(tags, start=1):
            counts[tag] += 1
            if t % WINDOW == 0:
                expected.extend((resource, str(t), name) for name in top)
                wanted.extend(counts[name] / t for name in top)
    problems = _keys_differ(rows, expected, 3)
    if problems:
        return problems
    for i, (row, want) in enumerate(zip(rows, wanted)):
        if not close(row[3], want):
            problems.append(f"row {i + 1}: proportion {row[3]}, reference {want:.6g}")
            if len(problems) >= 5:
                break
    return problems


POWERLAW_HEADER = ("resource_id,alpha,xmin,ks_d,n_tail,r_exp,p_exp,r_lognorm,p_lognorm,"
                   "r_stretched,p_stretched")


def _fit_problems(label: str, row: list[str], sample: list[int]) -> list[str]:
    alpha, xmin, ks, n_tail = float(row[1]), float(row[2]), float(row[3]), row[4]
    problems = []
    if not alpha > 1.0:
        problems.append(f"{label}: alpha {row[1]} <= 1")
    if not 0.0 <= ks <= 1.0:
        problems.append(f"{label}: KS distance {row[3]} outside [0, 1]")
    if not n_tail.isdigit() or int(n_tail) < 2:
        problems.append(f"{label}: n_tail {n_tail} is not an integer >= 2")
    if xmin not in set(sample):
        problems.append(f"{label}: xmin {row[2]} is not a value of the sample")
        return problems
    want, n = reference.power_law_alpha(sample, xmin)
    if not close(row[1], want):
        problems.append(f"{label}: alpha {row[1]}, reference {want:.6g} at xmin {row[2]}")
    if n_tail != str(n):
        problems.append(f"{label}: n_tail {n_tail}, {n} counts are >= xmin {row[2]}")
    for name, value in zip(("p_exp", "p_lognorm", "p_stretched"), row[6::2]):
        if not (math.isnan(float(value)) or 0.0 <= float(value) <= 1.0):
            problems.append(f"{label}: {name} {value} outside [0, 1]")
    return problems


def check_powerlaw(text: str, ctx: Context, logs: list[LogTruth]) -> list[str]:
    log = logs[0]
    rows, problems = _rows(text, POWERLAW_HEADER)
    if problems:
        return problems
    finals = {r: sorted(Counter(tags).values()) for r, tags in log.streams.items()}
    if ctx.workload.pooled:
        if [r[0] for r in rows] != ["pooled"]:
            return [f"rows {[r[0] for r in rows]}, expected ['pooled']"]
        return _fit_problems("pooled", rows[0], [c for counts in finals.values() for c in counts])
    labels = list(finals) + ["mean", "std"]
    if [r[0] for r in rows] != labels:
        return [f"rows {[r[0] for r in rows][:5]}..., expected {labels[:5]}..."]
    per_resource = rows[:-2]
    for row in per_resource:
        problems += _fit_problems(row[0], row, finals[row[0]])
    for column in range(1, len(rows[0])):
        values = [float(r[column]) for r in per_resource]
        scale = max((abs(v) for v in values if math.isfinite(v)), default=1.0)
        # Each value was printed to six digits before being averaged here.
        tolerance = 2e-5 * scale
        for label, row, summary in (("mean", rows[-2], mean), ("std", rows[-1], stdev)):
            want = summary(values) if len(values) > 1 or label == "mean" else math.nan
            shown = float(row[column])
            if math.isnan(want) or math.isnan(shown):
                ok = math.isnan(want) and math.isnan(shown)
            else:
                ok = abs(shown - want) <= tolerance
            if not ok:
                problems.append(f"{label} row, column {column}: {row[column]}, "
                                f"the per-resource rows give {want:.6g}")
    return problems


def check_kl_baseline(text: str, ctx: Context, _: list[LogTruth]) -> list[str]:
    rows, problems = _rows(text, "n,mean_kl")
    expected = [(str(n),) for n in range(KL_M, ctx.workload.length - KL_M + 1, KL_M)]
    problems += _keys_differ(rows, expected, 1)
    if problems:
        return problems
    # No trend clause: at a 100k vocabulary the curve is 0 or nearly 0 at
    # both ends, and on some seeds its last point lies above its first.
    return [f"n={r[0]}: mean KL {r[1]} is not finite and >= 0" for r in rows
            if not (math.isfinite(float(r[1])) and float(r[1]) >= 0.0)]


def read_log(path: Path) -> tuple[dict[str, list[int]], list[str]]:
    """The benchmark's own reader: resource id -> seq values, and problems."""
    seqs: dict[str, list[int]] = {}
    problems = []
    with open(path, encoding="utf-8") as handle:
        columns = handle.readline().rstrip("\n").split("\t")
        if not {"resource_id", "tag", "seq"} <= set(columns):
            return {}, [f"header {columns} lacks resource_id, tag or seq"]
        where = {name: i for i, name in enumerate(columns)}
        for number, line in enumerate(handle, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(columns) or not parts[where["tag"]].strip():
                problems.append(f"line {number} is malformed: {line!r}")
                continue
            try:
                seqs.setdefault(parts[where["resource_id"]], []).append(int(parts[where["seq"]]))
            except ValueError:
                problems.append(f"line {number}: seq {parts[where['seq']]!r} is not an integer")
    return seqs, problems[:5]


def check_simulate(text: str, ctx: Context, path: Path) -> list[str]:
    problems = [] if text == "" else [f"stdout is not empty: {text[:80]!r}"]
    seqs, read_problems = read_log(path)
    problems += read_problems
    want = list(range(1, ctx.workload.length + 1))
    streams = ctx.workload.logs[0].streams
    if len(seqs) != streams:
        problems.append(f"{len(seqs)} streams, expected {streams}")
    for resource, values in seqs.items():
        if sorted(values) != want:
            problems.append(f"{resource}: seq values are not 1..{ctx.workload.length}")
            break
    return problems


CHECKS = {
    "validate": check_validate,
    "rbo": check_rbo,
    "compare": check_compare,
    "kl": check_kl,
    "proportions": check_proportions,
    "powerlaw": check_powerlaw,
    "kl-baseline": check_kl_baseline,
}


def check(job: Job, text: str, ctx: Context, simulated: Path) -> list[str]:
    """Problems with one job's output; ``simulated`` is the log simulate wrote."""
    if job.command == "simulate":
        return check_simulate(text, ctx, simulated)
    return CHECKS[job.command](text, ctx, [ctx.logs[stem] for stem in job.logs])
