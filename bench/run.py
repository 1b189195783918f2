"""Benchmark of every tagstab analysis command on one workload.

    python3 bench/run.py --workload a4-mixture --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The run writes the workload's logs
with the benchmark's own generator (several times, for ``setup_s``), starts
a command server that imports ``tagstab.cli`` from ``src/``, and executes
whole rounds of the eight commands, each execution in a fresh forked
process that times only ``tagstab.cli.main(argv)``.  Every output is checked
against the generator's truth and an independent reference.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``; with ``--trace 1``
the per-layer metrics of one untraced and one traced execution of each
command).  ``--negative-control`` instead alters one value of each output
and confirms that its check then fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import workloads
from tracer import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

CLI_NAMES = workloads.COMMANDS
PER_LAYER_UNITS = {
    "streams.rank.calls": "count",
    "streams.rank.s": "s",
    "measures.rbo.calls": "count",
    "measures.rbo.s": "s",
    "measures.rbo_trajectory.self_s": "s",
    "stability.stability_surface.self_s": "s",
    "measures.kl_topk_trajectory.s": "s",
    "streams.proportion_trajectory.s": "s",
    "streams.snapshot.s": "s",
    "ingest.ingest_tag_log.s": "s",
    "ingest.held_mb": "MB",
    "ingest.write_tag_log.s": "s",
    "generators.generate_corpus.s": "s",
    "generators.generate_stream.calls": "count",
    "generators.generate_stream.s": "s",
    "measures.kl_random_baseline.self_s": "s",
    "powerlaw.fit_power_law.calls": "count",
    "powerlaw.fit_power_law.s": "s",
    "powerlaw.compare_distributions.s": "s",
    **{f"cli.{c}.self_s": "s" for c in CLI_NAMES},
    **{f"cli.{c}.rss_mb": "MB" for c in CLI_NAMES},
    "warnings.runtime": "count",
    "trace.overhead_s": "s",
}


class Server:
    """The command server process; one per set-up."""

    def __init__(self, work: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # One BLAS thread, so that forking is safe and timings do not
        # depend on how many cores are free; a fixed hash seed, so that set
        # and dict layouts do not differ between runs.
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONHASHSEED="0")
        self.work = work
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")], cwd=work, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        hello = self.process.stdout.readline()
        if not hello:
            self.close()
            raise RuntimeError("the command server could not import tagstab.cli")
        hello = json.loads(hello)
        if Path(hello["tagstab"]).resolve() != (ROOT / "src" / "tagstab").resolve():
            self.close()
            raise RuntimeError(f"imported tagstab from {hello['tagstab']}, not from src/")
        self.import_s = hello["import_s"]
        self.executions = 0

    def execute(self, request: dict) -> dict | None:
        """Run one request in a fresh child; its result, or None if it failed."""
        self.executions += 1
        tag = f"x{self.executions}"
        request = {"err": str(self.work / f"{tag}.err"),
                   "result": str(self.work / f"{tag}.json"), **request}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = json.loads(self.process.stdout.readline())
        result_path = Path(request["result"])
        if reply["status"] != 0 or not result_path.exists():
            return None
        result = json.loads(result_path.read_text())
        return result if result["rc"] == 0 else None

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Run:
    def __init__(self, workload: workloads.Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.jobs = workloads.jobs(workload, work, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, str] = {}  # job index -> sha256 of its first output

    def setup(self) -> tuple[float, Server, dict[str, workloads.LogTruth]]:
        """Generate the logs and start a server SETUP_REPEATS times; the
        median set-up time, the last server and what the logs hold."""
        times = []
        server = None
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.close()
            start = time.perf_counter()
            logs = workloads.generate(self.workload, self.work, self.seed)
            generated = time.perf_counter() - start
            server = Server(self.work)
            times.append(generated + server.import_s)
        return statistics.median(times), server, logs

    def output(self, job: workloads.Job, first: bool = True) -> Path:
        return self.work / f"{'first' if first else 'out'}-{self.jobs.index(job)}.txt"

    def execute(self, server: Server, job: workloads.Job, trace: bool = False) -> dict | None:
        """Run one job; its result, or None if it failed."""
        self.attempted += 1
        out = self.output(job, first=False)
        result = server.execute({"argv": list(job.argv), "out": str(out), "trace": trace,
                                 "spans": str(self.work / "spans.json")})
        if result is None:
            self.failed += 1
            return None
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        index = self.jobs.index(job)
        if index not in self.first:
            self.first[index] = digest
            shutil.copyfile(out, self.output(job))
        elif digest != self.first[index]:
            self.problems.append(f"{job.command}: output differs between executions")
        return result

    def check(self, logs: dict[str, workloads.LogTruth]) -> None:
        ctx = checks.Context(self.workload, self.seed, logs)
        compared = []
        for index in self.first:
            job = self.jobs[index]
            text = self.output(job).read_text(encoding="utf-8")
            found = checks.check(job, text, ctx, self.work / "simulated.tsv")
            self.problems += [f"{job.command} {' '.join(job.logs)}: {p}" for p in found[:5]]
            if job.command == "compare":
                compared.append(text)
        if self.workload.name == "a4-mixture":
            self.problems += checks.check_a4(compared, ctx)


def end_to_end(run: Run, seconds: float) -> dict:
    """Whole rounds of every job for about ``seconds``; each command's
    metric is the median of its executions."""
    setup_s, server, logs = run.setup()
    times: dict[str, list[float]] = {c: [] for c in CLI_NAMES}
    peak = 0.0
    try:
        start = time.perf_counter()
        done = 0
        # Start another round only if it should end within ``seconds``.
        while done == 0 or (time.perf_counter() - start) * (done + 1) / done <= seconds:
            for job in workloads.schedule(run.workload, run.jobs):
                result = run.execute(server, job)
                if result is not None:
                    times[job.command].append(result["seconds"])
                    peak = max(peak, result["rss_mb"])
            done += 1
    finally:
        server.close()
    run.check(logs)
    samples = ROOT / ".bench_work" / "samples"
    samples.mkdir(exist_ok=True)
    (samples / f"{run.workload.name}-seed{run.seed}.json").write_text(json.dumps(times))
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for command in CLI_NAMES:
        value = statistics.median(times[command]) if times[command] else 0.0
        metrics[workloads.METRIC_OF[command]] = {"value": value, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return metrics


def per_layer(run: Run) -> dict:
    """One untraced and one traced execution of every job; the layers'
    numbers are sums over the traced ones, the memory ones maxima over the
    untraced ones."""
    _, server, logs = run.setup()
    totals: dict[str, dict[str, float]] = {}
    rss: dict[str, float] = {}
    untraced = traced = 0.0
    runtime_warnings = 0
    try:
        for job in run.jobs:
            # Untraced, then traced at once, so that both meet the same host speed.
            result = run.execute(server, job)
            if result is not None:
                untraced += result["seconds"]
                rss[job.command] = max(rss.get(job.command, 0.0), result["rss_mb"])
            result = run.execute(server, job, trace=True)
            if result is None:
                continue
            traced += result["seconds"]
            dump = json.loads((run.work / "spans.json").read_text())
            runtime_warnings += dump["runtime_warnings"]
            for name, entry in aggregate(dump["names"], dump["spans"]).items():
                into = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for key, value in entry.items():
                    into[key] += value
        run.attempted += 1
        held = server.execute({"held": str(run.work / f"{workloads.stems(run.workload, 1)[0]}.tsv")})
        if held is None:
            run.failed += 1
    finally:
        server.close()
    run.check(logs)
    values = {
        "ingest.held_mb": held["held_mb"] if held else 0.0,
        "warnings.runtime": runtime_warnings,
        "trace.overhead_s": traced - untraced,
        **{f"cli.{c}.rss_mb": rss.get(c, 0.0) for c in CLI_NAMES},
    }
    for name in PER_LAYER_UNITS.keys() - values.keys():
        span, key = name.rsplit(".", 1)  # e.g. "streams.rank" and "calls"
        values[name] = totals.get(span, {}).get(key, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def _alter_csv(text: str, row: int, column: int, change) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[column] = change(cells[column])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _nudge(cell: str) -> str:
    value = float(cell)
    return f"{value + 0.01 if value < 0.5 else value - 0.01:#.6g}"


def negative_control(run: Run) -> int:
    """One untimed round, then alter one checked value in the output of
    each command's first job and require that its check fails.  Returns
    the number of checks that did not fail."""
    _, server, logs = run.setup()
    try:
        for job in run.jobs:
            run.execute(server, job)
    finally:
        server.close()
    run.check(logs)
    if run.problems or run.failed:
        print("\n".join(run.problems) or "an execution failed")
        return len(CLI_NAMES)
    ctx = checks.Context(run.workload, run.seed, logs)
    streams = run.workload.logs[0].streams

    def step(cell: str) -> str:  # one step of 1/n on a surface cell
        value = float(cell)
        return f"{value - 1 / streams if value >= 1 / streams else value + 1 / streams:#.6g}"

    def middle(text: str) -> int:
        return len(text.split("\n")) // 2

    alter = {
        "validate": lambda text: text.replace('"assignments_loaded": ', '"assignments_loaded": 1', 1),
        "rbo": lambda text: _alter_csv(text, 1, 2, _nudge),
        "compare": lambda text: _alter_csv(text, 1, 3, step),
        "kl": lambda text: _alter_csv(text, 1, 2, _nudge),
        "proportions": lambda text: _alter_csv(text, middle(text), 3, _nudge),
        "powerlaw": lambda text: _alter_csv(text, 1, 1, _nudge),
        "kl-baseline": lambda text: _alter_csv(text, middle(text), 1, lambda cell: "-0.0100000"),
    }
    simulated = run.work / "simulated.tsv"
    missed = 0
    for command in CLI_NAMES:
        job = next(job for job in run.jobs if job.command == command)
        text = run.output(job).read_text(encoding="utf-8")
        if command == "simulate":
            lines = simulated.read_text(encoding="utf-8").split("\n")
            cells = lines[1].split("\t")
            cells[-1] = str(int(cells[-1]) + run.workload.length)  # seq, past the stream's end
            lines[1] = "\t".join(cells)
            simulated.write_text("\n".join(lines), encoding="utf-8")
        else:
            text = alter[command](text)
        found = checks.check(job, text, ctx, simulated)
        missed += not found
        print(f"{command}: {'caught' if found else 'MISSED'}: {found[0] if found else ''}")
    if run.workload.name == "a4-mixture":
        # A4's clause: the background curves passed off as the mixture's.
        mixture, background = (log.stem for log in run.workload.logs)
        swapped = [
            run.output(job).read_text(encoding="utf-8")
            .replace(mixture, "#").replace(background, mixture).replace("#", background)
            for job in run.jobs if job.command == "compare"
        ]
        found = checks.check_a4(swapped, ctx)
        missed += not found
        print(f"compare (A4): {'caught' if found else 'MISSED'}: {found[0] if found else ''}")
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "tagstab" / "cli.py").is_file():
        print(f"bench: no tagstab source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(workloads.WORKLOADS[args.workload], args.seed, work)
    try:
        if args.negative_control:
            return 1 if negative_control(run) else 0
        run.problems += [f"reference: {p}" for p in reference.worked_examples()]
        metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"{args.workload}: attempted {run.attempted}, failed {run.failed}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
