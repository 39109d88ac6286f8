"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload unp-ranks --seed 1 --seconds 20 --trace 0

Set-up: the workload's set-up child (``prepare.py``) runs several times in
fresh interpreters; ``setup_s`` is the median of their wall times.  Then this
process runs the workload's job list back to back (closed loop, one client)
until ``--seconds`` would be exceeded, always at least once.

``--trace 0`` reports the end-to-end metrics: medians over passes of wall and
CPU time, the peak resident set of this process, ``setup_s`` and
``pass_ratio``.  ``--trace 1`` runs each job untraced and traced, and
reports the per-layer metrics of the traced calls (medians over rounds), the
tracing overhead (median over jobs and rounds of traced ÷ untraced wall time,
minus 1) and the processor count.  Every job's output is checked; a job that
raises, exits non-zero or fails its check counts as failed.

Exits 2 without a result when the checkout holds no frattini sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import source
from tracer import Tracer, summarize

SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one frattini benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("unp-ranks", "koszul-reps", "group-verify", "bockstein-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")) if root.exists() else []:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _prepare(workload: str, seed: int, workdir: Path, repeats: int) -> float:
    """Run the set-up child ``repeats`` times; median wall seconds.  Each run
    must write the same inputs, since the same seed gives the same inputs."""
    cmd = [sys.executable, str(Path(__file__).with_name("prepare.py")),
           "--workload", workload, "--seed", str(seed), "--out", str(workdir)]
    times, digests = [], set()
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as child:
            # wait() without a timeout blocks in waitpid; with one it polls in 50 ms steps.
            killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            killer.start()
            try:
                code = child.wait()
            finally:
                killer.cancel()
        times.append(perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        digests.add(_tree_digest(workdir))
    if len(digests) != 1:
        raise RuntimeError(f"set-up for seed {seed} wrote different inputs on different runs")
    return statistics.median(times)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call(job):
    """Run one job.  Its output is (exit code, stdout, stderr), or a string
    saying how the job broke."""
    try:
        return job.call()
    except SystemExit as exc:
        return f"exited via SystemExit({exc.code!r})"
    except Exception:  # a job that raises is a failed job; the run goes on
        return traceback.format_exc()


def _run_pass(jobs) -> tuple[float, float, list]:
    """Run every job once; (wall s, CPU s, outputs)."""
    cpu0, start = _cpu_seconds(), perf_counter()
    outputs = [_call(job) for job in jobs]
    return perf_counter() - start, _cpu_seconds() - cpu0, outputs


def _timed_call(job) -> tuple[float, object]:
    start = perf_counter()
    output = _call(job)
    return perf_counter() - start, output


def _failures(jobs, outputs, reference=None) -> list[str]:
    """One message per failed job.  With ``reference`` (the outputs of an
    untraced pass), a job whose output differs from it has failed too."""
    found = []
    for i, (job, got) in enumerate(zip(jobs, outputs)):
        if isinstance(got, str):
            problem = got
        elif got[0] != 0:
            problem = f"exit code {got[0]}: {got[2].strip()}"
        else:
            try:
                problem = job.check(got[1])
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problem = f"output lacks an expected field: {exc!r}"
        if not problem and reference is not None and got != reference[i]:
            problem = "traced output differs from untraced output"
        if problem:
            found.append(f"{job.label}: {problem}")
    return found


def _measure(jobs, seconds: float, traced: bool) -> dict:
    """Closed loop over the job list until the next round would pass ``seconds``.

    Untraced, a round is one pass over the jobs.  Traced, a round runs each job
    untraced and traced, back to back, so every job gives one pair of wall
    times taken seconds apart.
    """
    walls, cpus, ratios, layer_runs, problems = [], [], [], [], []
    attempted = rounds = 0
    start = perf_counter()
    while True:
        if traced:
            round_ratios, round_problems, layer_metrics = _traced_round(jobs, rounds)
            ratios += round_ratios
            layer_runs.append(layer_metrics)
            attempted += 2 * len(jobs)
        else:
            wall, cpu, outputs = _run_pass(jobs)
            walls.append(wall)
            cpus.append(cpu)
            round_problems = _failures(jobs, outputs)
            attempted += len(jobs)
        problems += round_problems
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    return {"rounds": rounds, "walls": walls, "cpus": cpus, "ratios": ratios, "layer_runs": layer_runs,
            "attempted": attempted, "problems": problems}


def _traced_round(jobs, round_no: int) -> tuple[list[float], list[str], dict[str, float]]:
    """Each job untraced and traced, back to back: (traced ÷ untraced wall
    time per job, failures, per-layer metrics of the traced calls).  Which
    side runs first alternates from pair to pair, so that a job's first call
    in the process, which is slower, does not bias the ratio one way."""
    import layers

    tracer = Tracer()
    ratios, plain, traced = [], [], []
    for i, job in enumerate(jobs):
        if (round_no + i) % 2:
            traced_wall, traced_output = _traced_call(job, tracer)
            wall, output = _timed_call(job)
        else:
            wall, output = _timed_call(job)
            traced_wall, traced_output = _traced_call(job, tracer)
        plain.append(output)
        traced.append(traced_output)
        ratios.append(traced_wall / wall)
    problems = _failures(jobs, plain) + _failures(jobs, traced, plain)
    return ratios, problems, layers.metrics(summarize(tracer.spans))


def _traced_call(job, tracer: Tracer) -> tuple[float, object]:
    import layers

    layers.install(tracer)
    try:
        return _timed_call(job)
    finally:
        tracer.uninstall()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        source.use_checkout_source()
    except source.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads

    workdir = source.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = _prepare(args.workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS)
        jobs = workloads.jobs(args.workload, args.seed, workdir)
        self_problems = [f"self-check: {p}" for p in layers.self_check()] if args.trace else []
        run = _measure(jobs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if source.WORK.is_dir() and not any(source.WORK.iterdir()):
            source.WORK.rmdir()

    for problem in self_problems + run["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = run["attempted"], len(run["problems"])
    if args.trace:
        units = layers.metric_units()
        metrics = {name: _metric(statistics.median(r[name] for r in run["layer_runs"]), unit)
                   for name, unit in units.items()}
        metrics["trace.overhead_ratio"] = _metric(statistics.median(run["ratios"]) - 1, "1")
        metrics["host.cpu_count"] = _metric(os.cpu_count() or 0, "count")
    else:
        metrics = {
            "wall_s": _metric(statistics.median(run["walls"]), "s"),
            "cpu_s": _metric(statistics.median(run["cpus"]), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": _metric(setup_s, "s"),
            "pass_ratio": _metric(1 - failed / attempted, "1"),
        }
    print(f"{args.workload} seed {args.seed}: {run['rounds']} round(s), "
          f"{attempted} jobs, {failed} failed", file=sys.stderr)
    result = {"correct": not (self_problems or failed), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
