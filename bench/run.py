"""Benchmark of the ropelab CLI: end-to-end metrics from real invocations, per-layer
metrics from a traced in-process run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/`` and
invoked as ``python -m ropelab.cli``, one child at a time (a closed loop
with one client). Each round runs every job of the workload, in an order
drawn from the seed, and checks every output; a failed job counts against
``failed`` and never stops the run.

``--trace 0`` reports the end-to-end metrics. Each job runs as a pair: once
under ``src/`` and once under ``bench/reference/``, a frozen copy of the
program as it stood when the benchmark was defined, back to back and in
alternating order. ``wall_ratio`` divides the two, which cancels the drift
in speed of a shared host. The first round always runs whole; after it,
pairs go on until the next one would end past ``--seconds``.

``--trace 1`` alternates one CLI round, for ``trace.unaccounted_s``, with
one round that calls ``ropelab.cli.main`` in-process under :mod:`tracing`,
and reports the per-layer metrics. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, instrument, layer_metrics, summarize
from workloads import FULL, WORKLOADS, Job, Tier, check_output, load_golden, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the program as it stood when the benchmark was defined; never edit it, or
# wall_ratio stops being comparable between commits
REFERENCE = Path(__file__).resolve().parent / "reference"
REFERENCE_SHA256 = "dc45ce38c2e9b2eb6f2d7d80e5e95283393cdc38e44f7ee2c70e57194369df56"
WORK = ROOT / ".bench_work"

# fresh interpreters that import ropelab.cli, one before each pair and this
# many before each traced round, so the probes sample the machine across the
# whole run; setup_s is their median
SETUP_PROBES = 3
# a run stops starting jobs after this long and kills a job still running then,
# so it ends well inside the 180 s a run may take
RUN_LIMIT_S = 150.0

END_TO_END = {"wall_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    """One finished child or in-process job."""

    name: str
    wall_s: float
    error: str | None
    maxrss_kb: int = 0
    cpu_s: float = 0.0


def _child_env(src: Path) -> dict[str, str]:
    # children cache ropelab's bytecode beside its sources, as an installed package
    # has it, so setup_s does not depend on the caller's PYTHONDONTWRITEBYTECODE
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _spawn(name: str, argv: list[str], stdout: Path, deadline: float,
           src: Path = SRC) -> Invocation:
    """Run one child to completion; peak RSS and CPU come from its own wait4 record."""
    stderr = stdout.with_suffix(".stderr")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, env=_child_env(src), cwd=ROOT
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = None if proc.returncode == 0 else f"exit {proc.returncode}"
    return Invocation(name, wall, error, usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


def _check(job: Job, out_dir: Path, golden: dict[str, str]) -> str | None:
    for check in job.checks:
        error = check_output(check, out_dir, golden)
        if error is not None:
            return error
    return None


def _clear(job: Job, out_dir: Path) -> None:
    for name in job.outputs:
        (out_dir / name).unlink(missing_ok=True)


def cli_iteration(jobs, out_dir: Path, golden, deadline: float,
                  src: Path = SRC) -> list[Invocation]:
    """Every job once as ``python -m ropelab.cli`` of ``src``, in the given order."""
    results = []
    for job in jobs:
        _clear(job, out_dir)
        result = _spawn(job.name, ["-m", "ropelab.cli", *job.args(out_dir)],
                        out_dir / job.stdout, deadline, src)
        result.error = result.error or _check(job, out_dir, golden)
        results.append(result)
    return results


def traced_iteration(jobs, out_dir: Path, golden, tracer: Tracer) -> list[Invocation]:
    """Every job once as an in-process ``ropelab.cli.main(argv)`` span, layers traced."""
    import ropelab.cli

    results = []
    for job in jobs:
        _clear(job, out_dir)
        tracer.job += 1
        with open(out_dir / job.stdout, "w", encoding="utf-8") as out, redirect_stdout(out):
            try:
                # the output checks below also call ropelab, so only the job is traced
                with instrument(tracer), tracer.span("cli.main") as span:
                    code = ropelab.cli.main(job.args(out_dir))
                    span.error = code != 0
                error = None if code == 0 else f"exit {code}"
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed job, not a failed run
                error = f"raised {exc!r}"
        error = error or _check(job, out_dir, golden)
        results.append(Invocation(job.name, span.duration, error))
    return results


def _setup_probe(out_dir: Path, deadline: float, src: Path = SRC) -> Invocation:
    return _spawn("setup", ["-c", "import ropelab.cli"], out_dir / "setup.stdout", deadline, src)


def _end_to_end(jobs, order_rng, out_dir: Path, golden, stop: float, deadline: float):
    """Paired rounds; returns the program's and the reference's invocations by
    job, and the setup probes."""
    ref_dir = out_dir / "reference"
    ref_dir.mkdir(exist_ok=True)
    # untimed warm-up: both copies write their bytecode before anything is timed
    for src in (SRC, REFERENCE):
        _setup_probe(ref_dir, deadline, src)

    # each job flips which side runs first from one pair to the next
    flip = {job.name: order_rng.random() < 0.5 for job in jobs}
    program = {job.name: [] for job in jobs}
    reference = {job.name: [] for job in jobs}
    probes, pair_s = [], {}
    while True:
        order = list(jobs)
        order_rng.shuffle(order)
        for job in order:
            if len(pair_s) == len(jobs) and time.monotonic() + pair_s[job.name] > stop:
                return program, reference, probes
            pair_start = time.monotonic()
            probes.append(_setup_probe(out_dir, deadline))
            sides = [(SRC, out_dir, program), (REFERENCE, ref_dir, reference)]
            flip[job.name] = not flip[job.name]
            for src, side_dir, side in sides[::-1] if flip[job.name] else sides:
                side[job.name] += cli_iteration([job], side_dir, golden, deadline, src)
            pair_s[job.name] = time.monotonic() - pair_start


def _traced(jobs, order_rng, out_dir: Path, golden, stop: float, deadline: float):
    """Alternate CLI and traced in-process rounds; returns the invocations, the
    CLI rounds' wall times, the per-round layer metrics and the setup probes."""
    invocations, probes, walls, layer_stats, round_s = [], [], [], [], []
    tracer = Tracer()
    while True:
        round_start = time.monotonic()
        probes += [_setup_probe(out_dir, deadline) for _ in range(SETUP_PROBES)]
        order = list(jobs)
        order_rng.shuffle(order)
        results = cli_iteration(order, out_dir, golden, deadline)
        invocations += results
        walls.append(sum(inv.wall_s for inv in results))
        # an in-process job cannot be killed, so trace only when it should fit
        if time.monotonic() + walls[-1] < deadline:
            tracer.spans.clear()
            invocations += traced_iteration(order, out_dir, golden, tracer)
            layer_stats.append(summarize(tracer.spans, _check_names()))
        now = time.monotonic()
        round_s.append(now - round_start)
        if now + statistics.median(round_s) > stop:
            return invocations, walls, layer_stats, probes


def _total_wall(by_job: dict[str, list[Invocation]]) -> float:
    return sum(inv.wall_s for runs in by_job.values() for inv in runs)


def measure(workload: str, seed: int, seconds: float, trace: bool, tier: Tier = FULL) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    stop = min(start + seconds, deadline)
    jobs, order_rng = make_jobs(workload, tier, seed)
    golden = load_golden(tier)
    out_dir = WORK / workload
    out_dir.mkdir(parents=True, exist_ok=True)

    if trace:
        invocations, walls, layer_stats, probes = _traced(
            jobs, order_rng, out_dir, golden, stop, deadline)
        if not layer_stats:
            raise RuntimeError(f"no traced round of {workload} fit in {RUN_LIMIT_S} s")
        wall_s = statistics.median(walls)
        setup_s = statistics.median(inv.wall_s for inv in probes)
        metrics = {
            key: {"value": statistics.median(s[key] for s in layer_stats), "unit": unit}
            for key, unit in layer_metrics(_check_names()).items()
        }
        metrics["trace.unaccounted_s"]["value"] = (
            wall_s - len(jobs) * setup_s - metrics["cli.main.busy_s"]["value"]
        )
        rounds = f"{len(walls)} rounds"
    else:
        program, reference, probes = _end_to_end(
            jobs, order_rng, out_dir, golden, stop, deadline)
        invocations = [inv for side in (program, reference) for r in side.values() for inv in r]
        # one round's wall time, from each job's median over the run
        wall_s = sum(statistics.median(inv.wall_s for inv in runs) for runs in program.values())
        setup_s = statistics.median(inv.wall_s for inv in probes)
        values = {
            # every pair adds to both sums, so each job weighs the same on both sides
            "wall_ratio": _total_wall(program) / _total_wall(reference),
            "setup_s": setup_s,
            "peak_rss_mb": max(inv.maxrss_kb for r in program.values() for inv in r) / 1024,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
        rounds = f"{min(map(len, program.values()))}-{max(map(len, program.values()))} pairs a job"

    invocations += probes
    failed = [inv for inv in invocations if inv.error is not None]
    for inv in failed:
        print(f"FAILED {workload} {inv.name}: {inv.error}", file=sys.stderr)
    _report(workload, seed, rounds, wall_s, len(probes), invocations, failed, metrics)
    return {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": metrics,
    }


def reference_digest() -> str:
    """sha256 over the reference's Python files, each with its relative path."""
    digest = hashlib.sha256()
    for path in sorted(REFERENCE.rglob("*.py")):
        digest.update(path.relative_to(REFERENCE).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _check_names() -> tuple[str, ...]:
    import ropelab.selfcheck

    return tuple(name for name, _ in ropelab.selfcheck.CHECKS)


def _report(workload, seed, rounds, wall_s, probe_count, invocations, failed, metrics) -> None:
    cpu = sum(inv.cpu_s for inv in invocations)
    print(f"{workload}: seed {seed}, {rounds}, {probe_count} setup probes, "
          f"child cpu {cpu:.2f} s")
    print(f"  {'wall_s (program, one round)':<48} {wall_s:.6g} s")
    for key, metric in metrics.items():
        print(f"  {key:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_rate':<48} {len(failed) / len(invocations):.6g} ratio "
          f"({len(failed)} of {len(invocations)} invocations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ropelab" / "cli.py").is_file():
        print(f"error: no ropelab sources under {SRC}", file=sys.stderr)
        return 2
    if reference_digest() != REFERENCE_SHA256:
        print(f"error: the reference under {REFERENCE} is not the frozen copy", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{key}": metric for w, r in results.items() for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
