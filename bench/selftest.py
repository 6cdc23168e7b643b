"""Self-test of the benchmark harness on the tiny tier (2x2x2 videos, 50 trials).

    python3 bench/selftest.py

Run from the repository root. Checks that every metric BENCHMARK.json
names is emitted with its unit, that a corrupted output counts as failed
without stopping the run, and that traced spans nest under one job id.
Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
import time

import run
from tracing import Tracer, summarize
from workloads import TINY, WORKLOADS, Job, check_output, load_golden, make_jobs


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        expected = {metric["name"]: metric["unit"] for metric in spec[section]}
        for workload in WORKLOADS:
            result = run.measure(workload, seed=1, seconds=0.1, trace=trace, tier=TINY)
            _expect(result["correct"] and result["failed"] == 0, f"{workload} failed: {result}")
            emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
            _expect(emitted == expected, f"{workload} {section}: {set(emitted) ^ set(expected)}")


def _corrupt(kind: str, data: bytes) -> bytes:
    if kind == "selfcheck":
        return data.replace(b"ok   ", b"FAIL ", 1)
    if kind == "mc":
        head, _, value = data.rstrip(b"\n").rpartition(b",")
        return head + b",%.6f\n" % (float(value) + 1.0)
    return data[:-20]


def check_corrupted_outputs() -> None:
    golden = load_golden(TINY)
    out_dir = run.WORK / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + run.RUN_LIMIT_S
    for workload in WORKLOADS:
        jobs, _ = make_jobs(workload, TINY, 1)
        for job, result in zip(jobs, run.cli_iteration(jobs, out_dir, golden, deadline)):
            _expect(result.error is None, f"{job.name}: {result.error}")
            for check in job.checks:
                path = out_dir / check.file
                path.write_bytes(_corrupt(check.kind, path.read_bytes()))
                _expect(check_output(check, out_dir, golden) is not None,
                        f"corrupted {check.file} passed its {check.kind} check")

    # a job whose output differs from its golden bytes fails; the others still run
    jobs, _ = make_jobs("positions_large", TINY, 1)
    first = jobs[0]
    jobs[0] = Job(first.name, tuple(a.replace("rope1d", "rope2d") for a in first.argv),
                  first.checks)
    for results in (run.cli_iteration(jobs, out_dir, golden, deadline),
                    run.traced_iteration(jobs, out_dir, golden, Tracer())):
        errors = [r.name for r in results if r.error is not None]
        _expect(len(results) == len(jobs) and errors == [first.name], f"failed jobs {errors}")


def check_span_nesting() -> None:
    import ropelab.cli
    import ropelab.layout

    golden = load_golden(TINY)
    out_dir = run.WORK / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    jobs = [job for workload in WORKLOADS for job in make_jobs(workload, TINY, 1)[0]]
    results = run.traced_iteration(jobs, out_dir, golden, tracer)
    _expect(ropelab.cli.build_layout is ropelab.layout.build_layout, "originals not restored")
    _expect(all(r.error is None for r in results), "a traced job failed")
    roots = [s for s in tracer.spans if s.parent is None]
    _expect([s.name for s in roots] == ["cli.main"] * len(jobs), "a span outside cli.main")
    _expect(len({s.job for s in roots}) == len(jobs), "two jobs share an id")
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            _expect(span.job == parent.job, f"{span.name} crosses jobs")
            _expect(parent.start <= span.start <= span.end <= parent.end, f"{span.name} escapes")
    stats = summarize(tracer.spans, run._check_names())
    for name in ("layout.build_layout", "diagnostics.boundary_score_table",
                 "diagnostics.monte_carlo_heatmap", "svg.heatmap_svg", "cli.write"):
        _expect(stats[f"{name}.calls"] > 0, f"no {name} span")
    _expect(stats["selfcheck.failed"] == 0, "selfcheck failed under tracing")
    _expect(0.0 < stats["trace.coverage"] <= 1.0, f"coverage {stats['trace.coverage']}")


def main() -> int:
    failures = 0
    for check in (check_metric_names, check_corrupted_outputs, check_span_nesting):
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    if not (run.SRC / "ropelab" / "cli.py").is_file():
        sys.exit(f"error: no ropelab sources under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
