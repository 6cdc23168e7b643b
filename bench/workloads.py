"""Benchmark workloads: the ropelab CLI jobs each one runs, and the checks on their outputs.

Sizes are part of a workload's definition and never depend on the seed, so
the golden bytes in ``golden.json`` stay comparable between commits. The
seed picks the Monte-Carlo ``--seed`` values and the job order of every
round. The ``tiny`` tier repeats the same job list at toy sizes for the
harness self-test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

SCHEMES = ("rope1d", "rope2d", "rope3d", "rope_share", "rope_compact", "vrope")
SELFCHECK_COUNT = 18

# selfcheck's Monte-Carlo tolerance at 10000 trials; the standard error scales
# with 1/sqrt(trials), so smaller tiers widen it by the same factor
MC_TOLERANCE = 0.02
MC_TOLERANCE_TRIALS = 10000


@dataclass(frozen=True)
class Tier:
    """Input sizes of one tier of the job list."""

    name: str
    positions_layout: str
    boundary_split_video: str
    boundary_all_video: str
    mc_video: str
    mc_frame: int
    mc_trials: int
    closed_video: str
    closed_frame: int
    max_delta: int


FULL = Tier(
    name="full",
    positions_layout="text:16,video:24x24x256,text:8,video:8x8x64,text:1",
    boundary_split_video="24x24x256",
    boundary_all_video="8x8x64",
    mc_video="8x8x16",
    mc_frame=15,
    mc_trials=10000,
    closed_video="64x64x8",
    closed_frame=7,
    max_delta=100000,
)

TINY = Tier(
    name="tiny",
    positions_layout="text:2,video:2x2x2,text:1",
    boundary_split_video="2x2x2",
    boundary_all_video="1x1x1",
    mc_video="2x2x2",
    mc_frame=1,
    mc_trials=50,
    closed_video="2x2x2",
    closed_frame=1,
    max_delta=50,
)

@dataclass(frozen=True)
class Check:
    """One output check: ``kind`` is sha256, mc, svg or selfcheck."""

    file: str
    kind: str
    params: tuple = ()


@dataclass(frozen=True)
class Job:
    """One ropelab CLI invocation; ``argv`` follows ``python -m ropelab.cli``.

    ``{out}`` in an argument stands for the run's output directory.
    """

    name: str
    argv: tuple[str, ...]
    checks: tuple[Check, ...]

    def args(self, out_dir: Path) -> list[str]:
        return [a.replace("{out}", str(out_dir)) for a in self.argv]

    @property
    def stdout(self) -> str:
        return f"{self.name}.stdout"

    @property
    def outputs(self) -> tuple[str, ...]:
        return (self.stdout,) + tuple(c.file for c in self.checks if c.file != self.stdout)


def _positions(tier: Tier, rng: random.Random) -> list[Job]:
    return [
        Job(
            f"positions_{scheme}",
            ("positions", "--scheme", scheme, "--layout", tier.positions_layout,
             "--out", f"{{out}}/positions_{scheme}.csv"),
            (Check(f"positions_{scheme}.csv", "sha256"),),
        )
        for scheme in SCHEMES
    ]


def _boundary_job(video: str, scheme: str) -> Job:
    name = f"boundary_{video}_{scheme}"
    return Job(
        name,
        ("boundary", "--scheme", scheme, "--video", video, "--out", f"{{out}}/{name}.csv"),
        (Check(f"{name}.csv", "sha256"),),
    )


def _boundary(tier: Tier, rng: random.Random) -> list[Job]:
    # the large grid runs one scheme per invocation, so that each job is short
    # enough to pair closely with its reference run; the small one keeps `all`
    return [_boundary_job(tier.boundary_split_video, scheme) for scheme in SCHEMES] + [
        _boundary_job(tier.boundary_all_video, "all")
    ]


def _diagnostics(tier: Tier, rng: random.Random) -> list[Job]:
    jobs = [Job("selfcheck", ("selfcheck",), (Check("selfcheck.stdout", "selfcheck"),))]
    for scheme in ("rope3d", "vrope"):
        name = f"heatmap_mc_{scheme}"
        mc_seed = rng.randrange(2**32)
        jobs.append(
            Job(
                name,
                ("heatmap", "--scheme", scheme, "--mc", "--video", tier.mc_video,
                 "--frame", str(tier.mc_frame), "--trials", str(tier.mc_trials),
                 "--seed", str(mc_seed), "--out", f"{{out}}/{name}.csv",
                 "--svg", f"{{out}}/{name}.svg"),
                (
                    Check(f"{name}.csv", "mc",
                          (scheme, tier.mc_video, tier.mc_frame, tier.mc_trials)),
                    Check(f"{name}.svg", "svg", (tier.mc_video,)),
                ),
            )
        )
    jobs.append(
        Job(
            "heatmap_vrope",
            ("heatmap", "--scheme", "vrope", "--video", tier.closed_video,
             "--frame", str(tier.closed_frame), "--out", "{out}/heatmap_vrope.csv",
             "--svg", "{out}/heatmap_vrope.svg"),
            (Check("heatmap_vrope.csv", "sha256"), Check("heatmap_vrope.svg", "sha256")),
        )
    )
    jobs.append(
        Job(
            "decay",
            ("decay", "--d", "64", "--max-delta", str(tier.max_delta),
             "--out", "{out}/decay.csv"),
            (Check("decay.csv", "sha256"),),
        )
    )
    return jobs


WORKLOADS = {
    "positions_large": _positions,
    "boundary_all": _boundary,
    "diagnostics_small": _diagnostics,
}


def make_jobs(workload: str, tier: Tier, seed: int) -> tuple[list[Job], random.Random]:
    """The workload's jobs for ``seed``, plus the generator that orders its rounds."""
    rng = random.Random(seed)
    return WORKLOADS[workload](tier, rng), rng


def load_golden(tier: Tier) -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())[tier.name]


def _grid(video: str):
    from ropelab import VideoGrid

    width, height, frames = (int(v) for v in video.split("x"))
    return VideoGrid(width, height, frames)


def _closed_form(scheme: str, video: str, frame: int):
    """The library's closed-form heatmap for the CLI's default query (gap 1, d=64)."""
    from ropelab import SchemeConfig, TextSegment, VideoSegment, build_layout, heatmap

    config = SchemeConfig(scheme, d=64)
    grid = _grid(video)
    query = build_layout([VideoSegment(grid), TextSegment(1)], config).tokens[-1].position
    return heatmap(config, grid, frame, query).values


def _check_mc(data: bytes, scheme: str, video: str, frame: int, trials: int) -> str | None:
    exact = _closed_form(scheme, video, frame)
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "w,h,value":
        return "bad header"
    if len(lines) - 1 != exact.size:
        return f"{len(lines) - 1} rows, expected {exact.size}"
    tolerance = MC_TOLERANCE * (MC_TOLERANCE_TRIALS / trials) ** 0.5
    worst = 0.0
    for line in lines[1:]:
        w, h, value = line.split(",")
        worst = max(worst, abs(float(value) - exact[int(w), int(h)]))
    if not worst < tolerance:
        return f"max |mc - closed form| = {worst:.6f}, tolerance {tolerance:.6f}"
    return None


def _check_svg(data: bytes, video: str) -> str | None:
    grid = _grid(video)
    text = data.decode("utf-8")
    rects = text.count("<rect ")
    if rects != grid.tokens_per_frame or not text.endswith("</svg>\n"):
        return f"{rects} cells, expected {grid.tokens_per_frame} and a closing tag"
    return None


def _check_selfcheck(data: bytes) -> str | None:
    lines = data.decode("utf-8").splitlines()
    ok = sum(line.startswith("ok   ") for line in lines)
    if ok != SELFCHECK_COUNT or len(lines) != SELFCHECK_COUNT:
        return f"{ok} ok lines of {len(lines)}, expected {SELFCHECK_COUNT}"
    return None


def check_output(check: Check, out_dir: Path, golden: dict[str, str]) -> str | None:
    """None if the output is correct, else a one-line reason."""
    path = out_dir / check.file
    try:
        data = path.read_bytes()
    except OSError as exc:
        return f"{check.file}: {exc.strerror}"
    try:
        if check.kind == "sha256":
            digest = hashlib.sha256(data).hexdigest()
            error = None if digest == golden.get(check.file) else f"sha256 {digest[:12]}"
        elif check.kind == "mc":
            error = _check_mc(data, *check.params)
        elif check.kind == "svg":
            error = _check_svg(data, *check.params)
        else:
            error = _check_selfcheck(data)
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        error = f"unparsable: {exc}"
    return None if error is None else f"{check.file}: {error}"
