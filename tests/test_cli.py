"""CLI tests: golden outputs, exit codes, determinism, SVG rendering."""

import contextlib
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ropelab
from ropelab import cli, csvblock, rotary
from ropelab import (
    SCHEME_IDS,
    RopelabError,
    SchemeConfig,
    TextSegment,
    TrialConfig,
    build_layout,
    heatmap,
    heatmap_csv,
    heatmap_svg,
    heatmap_svg_blocks,
    layout_csv,
    monte_carlo_heatmap,
    parse_layout_csv,
    parse_layout_spec,
    softmax_grid,
    VideoGrid,
    VideoSegment,
    boundary_csv,
    boundary_score_table,
)
from ropelab.cli import BOUNDARY_PROMPT_TOKENS, _heatmap_query, main
from ropelab.diagnostics import ScoreGrid

from oracles import heatmap_svg_ref

# bench/workloads.py's large positions tier: 151,577 tokens, a 6.3 MB vrope CSV
LARGE_LAYOUT = "text:16,video:24x24x256,text:8,video:8x8x64,text:1"

POSITIONS_GOLDEN = (
    "token_index,modality,segment_index,w,h,t,dim0,dim1,dim2,dim3\n"
    "0,text,0,,,,0,0,0,0\n"
    "1,text,0,,,,1,1,1,1\n"
    "2,video,1,0,0,0,2,3,4,3\n"
    "3,video,1,1,0,0,3,4,3,2\n"
    "4,video,1,0,1,0,3,2,3,4\n"
    "5,video,1,1,1,0,4,3,2,3\n"
    "6,text,2,,,,5,5,5,5\n"
)

DECAY_GOLDEN = "delta,value\n0,1.000000\n1,0.540302\n2,-0.416147\n3,-0.989992\n"

# sha256 of the stdout of `heatmap --mc --video 3x2x2 --frame 1 --d 16 --trials 500`
# per (scheme, --seed); 2**32 + 7 is a two-word seed. A version that changes
# any Monte-Carlo output bytes must update these and say so in CHANGES.md.
MC_STDOUT_SHA256 = {
    ("rope1d", 7): "64d8bf6919165c81ab9ccfc0e21b517cea00b6b2df988eb6169604a4fcc0da24",
    ("rope2d", 7): "77082acf6906e8c05c65f567dec41f0583444b73c4a28d5fa08bc644ed1136fc",
    ("rope3d", 7): "a1ef2b5bbbfc1d131f9bd073aee7fde3d88ac6069960476f9dd5ae03fe45201c",
    ("rope_share", 7): "5ffa63acc9ec4fbd5d47326e83f7c66cd51a5c72dd164457b488c9a60ebbe18e",
    ("rope_compact", 7): "bc169c48615934f3b6c4900dde1caf6822ac4b50eb01452d80d164c1e5b335b7",
    ("vrope", 7): "4c5626880a55f97283375df78a0f7b57e5b8072f6d9caa236aca71caff32252a",
    ("rope1d", 4294967303): "42afd8ce7e09ecd2318141a4274e1e447387ce6533f15671ee70784b7c5424c3",
    ("rope2d", 4294967303): "bdb16e804bd3cef08662f25a4189ff96d3c842a5881d886e0c3577fb271d5803",
    ("rope3d", 4294967303): "63ead15de7e0d61aa348510d2353c8df0d77cb532d626d9f6c3b70e87f6dfa27",
    ("rope_share", 4294967303): "527c62b983e9626e8d3a91fe2366ee014593f4ad5a7d97559cf20627507283cb",
    ("rope_compact", 4294967303): "9482e46d900f907e4c068368e24e083b825b65c924e66d766ffe99ccf155e0dd",
    ("vrope", 4294967303): "f836d46ef8728eaa5f61b3963b970d44f5126841b1297fb37de1af82aa64872c",
}


# argv pieces for the CLI property: numbers at the edges of each parser and check
EDGE_NUMBERS = (
    "0", str(2**53 - 1), str(2**53), str(2**53 + 1), str(2**64 - 1), str(2**64),
    str(2**64 + 1), "1e-320", "1e308", "-1", "1.5", "\uff13", "\u0662",
)
SMALL = st.integers(1, 4).map(str)
NUMBER = st.one_of(SMALL, SMALL, SMALL, st.sampled_from(EDGE_NUMBERS))  # three in four are small
VIDEO = st.one_of(st.tuples(SMALL, SMALL, SMALL), st.tuples(NUMBER, NUMBER, NUMBER)).map("x".join)
PARTITION = st.lists(NUMBER, max_size=5).map(":".join)
LAYOUT = st.lists(
    NUMBER.map("text:{}".format) | VIDEO.map("video:{}".format), min_size=1, max_size=3
).map(",".join)
EVEN = st.sampled_from(("2", "4", "8", "16"))
# an accepted 2**64 trials would run without end; 0 and 2**64 + 1 are refused
ACCEPTED_TRIALS = st.integers(1, 64).map(str)
TRIALS = st.one_of(ACCEPTED_TRIALS, ACCEPTED_TRIALS, st.sampled_from(("0", str(2**64 + 1))))


def _argv(*parts):
    """An argv strategy: each part is a list of words or a strategy of one."""
    lists = [st.just(part) if isinstance(part, list) else part for part in parts]
    return st.tuples(*lists).map(lambda words: sum(words, []))


def _flag(name, values):
    """``[name, value]``, or as often no flag."""
    return st.just([]) | values.map(lambda value: [name, value])


SCHEME = st.sampled_from(SCHEME_IDS).map(lambda scheme: ["--scheme", scheme])
NUMERIC_FLAGS = (
    _flag("--d", st.one_of(EVEN, EVEN, NUMBER)),
    _flag("--base", st.just("10000") | NUMBER),
)
HEATMAP_FLAGS = (
    SCHEME,
    VIDEO.map(lambda video: ["--video", video]),
    _flag("--frame", st.integers(0, 3).map(str) | NUMBER),
    _flag("--query-gap", NUMBER),
    _flag("--partition", PARTITION),
    st.sampled_from(([], ["--softmax"])),
    *NUMERIC_FLAGS,
)
ARGV = st.one_of(
    _argv(
        ["positions"], SCHEME, LAYOUT.map(lambda spec: ["--layout", spec]),
        _flag("--partition", PARTITION), *NUMERIC_FLAGS,
    ),
    _argv(["heatmap"], *HEATMAP_FLAGS),
    _argv(
        ["heatmap", "--mc"], *HEATMAP_FLAGS, _flag("--seed", NUMBER),
        TRIALS.map(lambda trials: ["--trials", trials]),
    ),
    _argv(["decay"], NUMBER.map(lambda delta: ["--max-delta", delta]), *NUMERIC_FLAGS),
    _argv(
        ["boundary"],
        st.sampled_from(SCHEME_IDS + ("all",)).map(lambda scheme: ["--scheme", scheme]),
        VIDEO.map(lambda video: ["--video", video]),
        _flag("--partition", PARTITION),
        *NUMERIC_FLAGS,
    ),
)


class TestPositions:
    def test_golden_stdout(self, capsys):
        rc = main(["positions", "--scheme", "vrope", "--layout", "text:2,video:2x2x1,text:1"])
        assert rc == 0
        assert capsys.readouterr().out == POSITIONS_GOLDEN

    def test_golden_file(self, tmp_path):
        out = tmp_path / "positions.csv"
        rc = main(
            ["positions", "--scheme", "vrope", "--layout", "text:2,video:2x2x1,text:1",
             "--out", str(out)]
        )
        assert rc == 0
        assert out.read_bytes() == POSITIONS_GOLDEN.encode("utf-8")

    def test_round_trip_reconstructs_layout(self, capsys):
        spec = "text:1,video:3x2x2,text:2"
        main(["positions", "--scheme", "rope_compact", "--layout", spec])
        csv_text = capsys.readouterr().out
        layout = build_layout(parse_layout_spec(spec), SchemeConfig("rope_compact", d=64))
        assert parse_layout_csv(csv_text) == layout.tokens

    def test_partition_accepted_for_rope_compact(self, capsys):
        spec = "text:1,video:3x2x2,text:2"
        rc = main(
            ["positions", "--scheme", "rope_compact", "--layout", spec, "--d", "16",
             "--partition", "4:2:2"]
        )
        assert rc == 0
        config = SchemeConfig("rope_compact", d=16, partition=(4, 2, 2))
        assert capsys.readouterr().out == layout_csv(build_layout(parse_layout_spec(spec), config))

    def test_partition_accepted_for_rope2d(self, capsys):
        rc = main(
            ["positions", "--scheme", "rope2d", "--layout", "text:1", "--d", "8",
             "--partition", "2:2"]
        )
        assert rc == 0
        config = SchemeConfig("rope2d", d=8, partition=(2, 2))
        assert capsys.readouterr().out == layout_csv(build_layout([TextSegment(1)], config))

    def test_byte_identical_across_runs(self, capsys):
        args = ["positions", "--scheme", "rope3d", "--layout", "video:2x3x2,text:2"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_streamed_bytes_equal_layout_csv(self, scheme, tmp_path, capsys, monkeypatch):
        # two 4225-cell frames: every block size cuts each frame into row ranges
        spec = "text:3,video:65x65x2,text:1"
        out = tmp_path / "positions.csv"
        for rows in (1, 7, 4096):
            monkeypatch.setattr(csvblock, "BLOCK_ROWS", rows)
            expected = layout_csv(build_layout(parse_layout_spec(spec), SchemeConfig(scheme)))
            args = ["positions", "--scheme", scheme, "--layout", spec]
            assert main([*args, "--out", str(out)]) == 0
            assert out.read_bytes() == expected.encode("utf-8")
            assert main([*args, "--out", "-"]) == 0
            assert capsys.readouterr().out == expected

    def test_peak_memory_does_not_grow_with_the_csv(self, tmp_path):
        out = tmp_path / "positions.csv"
        args = ["positions", "--scheme", "vrope", "--layout", LARGE_LAYOUT, "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 6 * 2**20
        # the whole CSV held as blocks, joined and encoded peaks near 12.8 MB
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("frames", [1, 2])
    def test_peak_memory_does_not_grow_with_a_frame(self, tmp_path, frames):
        # 250,000-cell frames, 10 MB of CSV each: what is held beside a block must not grow with
        # a frame, nor with a second frame that repeats the first one's in-frame rows
        out = tmp_path / "positions.csv"
        layout = f"text:1,video:500x500x{frames},text:1"
        args = ["positions", "--scheme", "vrope", "--layout", layout, "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > frames * 9 * 2**20
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("read", [0, 100])
    def test_closed_stdout_pipe_exits_3(self, read):
        # 1.3 MB of CSV, far more than a pipe holds, so the CLI is still writing
        _assert_closed_stdout_pipe_exits_3(
            ["positions", "--scheme", "vrope", "--layout", "text:2,video:64x64x8,text:1"], read
        )


def _assert_closed_stdout_pipe_exits_3(args, read):
    """The CLI run with ``args`` exits 3, with one ``error:`` line, when its reader
    takes ``read`` bytes of stdout and closes the pipe."""
    # buffered stdout, as it is unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ropelab.__file__).parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "ropelab.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 3
    lines = stderr.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines
    assert len(lines) == 1 and "Exception ignored" not in stderr


class TestDecay:
    def test_golden_stdout(self, capsys):
        rc = main(["decay", "--d", "2", "--base", "10000", "--max-delta", "3"])
        assert rc == 0
        assert capsys.readouterr().out == DECAY_GOLDEN

    def test_golden_file(self, tmp_path):
        out = tmp_path / "decay.csv"
        rc = main(["decay", "--d", "2", "--base", "10000", "--max-delta", "3", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == DECAY_GOLDEN.encode("utf-8")

    @pytest.mark.parametrize("base", ["1e4", "10000.0", "+1E4", ".1e5", " 10000 "])
    def test_base_decimal_forms(self, base, capsys):
        rc = main(["decay", "--d", "2", "--base", base, "--max-delta", "3"])
        assert rc == 0
        assert capsys.readouterr().out == DECAY_GOLDEN

    @pytest.mark.parametrize("read", [0, 100])
    def test_closed_stdout_pipe_exits_3(self, read):
        # about 3 MB of CSV, written whole through the same output as positions' blocks
        _assert_closed_stdout_pipe_exits_3(["decay", "--d", "64", "--max-delta", "200000"], read)


class TestHeatmap:
    def test_matches_library_values(self, capsys):
        rc = main(["heatmap", "--scheme", "vrope", "--video", "3x3x1", "--d", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        config = SchemeConfig("vrope", d=8)
        expected = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        assert lines[0] == "w,h,value"
        for line in lines[1:]:
            w, h, value = line.split(",")
            assert value == f"{expected.values[int(w), int(h)]:.6f}"

    def test_query_gap_shifts_query(self, capsys):
        main(["heatmap", "--scheme", "vrope", "--video", "3x3x1", "--d", "8", "--query-gap", "3"])
        lines = capsys.readouterr().out.splitlines()
        expected = heatmap(SchemeConfig("vrope", d=8), VideoGrid(3, 3, 1), 0, (7, 7, 7, 7))
        w, h, value = lines[1].split(",")
        assert value == f"{expected.values[0, 0]:.6f}"

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_query_is_last_token_after_video(self, scheme):
        config = SchemeConfig(scheme, d=8)
        grid = VideoGrid(3, 2, 4)
        layout = build_layout([VideoSegment(grid), TextSegment(5)], config)
        assert _heatmap_query(config, grid, 5) == layout.tokens[-1].position

    def test_last_frame_of_long_video_scores_true_delta(self, capsys):
        # query at 64e6, cell (0, 0) of the last frame at 64e6 - 64
        argv = ["heatmap", "--scheme", "rope1d", "--video", "8x8x1000000", "--d", "8"]
        assert main(argv + ["--frame", "999999"]) == 0
        cell = capsys.readouterr().out.splitlines()[1]
        main(["decay", "--d", "8", "--max-delta", "64"])
        assert cell == "0,0," + capsys.readouterr().out.splitlines()[-1].split(",")[1]

    def test_svg_written(self, tmp_path, capsys):
        svg_path = tmp_path / "grid.svg"
        rc = main(
            ["heatmap", "--scheme", "vrope", "--video", "2x2x1", "--d", "8",
             "--svg", str(svg_path)]
        )
        capsys.readouterr()
        assert rc == 0
        text = svg_path.read_text(encoding="utf-8")
        assert text.count("<rect") == 4
        assert text.count("<text") == 4
        assert "0,0" in text

    def test_monte_carlo_deterministic(self, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(
                ["heatmap", "--scheme", "rope3d", "--video", "2x2x2", "--d", "8",
                 "--mc", "--seed", "42", "--trials", "200", "--out", str(out)]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scheme,seed", list(MC_STDOUT_SHA256))
    def test_monte_carlo_stdout_pinned(self, scheme, seed, capsys):
        argv = ["heatmap", "--mc", "--scheme", scheme, "--video", "3x2x2", "--frame", "1",
                "--d", "16", "--trials", "500", "--seed", str(seed)]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == MC_STDOUT_SHA256[scheme, seed]

    def test_softmax_flag(self, capsys):
        rc = main(["heatmap", "--scheme", "vrope", "--video", "2x2x1", "--d", "8", "--softmax"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        total = sum(float(line.split(",")[2]) for line in lines)
        assert abs(total - 1.0) < 1e-5

    def test_monte_carlo_reads_d_and_base_from_scheme(self, capsys):
        argv = ["heatmap", "--scheme", "rope3d", "--video", "3x2x2", "--frame", "1",
                "--d", "8", "--base", "500"]
        assert main(argv + ["--mc", "--seed", "3", "--trials", "10000"]) == 0
        sampled = capsys.readouterr().out
        config = SchemeConfig("rope3d", d=8, base=500.0)
        video = VideoGrid(3, 2, 2)
        query = _heatmap_query(config, video, 1)
        library = monte_carlo_heatmap(config, video, 1, query, TrialConfig(seed=3, trials=10000))
        assert sampled == heatmap_csv(library)
        assert main(argv) == 0
        exact = [float(line.split(",")[2]) for line in capsys.readouterr().out.splitlines()[1:]]
        values = [float(line.split(",")[2]) for line in sampled.splitlines()[1:]]
        assert np.max(np.abs(np.array(values) - exact)) < 0.02

    def test_partition_accepted_for_rope3d(self, capsys):
        rc = main(
            ["heatmap", "--scheme", "rope3d", "--video", "2x2x2", "--d", "16",
             "--partition", "4:2:2"]
        )
        assert rc == 0
        capsys.readouterr()


class TestBoundary:
    def test_single_scheme(self, capsys):
        rc = main(["boundary", "--scheme", "vrope", "--video", "2x2x2", "--d", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "scheme,target,mean_score"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["vrope", "video"],
            ["vrope", "text"],
        ]

    def test_all_schemes_ordered(self, capsys):
        rc = main(["boundary", "--scheme", "all", "--video", "2x2x2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 * len(SCHEME_IDS)
        schemes = [line.split(",")[0] for line in lines[1:]]
        assert schemes == [s for s in SCHEME_IDS for _ in range(2)]


    # a cubic grid such as 2x2x2 scores the same under every rope3d partition,
    # since its t, h and w offsets take the same values, so only 4x3x2 can differ
    @pytest.mark.parametrize("video", [(2, 2, 2), (4, 3, 2)])
    def test_partition_reaches_the_score_table(self, video, capsys):
        argv = ["boundary", "--scheme", "rope3d", "--video", "x".join(map(str, video))]
        video_segment = VideoSegment(VideoGrid(*video))
        segments = [TextSegment(BOUNDARY_PROMPT_TOKENS), video_segment, TextSegment(1)]
        outputs = []
        for partition in (None, (16, 8, 8)):
            flag = [] if partition is None else ["--partition", "16:8:8"]
            assert main(argv + flag) == 0
            outputs.append(capsys.readouterr().out)
            config = SchemeConfig("rope3d", d=64, partition=partition)
            assert outputs[-1] == boundary_csv(boundary_score_table(build_layout(segments, config)))
        if video == (4, 3, 2):
            assert outputs[1] != outputs[0]

    def test_partition_with_all_schemes_exits_2(self, capsys):
        # every scheme gets the partition, and vrope takes none
        rc = main(["boundary", "--scheme", "all", "--video", "2x2x2", "--partition", "16:8:8"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestSelfcheck:
    def test_exits_zero(self, capsys):
        rc = main(["selfcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("ok") >= 15

    def test_fails_under_python_O(self):
        # -O strips the checks' assert statements, so a run there would pass vacuously
        env = {**os.environ, "PYTHONPATH": str(Path(ropelab.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-O", "-m", "ropelab.cli", "selfcheck"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1
        (line,) = result.stdout.splitlines()
        assert line.startswith("FAIL selfcheck: python -O") and "assert" in line

    def test_closed_stdout_pipe_exits_3(self):
        # the report is written whole at the end, so only a reader that takes none of it sees a closed pipe
        _assert_closed_stdout_pipe_exits_3(["selfcheck"], 0)


class TestExitCodes:
    def test_unknown_scheme_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["positions", "--scheme", "rope9d", "--layout", "text:1"])
        assert excinfo.value.code == 2

    def test_bad_video_string_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["heatmap", "--scheme", "vrope", "--video", "2x2"])
        assert excinfo.value.code == 2

    def test_bad_layout_spec_exits_2(self, capsys):
        rc = main(["positions", "--scheme", "vrope", "--layout", "video:0x2x2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_partition_with_wrong_scheme_exits_2(self, capsys):
        rc = main(
            ["positions", "--scheme", "vrope", "--layout", "text:1", "--partition", "2:1:1"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "vrope does not take a partition" in captured.err

    # SchemeConfig's rule decides: rope2d takes two sizes, rope1d and rope_share none
    @pytest.mark.parametrize("scheme", ["rope2d", "rope1d", "rope_share"])
    def test_partition_refused_by_scheme_config_exits_2(self, scheme, capsys):
        rc = main(
            ["positions", "--scheme", scheme, "--layout", "text:1", "--d", "8",
             "--partition", "2:1:1"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {scheme} " in captured.err

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEME_IDS),
        sizes=st.lists(st.integers(0, 5), min_size=1, max_size=5),
    )
    def test_partition_exits_0_iff_scheme_config_accepts(self, scheme, sizes):
        try:
            SchemeConfig(scheme, d=8, partition=sizes)
            accepted = True
        except RopelabError:
            accepted = False
        argv = ["positions", "--scheme", scheme, "--layout", "text:1", "--d", "8",
                "--partition", ":".join(map(str, sizes))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if accepted:
            assert rc == 0 and out.getvalue().startswith("token_index,")
        else:
            assert rc == 2 and out.getvalue() == "" and err.getvalue().startswith("error: ")

    @settings(max_examples=500, deadline=None)
    @given(argv=ARGV)
    def test_any_argv_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        # a small budget keeps every accepted job small; refusals still exit 2
        with mock.patch.object(rotary, "MAX_ARRAY_ELEMENTS", 2**12):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    rc = exc.code
        assert rc in (0, 2, 3), err.getvalue()
        if rc == 2:
            assert out.getvalue() == ""
        if rc != 0:
            return
        lines = out.getvalue().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        fields = [f for row in rows for f in row if f not in ("", "text", "video", *SCHEME_IDS)]
        assert all(np.isfinite(float(field)) for field in fields)
        if argv[0] == "boundary" or (argv[0] == "heatmap" and "--mc" not in argv):
            assert all(-1 <= float(row[-1]) <= 1 for row in rows)

    def test_incompatible_dimension_exits_2(self, capsys):
        rc = main(["positions", "--scheme", "vrope", "--layout", "text:1", "--d", "6"])
        assert rc == 2
        capsys.readouterr()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        rc = main(["decay", "--d", "2", "--max-delta", "1", "--out", str(missing)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_unwritable_svg_exits_3_with_empty_stdout(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.svg"
        rc = main(["heatmap", "--scheme", "rope3d", "--video", "2x2x1", "--d", "8",
                   "--svg", str(missing)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("base", ["nan", "inf", "-inf"])
    def test_non_finite_base_exits_2(self, base, capsys):
        rc = main(["decay", "--max-delta", "3", f"--base={base}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    # base**(-(d-2)/d), the largest frequency, overflows: every score would be nan;
    # in the last case only its product with a 2**54 position delta overflows
    @pytest.mark.parametrize(
        "argv",
        [
            ["heatmap", "--scheme", "rope1d", "--video", "2x2x1", "--base", "1e-320"],
            ["decay", "--max-delta", "2", "--base", "1e-320"],
            ["boundary", "--scheme", "rope3d", "--video", "2x2x2", "--base", "1e-320"],
            [
                "heatmap", "--scheme", "rope_share", "--video", "1x1x1000000000000000",
                "--frame", "0", "--base", "1e-305", "--d", "64",
            ],
        ],
    )
    def test_tiny_base_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "too small" in captured.err

    def test_tiny_base_with_one_pair_is_fine(self, capsys):
        assert main(["decay", "--max-delta", "2", "--d", "2", "--base", "1e-320"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,1.000000"

    def test_non_ascii_layout_digit_exits_2(self, capsys):
        rc = main(["positions", "--scheme", "rope1d", "--layout", "text:\uff13"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["heatmap", "--scheme", "vrope", "--video", "\uff12x2x1", "--d", "8"],
            ["positions", "--scheme", "rope3d", "--layout", "text:1", "--partition", "\u0662:1:1"],
            ["decay", "--max-delta", "\uff13"],
            ["decay", "--max-delta", "2", "--d", "\uff16\uff14"],
            ["heatmap", "--scheme", "vrope", "--video", "2x2x1", "--d", "8", "--frame", "\uff10"],
            ["heatmap", "--scheme", "vrope", "--video", "2x2x1", "--d", "8", "--query-gap", "\u0661"],
            ["heatmap", "--scheme", "vrope", "--video", "2x2x1", "--d", "8", "--mc", "--seed", "\uff17"],
            ["heatmap", "--scheme", "vrope", "--video", "2x2x1", "--d", "8", "--mc", "--trials", "\uff15"],
            ["decay", "--max-delta", "2", "--base", "\uff11\uff10"],
            ["decay", "--max-delta", "2", "--base", " 1_0 "],
        ],
    )
    def test_non_ascii_flag_digits_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    # each would allocate more than 1 TB without the element budget
    @pytest.mark.parametrize(
        "argv",
        [
            ["positions", "--scheme", "vrope", "--layout", "video:100000x100000x100000"],
            ["heatmap", "--scheme", "vrope", "--video", "100000x100000x1"],
            ["decay", "--max-delta", "2", "--d", "100000000000"],
            ["decay", "--max-delta", "100000000000"],
            ["positions", "--scheme", "rope3d", "--layout", "video:100000x100000x10"],
            # positions past 2**53, where int64 wraps and float64 is no longer exact
            ["heatmap", "--scheme", "rope1d", "--video", "8x8x1000000000000000000",
             "--frame", "999999999999999999", "--d", "8"],
            ["heatmap", "--scheme", "rope1d", "--video", "4000000000x4000000000x2"],
        ],
    )
    def test_over_element_budget_exits_2(self, argv, capsys):
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "budget" in captured.err

    @pytest.mark.parametrize("existing", [None, b"kept\n"])
    def test_over_element_budget_leaves_out_file_as_it_was(self, existing, tmp_path, capsys):
        out = tmp_path / "positions.csv"
        if existing is not None:
            out.write_bytes(existing)
        args = ["positions", "--scheme", "vrope", "--layout", "video:100000x100000x100000"]
        assert main([*args, "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert (out.read_bytes() if out.exists() else None) == existing

    # the boundary table reads the segments' grids, so no per-token array is
    # filled and the element budget does not apply
    @pytest.mark.parametrize(
        "scheme,video", [("vrope", "24x24x100000"), ("rope3d", "100000x100000x10")]
    )
    def test_boundary_past_element_budget_exits_0(self, scheme, video, capsys):
        assert main(["boundary", "--scheme", scheme, "--video", video]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[scheme, "video"], [scheme, "text"]]
        scores = np.array([float(row.split(",")[2]) for row in rows])
        assert np.all(np.isfinite(scores)) and np.all(np.abs(scores) <= 1)

    # past 2**53 the float64 deltas from the query to the cells round to one value
    @pytest.mark.parametrize("mode", [[], ["--mc", "--trials", "10"]])
    def test_query_past_position_cap_exits_2(self, mode, capsys):
        argv = ["heatmap", "--scheme", "rope1d", "--video", "2x2x1", "--d", "8", *mode]
        # the first text position after the video is 4; the query is gap - 1 past it
        assert main(argv + ["--query-gap", str(2**53 - 3)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        for gap in (2**53 - 2, 10**20):
            assert main(argv + ["--query-gap", str(gap)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "2**53" in captured.err

    # the trial config is built before anything runs, so nothing is printed
    def test_trials_past_64_bits_exits_2(self, capsys):
        argv = ["heatmap", "--scheme", "rope1d", "--video", "2x2x1", "--d", "8", "--mc"]
        assert main(argv + ["--trials", str(2**64 + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "trials" in captured.err

    def test_frame_out_of_range_exits_2(self, capsys):
        rc = main(["heatmap", "--scheme", "vrope", "--video", "2x2x1", "--d", "8", "--frame", "5"])
        assert rc == 2
        capsys.readouterr()


class TestSvgRendering:
    def test_flat_grid_is_mid_gray(self):
        config = SchemeConfig("rope_share", d=8)
        grid = heatmap(config, VideoGrid(2, 2, 1), 0, (3,))
        svg = heatmap_svg(grid)
        assert svg.count('fill="#808080"') == 4

    def test_extremes_map_to_black_and_white(self):
        config = SchemeConfig("vrope", d=8)
        grid = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        svg = heatmap_svg(grid)
        assert 'fill="#000000"' in svg
        assert 'fill="#ffffff"' in svg

    def test_deterministic(self):
        config = SchemeConfig("vrope", d=8)
        grid = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        assert heatmap_svg(grid) == heatmap_svg(grid)

    def test_values_annotated_in_titles(self):
        config = SchemeConfig("vrope", d=8)
        grid = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        svg = heatmap_svg(grid)
        assert f"<title>{grid.values[0, 0]:.6f}</title>" in svg
        assert np.all(grid.values <= 1.0)

    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_blocks_match_per_cell_reference(self, rows, monkeypatch):
        config = SchemeConfig("vrope", d=8)
        grids = [
            heatmap(config, VideoGrid(w, h, 1), 0, (5, 5, 5, 5)) for w, h in [(1, 1), (3, 5), (64, 33)]
        ]
        grids.append(softmax_grid(grids[-1]))
        # flat, signed zeros, and grays at x.5 exactly (127.5 rounds to 128, 0.5 * 255 / 255 to 0)
        for values in ([[0.25, 0.25], [0.25, 0.25]], [[-0.0, 0.0]], [[0.0, 255.0], [127.5, 0.5]]):
            grids.append(ScoreGrid(np.array(values), config, (5, 5, 5, 5), 0))
        monkeypatch.setattr(csvblock, "BLOCK_ROWS", rows)
        for grid in grids:
            expected = heatmap_svg_ref(grid.values)
            assert heatmap_svg(grid) == expected
            blocks = list(heatmap_svg_blocks(grid))
            assert "".join(blocks) == expected
            # a block per BLOCK_ROWS cells, the first with the header, the last with the end
            assert len(blocks) == -(-grid.values.size // rows)

    def test_streamed_svg_adds_one_block_to_peak_memory(self, tmp_path):
        # a 65,536-cell frame: 13 MB of SVG, which the whole text would add to the peak
        svg = tmp_path / "grid.svg"
        argv = ["heatmap", "--scheme", "rope1d", "--video", "256x256x1", "--d", "2", "--out", os.devnull]
        peaks = []
        for extra in ([], ["--svg", str(svg)]):
            tracemalloc.start()
            try:
                assert main(argv + extra) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert svg.stat().st_size > 12 * 2**20
        assert peaks[1] - peaks[0] < 4 * 2**20


class TestImport:
    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy imports numpy.random lazily; loading it at import would add to
        # every job's start time and to the peak RSS of jobs that never sample.
        # dataclasses is left out too: its decorator compiles each class's methods
        # at import, about 5 ms over ropelab's value types
        env = {**os.environ, "PYTHONPATH": str(Path(ropelab.__file__).parents[1])}
        code = "import sys, ropelab.cli; print(sorted({'numpy.random', 'dataclasses'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout == "[]\n"


class TestEntryPoint:
    def test_run_freezes_once_then_exits_with_mains_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
        with pytest.raises(SystemExit) as excinfo:
            cli.run()
        assert excinfo.value.code == 7
        assert calls == ["freeze", "main"]

    def test_main_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert main(["decay", "--d", "2", "--max-delta", "3"]) == 0
        assert capsys.readouterr().out == DECAY_GOLDEN
        assert gc.get_freeze_count() == before

    def test_import_freezes_nothing(self):
        env = {**os.environ, "PYTHONPATH": str(Path(ropelab.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", "import gc, ropelab.cli; print(gc.get_freeze_count())"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout == "0\n"

    def test_both_ways_of_starting_the_program_call_run(self):
        # read as text: tomllib is not in Python 3.10
        assert Path(cli.__file__).read_text().endswith('\nif __name__ == "__main__":\n    run()\n')
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert re.findall(r"^ropelab\s*=.*$", scripts, re.M) == ['ropelab = "ropelab.cli:run"']
