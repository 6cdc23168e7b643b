"""CLI tests: golden outputs, exit codes, determinism, SVG rendering."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ropelab
from ropelab import (
    SCHEME_IDS,
    SchemeConfig,
    TextSegment,
    TrialConfig,
    build_layout,
    heatmap,
    heatmap_csv,
    heatmap_svg,
    layout_csv,
    monte_carlo_heatmap,
    parse_layout_csv,
    parse_layout_spec,
    VideoGrid,
    VideoSegment,
)
from ropelab.cli import _heatmap_query, main

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

    def test_byte_identical_across_runs(self, capsys):
        args = ["positions", "--scheme", "rope3d", "--layout", "video:2x3x2,text:2"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


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


class TestSelfcheck:
    def test_exits_zero(self, capsys):
        rc = main(["selfcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("ok") >= 15


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

    def test_incompatible_dimension_exits_2(self, capsys):
        rc = main(["positions", "--scheme", "vrope", "--layout", "text:1", "--d", "6"])
        assert rc == 2
        capsys.readouterr()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        rc = main(["decay", "--d", "2", "--max-delta", "1", "--out", str(missing)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

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


class TestImport:
    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy imports numpy.random lazily; loading it at import would add to
        # every job's start time and to the peak RSS of jobs that never sample
        env = {**os.environ, "PYTHONPATH": str(Path(ropelab.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", "import sys, ropelab.cli; print('numpy.random' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout == "False\n"
