"""Command-line behavior: exit codes, file formats, JSON output.

Everything drives main(argv) in-process except one smoke test, which runs
the console script declared in pyproject.toml in a subprocess, and also
runs the installed `confbc` script whenever one is on PATH.
"""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import confbc
import confbc.dm_bounds as dmb
import confbc.gaussian_bounds as gb
import confbc.gridding as gridding
from confbc.channels import GaussianBc, dump_channel, example_channel
from confbc.cli import _build_parser, main
from confbc.regions import (CANONICAL_DIRS_2D, CANONICAL_DIRS_3D, LinearSystem,
                            default_dirs_2d, default_dirs_3d, support_of_system)


@pytest.fixture()
def g_channel(tmp_path):
    path = tmp_path / "g.json"
    dump_channel(GaussianBc(1.0, 0.5, 1.0, 3.0, c12=0.25, c21=0.5), path)
    return str(path)


@pytest.fixture()
def dm_channel(tmp_path):
    path = tmp_path / "dm.json"
    dump_channel(example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.5), path)
    return str(path)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_region_human_output(g_channel, capsys):
    rc = main(["region", "--channel", g_channel, "--bound", "t7",
               "--grid", "0.125"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("support")]
    assert len(lines) == 5                     # the canonical 2-d rows
    assert any("1*R0+1*R1" in l for l in lines)


@pytest.mark.parametrize("n", [1, 2, 181, 512])
def test_default_fans_start_with_the_canonical_rows(n):
    # region's default stdout prints the fan's first rows as the canonical ones
    assert np.array_equal(default_dirs_2d(n)[:len(CANONICAL_DIRS_2D)], CANONICAL_DIRS_2D)
    assert np.array_equal(default_dirs_3d(n)[:len(CANONICAL_DIRS_3D)], CANONICAL_DIRS_3D)


_OUTER_3D = """\
support 1*R0 = 0.653677461
support 1*R1 = 1.5
support 1*R2 = 0.653677461
support 1*R0+1*R1 = 1.5
support 1*R0+1*R2 = 0.653677461
support 1*R1+1*R2 = 1.75
support 1*R0+1*R1+1*R2 = 1.75
support 2*R0+1*R1+1*R2 = 1.96310487
"""
_SLICE_2D = """\
support 1*R0 = 0.653677461
support 1*R1 = 1.5
support 1*R0+1*R1 = 1.5
support 2*R0+1*R1 = 1.96310487
support 1*R0+2*R1 = 3
"""


@pytest.mark.parametrize("bound, extra, golden", [
    ("outer", [], _OUTER_3D), ("outer", ["--dirs", "1"], _OUTER_3D),
    ("outer", ["--r2", "0"], _SLICE_2D), ("outer", ["--r2", "0", "--dirs", "1"], _SLICE_2D),
    # a one-direction 2-d fan is (1, 0) again, printed once
    ("t7", ["--dirs", "1"], _SLICE_2D)],
    ids=["3d", "3d-dirs-1", "r2-slice", "r2-slice-dirs-1", "2d-dirs-1"])
def test_region_default_stdout_golden(g_channel, capsys, bound, extra, golden):
    assert main(["region", "--channel", g_channel, "--bound", bound,
                 "--grid", "0.25"] + extra) == 0
    assert capsys.readouterr().out == golden


def test_region_csv_and_json(g_channel, tmp_path, capsys):
    out_csv = tmp_path / "sup.csv"
    rc = main(["region", "--channel", g_channel, "--bound", "t7",
               "--grid", "0.25", "--out", str(out_csv), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == "t7"
    assert doc["variables"] == ["R0", "R1"]
    assert len(doc["supports"]) == len(doc["directions"])
    rows = list(csv.reader(open(out_csv)))
    assert rows[0] == ["dir0", "dir1", "dir2", "support_bits"]
    assert len(rows) == len(doc["directions"]) + 1
    # all t7 supports on this channel are finite and 9-significant-digit
    for r in rows[1:]:
        float(r[3])


def test_region_json_counts_the_points_swept(dm_channel, capsys):
    # a dm sweep reports the exact point count its budget check took:
    # one P(v, x) per relabelling of V, one P(u, v, x) per one of U
    for bound, step, points in (("t4", "0.1", 1_100), ("outer", repr(1 / 3), 528)):
        assert main(["region", "--channel", dm_channel, "--bound", bound,
                     "--grid", step, "--dirs", "9", "--json"]) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["points"] == points == gridding.sorted_grid_size(
            4, 2 * (4 if bound == "outer" else 1), float(step))


def test_region_json_counts_the_splits_swept(g_channel, tmp_path, capsys):
    # a Gaussian sweep reports its split count as well: every (alpha,
    # beta) pair of the converse, every beta of t7, and t7's one beta = 0
    # slice when receiver 1 is the weaker one
    weak = tmp_path / "weak.json"
    dump_channel(GaussianBc(0.5, 1.0, 1.0, 3.0), weak)
    for channel, bound, points in ((g_channel, "outer", 25), (g_channel, "t7", 5),
                                   (str(weak), "t7", 1)):
        assert main(["region", "--channel", channel, "--bound", bound,
                     "--grid", "0.25", "--dirs", "9", "--json"]) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["points"] == points


def test_region_r2_slice_and_svg(g_channel, tmp_path):
    svg = tmp_path / "region.svg"
    rc = main(["region", "--channel", g_channel, "--bound", "outer",
               "--grid", "0.25", "--r2", "0", "--dirs", "33",
               "--svg", str(svg)])
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert 'viewBox="0 0 640 480"' in text
    assert text.count("<polyline") == 1
    assert "R0 (bits)" in text and "R1 (bits)" in text


def test_region_svg_needs_2d(g_channel, tmp_path):
    rc = main(["region", "--channel", g_channel, "--bound", "outer",
               "--grid", "0.25", "--svg", str(tmp_path / "x.svg")])
    assert rc == 2


def test_region_nonzero_slice_rejected(g_channel):
    assert main(["region", "--channel", g_channel, "--bound", "outer",
                 "--grid", "0.25", "--r2", "0.1"]) == 2


def test_region_t8_needs_no_forward_link(g_channel, tmp_path):
    # the fixture channel has c12 > 0, which t8 does not model
    assert main(["region", "--channel", g_channel, "--bound", "t8",
                 "--grid", "0.25"]) == 2
    ok = tmp_path / "g0.json"
    dump_channel(GaussianBc(1.0, 0.5, 1.0, 3.0, c21=0.5), ok)
    assert main(["region", "--channel", str(ok), "--bound", "t8",
                 "--grid", "0.25"]) == 0


def test_region_cross_kind_is_exit_2(g_channel, dm_channel):
    assert main(["region", "--channel", dm_channel, "--bound", "t7"]) == 2
    assert main(["region", "--channel", g_channel, "--bound", "t4"]) == 2


def test_region_bad_channel_is_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "dm", "x_card": 2')
    assert main(["region", "--channel", str(bad), "--bound", "t4"]) == 3
    ok_syntax_bad_kind = tmp_path / "odd.json"
    ok_syntax_bad_kind.write_text('{"type": "carrier-pigeon"}')
    assert main(["region", "--channel", str(ok_syntax_bad_kind),
                 "--bound", "t4"]) == 3


_DM_DOC = example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.5).to_json_dict()
_G_DOC = GaussianBc(1.2, 0.7, 0.3, 2.0, c12=0.2, c21=0.6).to_json_dict()


@pytest.mark.parametrize("doc,field,value", [
    (_DM_DOC, "transition", math.nan), (_DM_DOC, "c12", math.nan),
    (_DM_DOC, "c12", math.inf), (_DM_DOC, "c21", math.nan),
    (_DM_DOC, "c21", math.inf), (_G_DOC, "a", math.nan), (_G_DOC, "a", math.inf),
    (_G_DOC, "b", math.nan), (_G_DOC, "b", -math.inf), (_G_DOC, "lambda", math.nan),
    (_G_DOC, "power", math.nan), (_G_DOC, "power", math.inf),
    (_G_DOC, "c12", math.nan), (_G_DOC, "c12", math.inf),
    (_G_DOC, "c21", math.nan), (_G_DOC, "c21", math.inf)],
    ids=lambda v: v["type"] if isinstance(v, dict) else str(v))
def test_region_non_finite_channel_is_exit_3(tmp_path, capsys, doc, field, value):
    # Python's json reads the NaN and Infinity literals json.dumps writes
    doc = json.loads(json.dumps(doc))
    if field == "transition":
        doc["transition"][0][0] = value
    else:
        doc[field] = value
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(doc))
    bound = "inner1" if doc["type"] == "dm" else "df"
    assert main(["region", "--channel", str(path), "--bound", bound,
                 "--grid", "0.25", "--dirs", "4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("doc,field,value,words", [
    (_DM_DOC, "x_card", 2.5, "whole number"), (_DM_DOC, "y2_card", 2.0001, "whole number"),
    (_DM_DOC, "y1_card", math.inf, "whole number"),
    (_DM_DOC, "x_card", True, "boolean"), (_DM_DOC, "transition", True, "boolean"),
    (_DM_DOC, "c12", True, "boolean"), (_DM_DOC, "c21", False, "boolean"),
    (_G_DOC, "a", True, "boolean"), (_G_DOC, "power", True, "boolean"),
    (_G_DOC, "lambda", False, "boolean"), (_G_DOC, "c12", True, "boolean")],
    ids=lambda v: v["type"] if isinstance(v, dict) else str(v))
def test_region_boolean_or_fractional_channel_field_is_exit_3(tmp_path, capsys, doc,
                                                             field, value, words):
    # a fractional cardinality was truncated, an infinite one raised a
    # traceback, and a JSON true read as 1
    doc = json.loads(json.dumps(doc))
    if field == "transition":
        doc["transition"][0] = [value, 0.0, 0.0, 0.0]
    else:
        doc[field] = value
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(doc))
    bound = "inner1" if doc["type"] == "dm" else "df"
    assert main(["region", "--channel", str(path), "--bound", bound,
                 "--grid", "0.25", "--dirs", "4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err and field in err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["region", "sweep", "fm", "plot", "region-out"])
def test_unreadable_file_is_exit_1(tmp_path, capsys, g_channel, verb):
    missing = str(tmp_path / "missing")
    argv = {"region": ["region", "--channel", missing, "--bound", "t7"],
            "sweep": ["sweep", "--channel", missing, "--vary", "c12",
                      "--start", "0", "--stop", "1", "--metric", "sumrate-gap"],
            "fm": ["fm", "--system", missing, "--eliminate", "B1"],
            "plot": ["plot", "--in", missing, "--svg", str(tmp_path / "x.svg")],
            "region-out": ["region", "--channel", g_channel, "--bound", "t7",
                           "--grid", "0.25", "--out", missing + "/sup.csv"]}[verb]
    assert main(argv) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize("text", [
    "", "dir0,dir1,dir2,support_bits\n", "dir0,dir1,dir2,support_bits\n1,0,0\n",
    "dir0,dir1,dir2,support_bits\n1,0,0,1,2\n", "a,b,c\n1,2,3\n"],
    ids=["empty", "header-only", "short-row", "long-row", "unknown-header"])
def test_plot_malformed_csv_is_exit_1(tmp_path, capsys, text):
    path = tmp_path / "sup.csv"
    path.write_text(text)
    assert main(["plot", "--in", str(path), "--svg", str(tmp_path / "x.svg")]) == 1
    _one_error_line(capsys)


def test_region_budget_is_exit_4(dm_channel):
    assert main(["region", "--channel", dm_channel, "--bound", "t4",
                 "--grid", "1e-6"]) == 4


@pytest.mark.parametrize("channel", ["dm_channel", "g_channel"])
def test_region_zero_step_is_exit_1(channel, request, capsys):
    # one step check serves both kinds: a Gaussian split grid once
    # divided by the zero step and crashed, and a NaN step once failed
    # converting to an integer
    for step in ("0", "nan"):
        assert main(["region", "--channel", request.getfixturevalue(channel),
                     "--bound", "outer", "--grid", step]) == 1
        assert ("step must be 1/n for a positive integer n"
                in capsys.readouterr().err)


def test_region_dirs_below_one_is_exit_1(g_channel, capsys):
    # 0 once meant the 512-direction default and -3 the canonical rows
    for n in ("0", "-3"):
        assert main(["region", "--channel", g_channel, "--bound", "df",
                     "--grid", "0.25", "--dirs", n]) == 1
        assert "--dirs must be a positive integer" in capsys.readouterr().err


def test_cards_below_one_are_exit_1(dm_channel, capsys):
    # 0 once meant the |X| + 2 default and -1 crashed inside numpy
    for bound, flag in (("t4", "--v-card"), ("outer", "--u-card")):
        for n in ("0", "-1"):
            assert main(["region", "--channel", dm_channel, "--bound", bound,
                         "--grid", "0.5", flag, n]) == 1
            assert ("%s must be a positive integer" % flag[2:].replace("-", "_")
                    in capsys.readouterr().err)


def test_region_budget_names_a_step_that_fits(dm_channel, capsys):
    # t4 at step 0.01, one P(v, x) per relabelling of V with |V| = 4 and
    # binary X, is 1,092,839,609 points; 1/69 is the finest step within
    # the 1e8 budget
    assert main(["region", "--channel", dm_channel, "--bound", "t4",
                 "--grid", "0.01"]) == 4
    err = capsys.readouterr().err
    assert "1092839609 evaluations" in err
    assert "1/69 = %r (92171324 points)" % (1 / 69) in err


def test_region_two_auxiliary_budget_names_a_step_that_fits(dm_channel, capsys):
    # outer's P(u, v, x), one per relabelling of U with |U| = |V| = 4 and
    # binary X, is 185,012,488 points at 1/11 and 49,148,220 at 1/10
    assert main(["region", "--channel", dm_channel, "--bound", "outer",
                 "--grid", repr(1 / 11)]) == 4
    err = capsys.readouterr().err
    assert "185012488 evaluations" in err
    assert "1/10 = %r (49148220 points)" % (1 / 10) in err


def test_region_gaussian_budget_is_exit_4(g_channel, capsys, monkeypatch):
    # the (alpha, beta) grid at 0.1 is 121 points; with a 120-point budget
    # the finest step that fits is 1/9 (100 points)
    monkeypatch.setattr(gridding, "EVAL_BUDGET", 120)
    assert main(["region", "--channel", g_channel, "--bound", "outer",
                 "--grid", "0.1"]) == 4
    err = capsys.readouterr().err
    assert "121 evaluations" in err
    assert "1/9 = %r (100 points)" % (1 / 9) in err


def test_region_budget_with_a_count_past_4300_digits_is_exit_4(dm_channel, capsys):
    # the outer grid at 1e-300 has over 4,300 digits of points, past
    # Python's int-to-str limit; its count once crashed the message (exit 1)
    assert main(["region", "--channel", dm_channel, "--bound", "outer",
                 "--grid", "1e-300"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(r"sweep needs at least \d\.\d{3}e\+\d{4,} evaluations, over the "
                     r"100000000-point budget; the finest step within that point "
                     r"budget is 1/\d+ ", err), err


def test_bound_choices_and_default_steps_come_from_the_tables(g_channel,
                                                             tmp_path):
    names = list(dict.fromkeys([*dmb.BOUNDS, *gb.BOUNDS]))
    verbs = next(a for a in _build_parser()._actions if a.dest == "verb")
    for verb in ("region", "sweep"):
        bound = next(a for a in verbs.choices[verb]._actions
                     if a.dest == "bound")
        assert list(bound.choices) == names
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["region", "--channel", g_channel, "--bound", "df", "--dirs", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--grid", repr(gb.BOUNDS["df"].step),
                        "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cards_a_bound_lacks_are_exit_2(dm_channel, g_channel, capsys):
    # t4 sweeps P(v,x) and the Gaussian bounds sweep power splits, so an
    # alphabet size they have no auxiliary for is refused, not ignored
    for chan, bound, flag in ((dm_channel, "t4", "--u-card"),
                              (g_channel, "t7", "--v-card")):
        assert main(["region", "--channel", chan, "--bound", bound,
                     "--grid", "0.25", flag, "2"]) == 2
        assert "bound %r" % bound in capsys.readouterr().err
    assert main(["sweep", "--channel", g_channel, "--vary", "c21",
                 "--start", "0", "--stop", "1", "--count", "2",
                 "--metric", "dir-support", "--bound", "df",
                 "--grid", "0.5", "--u-card", "2"]) == 2
    assert main(["region", "--channel", dm_channel, "--bound", "t4",
                 "--grid", "0.25", "--v-card", "2"]) == 0


def test_parser_is_built_once_and_survives_a_rejected_call(g_channel, capsys):
    assert _build_parser() is _build_parser()
    argv = ["region", "--channel", g_channel, "--bound", "t7", "--grid", "0.25"]
    before = vars(_build_parser().parse_args(argv))
    assert main(argv) == 0
    out = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["region", "--channel", g_channel, "--bound", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert vars(_build_parser().parse_args(argv)) == before
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_region_unknown_bound_argparse(dm_channel):
    with pytest.raises(SystemExit):
        main(["region", "--channel", dm_channel, "--bound", "t99"])


def test_region_rejects_seed(dm_channel):
    # region sweeps fixed grids and draws nothing; only verify is seeded
    with pytest.raises(SystemExit) as exc:
        main(["region", "--channel", dm_channel, "--bound", "t4",
              "--grid", "0.25", "--seed", "1"])
    assert exc.value.code == 2


def test_verify_pass(capsys, tmp_path):
    report = tmp_path / "rep.json"
    rc = main(["verify", "--suite", "relay-largest-rate",
               "--json", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "suite relay-largest-rate: PASS" in out
    assert all(l.startswith(("PASS", "FAIL", "suite"))
               for l in out.splitlines() if l)
    doc = json.loads(report.read_text())
    assert doc["pass"] is True and doc["suite"] == "relay-largest-rate"


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])


def test_sweep_dir_support(g_channel, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--channel", g_channel, "--vary", "power",
               "--start", "0.5", "--stop", "2.0", "--count", "4",
               "--metric", "dir-support", "--bound", "df",
               "--dir", "1,1,1", "--grid", "0.25", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["power", "dir_support_bits"]
    vals = [float(r[1]) for r in rows[1:]]
    assert len(vals) == 4
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))  # power helps
    stdout = capsys.readouterr().out
    assert stdout.count("dir_support_bits=") == 4


def test_sweep_lambda_on_dm_is_exit_2(dm_channel):
    assert main(["sweep", "--channel", dm_channel, "--vary", "lambda",
                 "--start", "0", "--stop", "0.5", "--count", "2",
                 "--metric", "dir-support", "--bound", "inner1",
                 "--grid", "0.5"]) == 2


def test_sweep_dir_arity_check(g_channel):
    assert main(["sweep", "--channel", g_channel, "--vary", "c21",
                 "--start", "0", "--stop", "1", "--count", "2",
                 "--metric", "dir-support", "--bound", "t7",
                 "--dir", "1,1,1", "--grid", "0.5"]) == 2


def test_fm_round_trip(tmp_path, capsys):
    doc = {"variables": ["R", "B1", "B2"],
           "rows": [{"coeffs": {"B1": -1, "B2": -1}, "rhs": -1.0},
                    {"coeffs": {"R": 1, "B1": 1}, "rhs": 2.0},
                    {"coeffs": {"R": 1, "B2": 1}, "rhs": 2.5},
                    {"coeffs": {"B1": -1}, "rhs": 0.0},
                    {"coeffs": {"B2": -1}, "rhs": 0.0}]}
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(doc))
    out_path = tmp_path / "proj.json"
    rc = main(["fm", "--system", str(sys_path), "--eliminate", "B1,B2",
               "--out", str(out_path)])
    assert rc == 0
    projected = LinearSystem.from_json_dict(json.loads(out_path.read_text()))
    assert projected.variables == ("R",)
    # by hand: max R = min(2, 2.5, (2+2.5-1)/2) = 1.75
    assert support_of_system(projected, (1.0,)) == pytest.approx(1.75, abs=1e-12)
    # without --out the JSON goes to stdout
    rc2 = main(["fm", "--system", str(sys_path), "--eliminate", "B1"])
    assert rc2 == 0
    json.loads(capsys.readouterr().out)


_FM_ROWS = [{"coeffs": {"R": 1, "B1": 1}, "rhs": 2.0},
            {"coeffs": {"B1": -1}, "rhs": 0.0}]


@pytest.mark.parametrize("doc, where", [
    ({"rows": _FM_ROWS}, "'variables'"),
    ({"variables": ["R", "B1"]}, "'rows'"),
    ({"variables": ["R", "B1"], "rows": [_FM_ROWS[0], {"coeffs": {"Q": 1}, "rhs": 0.0}]},
     "rows[1]"),
    ({"variables": ["R", "B1"], "rows": [_FM_ROWS[0], {"coeffs": {"B1": "x"}, "rhs": 0.0}]},
     "rows[1]"),
    ({"variables": ["R", "B1"], "rows": [_FM_ROWS[0], {"coeffs": {"B1": -1}, "rhs": "abc"}]},
     "rows[1]"),
    ({"variables": ["R", "B1"], "rows": [_FM_ROWS[0], {"coeffs": {"B1": -1}, "rhs": math.nan}]},
     "rows[1]"),
    # the coefficients would land in one B1 column and --eliminate take the other
    ({"variables": ["R", "B1", "B1"], "rows": _FM_ROWS}, "['R', 'B1', 'B1']"),
    ({"variables": [1, "B1"], "rows": _FM_ROWS[1:]}, "[1, 'B1']"),
    # a JSONDecodeError is a ValueError, whose own exit code is 1
    ("{not json", "line 1 column 2"),
], ids=["no-variables", "no-rows", "undeclared-variable", "text-coefficient",
        "text-rhs", "nan-rhs", "repeated-variable", "non-string-variable", "not-json"])
def test_fm_malformed_system_is_exit_3(tmp_path, capsys, doc, where):
    sys_path = tmp_path / "sys.json"
    # NaN goes out as the NaN literal
    sys_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["fm", "--system", str(sys_path), "--eliminate", "B1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert where in captured.err


def test_region_csv_byte_stable(g_channel, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["region", "--channel", g_channel, "--bound", "t7",
            "--grid", "0.125"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_from_support_csv(g_channel, tmp_path):
    sup_csv = tmp_path / "sup.csv"
    assert main(["region", "--channel", g_channel, "--bound", "t7",
                 "--grid", "0.25", "--out", str(sup_csv)]) == 0
    svg = tmp_path / "plot.svg"
    rc = main(["plot", "--in", str(sup_csv), "--svg", str(svg),
               "--label", "exact region"])
    assert rc == 0
    text = svg.read_text()
    assert "<polyline" in text and "exact region" in text


def test_plot_from_boundary_csv(tmp_path):
    # a boundary CSV's vertices are drawn as they are, one polyline
    # point per row
    rows = [(0.0, 1.5), (0.5, 1.25), (1.0, 0.75), (1.25, 0.0)]
    path = tmp_path / "bd.csv"
    path.write_text("R0,R1\r\n" + "".join("%.9g,%.9g\r\n" % r for r in rows))
    svg = tmp_path / "plot.svg"
    assert main(["plot", "--in", str(path), "--svg", str(svg)]) == 0
    points = re.findall(r'<polyline points="([^"]*)"', svg.read_text())
    assert len(points) == 1 and len(points[0].split()) == len(rows)


def test_plot_rejects_3d_support_csv(g_channel, tmp_path):
    sup_csv = tmp_path / "sup3.csv"
    assert main(["region", "--channel", g_channel, "--bound", "outer",
                 "--grid", "0.25", "--dirs", "16",
                 "--out", str(sup_csv)]) == 0
    rc = main(["plot", "--in", str(sup_csv), "--svg", str(tmp_path / "x.svg")])
    assert rc == 2


def _assert_prints_version(cmd, expected, **kwargs):
    res = subprocess.run(cmd + ["--version"], capture_output=True, text=True,
                         timeout=120, **kwargs)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == expected


def test_console_script_smoke(tmp_path):
    exe = shutil.which("confbc")
    if exe:
        _assert_prints_version([exe], confbc.__version__)

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["version"] == confbc.__version__
    module, attr = project["scripts"]["confbc"].split(":")
    # the wrapper an installer writes for a `module:attr` entry point
    wrapper = ("import sys\n"
               "from %s import %s\n"
               "sys.argv[0] = 'confbc'\n"
               "sys.exit(%s())\n" % (module, attr, attr))
    # the child imports the package under test, whatever its working directory
    src = str(Path(confbc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    _assert_prints_version([sys.executable, "-c", wrapper],
                           project["version"], env=env, cwd=tmp_path)
