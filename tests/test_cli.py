import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mixnorm import csvio
from mixnorm.cli import main
from mixnorm.model import GroupPartition, ProblemInstance
from mixnorm.solver import SolverConfig, solve


# ---------------------------------------------------------------------------
# csv helpers

def test_matrix_roundtrip(tmp_path, rng):
    M = rng.standard_normal((4, 3))
    path = tmp_path / "m.csv"
    csvio.write_matrix(path, M)
    back = csvio.read_matrix(path)
    assert np.array_equal(M, back)  # %.17g preserves doubles exactly


def test_vector_roundtrip(tmp_path, rng):
    v = rng.standard_normal(7)
    path = tmp_path / "v.csv"
    csvio.write_vector(path, v)
    assert np.array_equal(csvio.read_vector(path), v)


def test_single_row_matrix_keeps_2d(tmp_path):
    path = tmp_path / "row.csv"
    csvio.write_matrix(path, np.array([[1.0, 2.0, 3.0]]))
    assert csvio.read_matrix(path).shape == (1, 3)


def test_group_sizes_roundtrip(tmp_path):
    part = GroupPartition((3, 1, 4))
    path = tmp_path / "g.txt"
    csvio.write_group_sizes(path, part)
    assert csvio.read_group_sizes(path).sizes == (3, 1, 4)


def test_read_errors_are_input_errors(tmp_path):
    from mixnorm.errors import InputError
    with pytest.raises(InputError):
        csvio.read_matrix(tmp_path / "nope.csv")
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n-1\n")
    with pytest.raises(InputError):
        csvio.read_group_sizes(bad)
    text = tmp_path / "text.txt"
    text.write_text("1\nabc\n")
    for read in (csvio.read_vector, csvio.read_group_sizes):
        for path in (tmp_path / "nope.csv", text):
            with pytest.raises(InputError, match="could not read"):
                read(path)


def test_vector_text_helpers():
    v = csvio.parse_vector_text("1, 2.5,  -3\n")
    assert np.array_equal(v, [1.0, 2.5, -3.0])
    line = csvio.format_vector_line(np.array([1.0, 0.25]))
    assert np.array_equal(csvio.parse_vector_text(line), [1.0, 0.25])


# ---------------------------------------------------------------------------
# command-line surface

def make_dataset(tmp_path, rng, m=20, p=24, groups=(6, 6, 6, 6)):
    B = rng.standard_normal((m, p))
    Y = rng.standard_normal(m)
    csvio.write_matrix(tmp_path / "B.csv", B)
    csvio.write_vector(tmp_path / "Y.csv", Y)
    csvio.write_group_sizes(tmp_path / "groups.txt", GroupPartition(groups))
    return B, Y


def data_args(tmp_path):
    return ["--matrix", str(tmp_path / "B.csv"),
            "--response", str(tmp_path / "Y.csv"),
            "--groups", str(tmp_path / "groups.txt")]


def test_prox_roundtrip(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("3, 4\n")
    code = main(["prox", "--q", "2", "--lambda", "1", "--in", str(infile)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert np.allclose(csvio.parse_vector_text(out), [2.4, 3.2])


def test_prox_json_at_the_top_of_float_range(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("1e308,1e308")
    code = main(["prox", "--q", "2", "--lambda", "1e308", "--in", str(infile), "--json"])
    out, summary = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    x = csvio.parse_vector_text(out)
    assert np.allclose(x, 1e308 * (1 - 0.5 ** 0.5), rtol=1e-14)
    # strict JSON: no NaN or Infinity
    norms = json.loads(summary, parse_constant=pytest.fail)
    assert norms["norm_in"] == pytest.approx(2 ** 0.5 * 1e308, rel=1e-15)
    assert norms["norm_out"] == pytest.approx(np.sqrt(2) * x[0], rel=1e-15)


def test_prox_inf_exponent_spelling(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("3, 1")
    code = main(["prox", "--q", "inf", "--lambda", "1", "--in", str(infile)])
    assert code == 0
    assert np.allclose(csvio.parse_vector_text(capsys.readouterr().out), [2.0, 1.0])


def test_solve_writes_solution_and_json(tmp_path, rng, capsys):
    make_dataset(tmp_path, rng)
    out = tmp_path / "sol.csv"
    code = main(["solve", *data_args(tmp_path), "--q", "2", "--ratio", "0.5",
                 "--out", str(out), "--json"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["converged"] is True
    assert 0 < info["lambda"] < info["lambda_max"]
    assert all(isinstance(info[k], int) and info[k] >= 0 for k in ("restarts", "backtracks"))
    # the q = 2 prox is closed-form
    assert info["prox_sweeps"] == info["prox_joint_steps"] == 0
    assert 0 <= info["gap"] <= 1e-4
    sol = csvio.read_vector(out)
    assert sol.shape == (24,)
    code = main(["solve", *data_args(tmp_path), "--q", "1.5", "--ratio", "0.5", "--json"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    # the first prox call has no iterate to start from and sweeps once for
    # a fresh start; every call takes joint Newton steps
    assert info["prox_sweeps"] > 0 and info["prox_joint_steps"] > 0


def test_solve_lambda_matches_ratio(tmp_path, rng, capsys):
    # --lambda at ratio * lambda_max solves what --ratio does
    make_dataset(tmp_path, rng)
    by_ratio, by_lambda = tmp_path / "r.csv", tmp_path / "l.csv"
    assert main(["solve", *data_args(tmp_path), "--ratio", "0.4", "--json",
                 "--out", str(by_ratio)]) == 0
    want = json.loads(capsys.readouterr().out)
    assert want["lambda"] == 0.4 * want["lambda_max"]
    assert main(["solve", *data_args(tmp_path), "--lambda", repr(want["lambda"]), "--json",
                 "--out", str(by_lambda)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == want
    assert by_lambda.read_text() == by_ratio.read_text()


def test_solve_lambda_ratio_exclusive(tmp_path, rng):
    make_dataset(tmp_path, rng)
    code = main(["solve", *data_args(tmp_path), "--lambda", "1", "--ratio", "0.5"])
    assert code == 1


def test_screen_report(tmp_path, rng, capsys):
    make_dataset(tmp_path, rng)
    report = tmp_path / "report.csv"
    code = main(["screen", *data_args(tmp_path), "--ratios", "1.0:0.25:4",
                 "--report", str(report), "--json"])
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "lambda,rejection_ratio,groups_kept,screen_time,solve_time"
    assert len(lines) == 5
    assert json.loads(capsys.readouterr().out)["unconverged_steps"] == 0


def test_path_outputs(tmp_path, rng, capsys):
    make_dataset(tmp_path, rng)
    outdir = tmp_path / "run"
    code = main(["path", *data_args(tmp_path), "--grid", "custom:0.9,0.6,0.3",
                 "--screening", "on", "--out-dir", str(outdir),
                 "--save-solutions", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["unconverged_steps"] == 0
    stats = (outdir / "stats.csv").read_text().strip().splitlines()
    assert len(stats) == 4
    assert (outdir / "summary.txt").exists()
    assert (outdir / "solution_002.csv").exists()


@pytest.mark.parametrize("grid, ratios", [
    ("linear91", np.linspace(1.0, 0.1, 91)),
    ("geo09", 0.9 ** np.arange(100.0)),
])
def test_path_built_in_grids(grid, ratios, tmp_path, rng):
    make_dataset(tmp_path, rng)
    outdir = tmp_path / "run"
    assert main(["path", *data_args(tmp_path), "--grid", grid, "--screening", "on",
                 "--out-dir", str(outdir)]) == 0
    header, *rows = (outdir / "stats.csv").read_text().strip().splitlines()
    assert header.split(",")[1] == "ratio"
    assert np.array_equal([float(row.split(",")[1]) for row in rows], ratios)


def test_json_totals_match_step_reports(tmp_path, rng, capsys):
    make_dataset(tmp_path, rng, m=30, p=48, groups=(4,) * 12)
    report = tmp_path / "report.csv"
    code = main(["screen", *data_args(tmp_path), "--ratios", "1.0:0.3:8",
                 "--report", str(report), "--json"])
    assert code == 0
    screen_info = json.loads(capsys.readouterr().out)
    screen_rows = np.loadtxt(report, delimiter=",", skiprows=1)
    code = main(["path", *data_args(tmp_path), "--grid", "custom:1.0,0.8,0.6,0.4,0.3",
                 "--screening", "on", "--out-dir", str(tmp_path / "run"), "--json"])
    assert code == 0
    path_info = json.loads(capsys.readouterr().out)
    stats = np.loadtxt(tmp_path / "run" / "stats.csv", delimiter=",", skiprows=1)
    # report: lambda,rejection_ratio,groups_kept,screen_time,solve_time
    # stats:  lambda,ratio,objective,iterations,groups_kept,rejection_ratio,
    #         solve_time,screen_time
    for info, kept, rr, t_screen, t_solve in (
            (screen_info, screen_rows[:, 2], screen_rows[:, 1], screen_rows[:, 3],
             screen_rows[:, 4]),
            (path_info, stats[:, 4], stats[:, 5], stats[:, 7], stats[:, 6])):
        assert info["groups_kept"] == int(kept.sum())
        assert 0 < info["groups_kept"] < 12 * len(kept)
        assert info["mean_rejection"] == pytest.approx(rr.mean(), abs=1e-6)
        assert info["screen_time"] == pytest.approx(t_screen.sum(), rel=1e-4, abs=1e-5)
        assert info["solve_time"] == pytest.approx(t_solve.sum(), rel=1e-4, abs=1e-5)
        assert 0 <= info["max_gap"] <= 1e-4
        assert info["iterations"] > 0
        assert all(isinstance(info[k], int) and info[k] >= 0
                   for k in ("restarts", "backtracks", "prox_sweeps", "prox_joint_steps"))
    assert path_info["iterations"] == int(stats[:, 3].sum())


def test_path_and_screen_agree_above_one(tmp_path, rng):
    # one ratio rule: both commands take a first ratio above 1
    make_dataset(tmp_path, rng)
    ratios = "1.2,0.9,0.5"
    assert main(["path", *data_args(tmp_path), "--grid", f"custom:{ratios}",
                 "--screening", "on", "--out-dir", str(tmp_path / "run")]) == 0
    report = tmp_path / "report.csv"
    assert main(["screen", *data_args(tmp_path), "--ratios", ratios,
                 "--report", str(report)]) == 0
    stats = np.loadtxt(tmp_path / "run" / "stats.csv", delimiter=",", skiprows=1)
    rows = np.loadtxt(report, delimiter=",", skiprows=1)
    assert np.array_equal(stats[:, 0], rows[:, 0])  # lambda
    assert np.array_equal(stats[:, 4], rows[:, 2])  # groups_kept
    assert rows[0, 2] == 0


def test_dash_file_flags_write_stdout(tmp_path, rng, capsys, monkeypatch):
    make_dataset(tmp_path, rng)
    solution = tmp_path / "sol.csv"
    assert main(["solve", *data_args(tmp_path), "--ratio", "0.5", "--out", str(solution)]) == 0
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    for flag, argv in (("--out", ["solve", "--ratio", "0.5"]),
                       ("--history", ["solve", "--ratio", "0.5"]),
                       ("--report", ["screen", "--ratios", "0.9,0.5"])):
        assert main([*argv, *data_args(tmp_path), flag, "-", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        info = json.loads(lines[-1])
        if flag == "--out":
            assert "\n".join(lines[:-1]) + "\n" == solution.read_text()
        elif flag == "--history":
            assert len(lines) - 1 == info["iterations"] + 1
        else:
            assert lines[0] == "lambda,rejection_ratio,groups_kept,screen_time,solve_time"
            assert len(lines) - 2 == info["steps"] == 2
    assert list(workdir.iterdir()) == []


def test_gen_then_solve(tmp_path, capsys):
    outdir = tmp_path / "data"
    code = main(["gen", "--preset", "joint-sparse", "--m", "12", "--d", "15",
                 "--k", "3", "--dtilde", "4", "--seed", "3",
                 "--out-dir", str(outdir)])
    assert code == 0
    capsys.readouterr()
    code = main(["solve",
                 "--matrix", str(outdir / "B.csv"),
                 "--response", str(outdir / "Y.csv"),
                 "--groups", str(outdir / "groups.txt"),
                 "--ratio", "0.6", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True
    assert csvio.read_matrix(outdir / "X_true.csv").shape == (15, 3)


def run_matrix_and_synthetic_paths(tmp_path, capsys, datadir, spec_text, path_args):
    """path on the files gen wrote to datadir and on a --synthetic file;
    {"matrix": (json, stats), "synthetic": (json, stats)}."""
    spec = tmp_path / "synth.txt"
    spec.write_text(spec_text)
    capsys.readouterr()
    runs = {}
    for name, src in (("matrix", data_args(datadir)), ("synthetic", ["--synthetic", str(spec)])):
        code = main(["path", *src, *path_args, "--json", "--out-dir", str(tmp_path / name)])
        assert code == 0
        runs[name] = (json.loads(capsys.readouterr().out),
                      np.loadtxt(tmp_path / name / "stats.csv", delimiter=",", skiprows=1))
    return runs


def test_gen_joint_sparse_paths_agree(tmp_path, capsys):
    # gen writes the dense stacked design; path reads it back as a plain
    # matrix, while path --synthetic builds the matrix-free form
    from mixnorm.synth import SynthSpec, gen_joint_sparse
    outdir = tmp_path / "data"
    code = main(["gen", "--preset", "joint-sparse", "--m", "12", "--d", "15",
                 "--k", "3", "--dtilde", "4", "--seed", "3", "--out-dir", str(outdir)])
    assert code == 0
    A, _, Y = gen_joint_sparse(SynthSpec(m=12, d=15, k=3, d_tilde=4, seed=3))
    B = csvio.read_matrix(outdir / "B.csv")
    assert B.shape == (36, 45)
    for t in range(3):
        assert np.array_equal(B[12 * t:12 * (t + 1), t::3], A)
    assert np.count_nonzero(B) == np.count_nonzero(A) * 3
    assert np.array_equal(csvio.read_vector(outdir / "Y.csv"), Y.T.ravel())
    runs = run_matrix_and_synthetic_paths(
        tmp_path, capsys, outdir, "preset=joint-sparse\nm=12\nd=15\nk=3\nd_tilde=4\nseed=3\n",
        ["--q", "1.5", "--grid", "custom:1.0,0.8,0.6,0.4", "--screening", "on", "--tol", "1e-12"])
    (info_m, stats_m), (info_s, stats_s) = runs["matrix"], runs["synthetic"]
    assert info_m["lambda_max"] == pytest.approx(info_s["lambda_max"], rel=1e-10)
    assert np.allclose(stats_m[:, 2], stats_s[:, 2], rtol=1e-10, atol=0.0)


def test_gen_screening_paths_agree_below_default_d_tilde(tmp_path, capsys):
    # the screening recipe never reads d_tilde, so d = 12 (below the default
    # d_tilde of 50) works in a --synthetic file as it does in gen
    outdir = tmp_path / "data"
    assert main(["gen", "--preset", "screening", "--m", "10", "--d", "12", "--groups-n", "3",
                 "--out-dir", str(outdir)]) == 0
    runs = run_matrix_and_synthetic_paths(
        tmp_path, capsys, outdir, "preset=screening\nm=10\nd=12\nnum_groups=3\n",
        ["--grid", "custom:1.0,0.7,0.4,0.2", "--screening", "on", "--tol", "1e-12"])
    (_, stats_m), (_, stats_s) = runs["matrix"], runs["synthetic"]
    assert len(stats_m) == 4
    # stats: lambda,ratio,objective,iterations,groups_kept,...
    assert np.allclose(stats_m[:, 0], stats_s[:, 0], rtol=1e-10, atol=0.0)
    assert np.allclose(stats_m[:, 2], stats_s[:, 2], rtol=1e-10, atol=0.0)
    assert np.array_equal(stats_m[:, 4], stats_s[:, 4])


def test_text_or_json_on_stdout(tmp_path, capsys):
    # without --json each command prints its text, with it one JSON line
    data = tmp_path / "data"
    gen_argv = ["gen", "--preset", "screening", "--m", "10", "--d", "12", "--groups-n", "3",
                "--out-dir", str(data)]
    solve_argv = ["solve", *data_args(data), "--ratio", "0.5"]
    path_argv = ["path", *data_args(data), "--grid", "custom:0.9,0.5",
                 "--out-dir", str(tmp_path / "run")]
    assert main(gen_argv) == 0
    assert capsys.readouterr().out == f"wrote screening data to {data} (10x12, 3 groups)\n"
    assert main(solve_argv) == 0
    assert re.fullmatch(r"objective \S+ after \d+ iterations \(\d+ active groups\)\n",
                        capsys.readouterr().out)
    assert main(path_argv) == 0
    assert capsys.readouterr().out == (tmp_path / "run" / "summary.txt").read_text()
    for argv in (gen_argv, solve_argv, path_argv):
        assert main([*argv, "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)


def test_gen_corr_accepts_negative_range(tmp_path):
    # a value that starts with '-' works separate from --corr and attached to it
    base = ["gen", "--preset", "screening", "--m", "10", "--d", "12", "--groups-n", "3"]
    written = {}
    for name, corr in (("default", []), ("spaced", ["--corr", "-0.8:0.8"]),
                       ("attached", ["--corr=-0.8:0.8"]),
                       ("narrow", ["--corr", "-0.5:0.5"]),
                       ("narrow_attached", ["--corr=-0.5:0.5"])):
        outdir = tmp_path / name
        assert main([*base, *corr, "--out-dir", str(outdir)]) == 0
        written[name] = (outdir / "B.csv").read_bytes()
    assert written["spaced"] == written["default"] == written["attached"]
    assert written["narrow"] == written["narrow_attached"] != written["default"]


def test_gen_screening_preset(tmp_path):
    outdir = tmp_path / "scr"
    code = main(["gen", "--preset", "screening", "--m", "15", "--d", "30",
                 "--groups-n", "6", "--seed", "1", "--out-dir", str(outdir)])
    assert code == 0
    B = csvio.read_matrix(outdir / "B.csv")
    assert B.shape == (15, 30)
    assert np.allclose(np.linalg.norm(B, axis=0), 1.0)


def test_config_file_defaults_and_override(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("1, 2")
    cfg = tmp_path / "prox.cfg"
    cfg.write_text("q=3\nlambda=0.5\n")
    code = main(["prox", "--config", str(cfg), "--in", str(infile)])
    assert code == 0
    from_cfg = csvio.parse_vector_text(capsys.readouterr().out)

    code = main(["prox", "--config", str(cfg), "--lambda", "1.5", "--in", str(infile)])
    assert code == 0
    overridden = csvio.parse_vector_text(capsys.readouterr().out)
    # larger penalty shrinks harder, so the explicit flag took effect
    assert np.linalg.norm(overridden) < np.linalg.norm(from_cfg)


def test_config_attached_spelling(tmp_path, rng, capsys):
    make_dataset(tmp_path, rng)
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("q=1\n")
    outs = {}
    for name, extra in (("default", []), ("spaced", ["--config", str(cfg)]),
                        ("attached", [f"--config={cfg}"])):
        assert main(["solve", *data_args(tmp_path), "--ratio", "0.5", *extra, "--json"]) == 0
        outs[name] = capsys.readouterr().out
    assert outs["attached"] == outs["spaced"] != outs["default"]


def test_oracle_grid_prox_subcommand(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("1, 3")
    code = main(["oracle", "--mode", "grid-prox", "--q", "4", "--lambda", "1",
                 "--resolution", "0.05", "--in", str(infile)])
    assert code == 0
    got = csvio.parse_vector_text(capsys.readouterr().out)
    assert np.allclose(got, [0.911952, 2.029524], atol=1e-3)


def test_oracle_refsolve_subcommand(tmp_path, rng, capsys):
    B, Y = make_dataset(tmp_path, rng)
    out = tmp_path / "W.csv"
    code = main(["oracle", "--mode", "refsolve", *data_args(tmp_path),
                 "--q", "2", "--lambda", "2.0", "--out", str(out)])
    assert code == 0
    words = capsys.readouterr().out.split()
    assert words[words.index("converged") + 1] == "True"
    got = float(words[words.index("objective") + 1])
    inst = ProblemInstance(B, Y, GroupPartition((6, 6, 6, 6)), 2.0, 2.0)
    want = solve(inst, SolverConfig(tol=1e-12)).f_history[-1]
    assert got == pytest.approx(want, rel=1e-9)
    assert csvio.read_vector(out).shape == (24,)


def test_oracle_refsolve_default_out_is_stdout(tmp_path, rng, capsys, monkeypatch):
    make_dataset(tmp_path, rng)
    args = ["oracle", "--mode", "refsolve", *data_args(tmp_path), "--q", "2", "--lambda", "2.0"]
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(args) == 0
    assert not (workdir / "-").exists()
    assert list(workdir.iterdir()) == []
    solution_line = capsys.readouterr().out.splitlines()[0]
    assert csvio.parse_vector_text(solution_line).shape == (24,)


def test_exit_codes(tmp_path, capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()
    assert main(["solve", "--matrix", "missing.csv", "--response", "missing.csv",
                 "--groups", "missing.txt", "--lambda", "1"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert main(["--help"]) == 0
    assert main(["prox", "--help"]) == 0
    # the step size is not a setting: --l0 is an unknown flag
    assert main(["solve", "--matrix", "B.csv", "--response", "Y.csv", "--groups", "g.txt",
                 "--ratio", "0.5", "--l0", "1"]) == 1


@pytest.mark.parametrize("case, want", [
    ("screen_ratios", 1),
    ("screen_ratios_inf", 2),
    ("screen_ratios_nan", 2),
    ("screen_ratios_range_parts", 1),
    ("path_grid", 1),
    ("synthetic_value", 2),
    ("synthetic_key", 2),
    ("missing_config", 2),
    ("missing_config_attached", 2),
    ("abbreviated_config", 1),
    ("gen_corr", 1),
    ("refsolve_data", 1),
    ("grid_resolution_zero", 2),
    ("grid_resolution_nan", 2),
    ("grid_resolution_negative", 2),
    ("grid_input_nan", 2),
    ("grid_lambda_nan", 2),
    ("grid_too_many_points", 2),
    ("refsolve_design_nan", 2),
    ("refsolve_tol_nan", 2),
    ("refsolve_max_iters_zero", 2),
    ("gen_sigma_nan", 2),
    ("gen_sigma_inf", 2),
    ("gen_d_tilde", 2),
    ("prox_in_not_utf8", 2),
    ("synthetic_not_utf8", 2),
    ("config_not_utf8", 2),
    ("gen_seed_negative", 2),
    ("synthetic_seed_negative", 2),
])
def test_malformed_input_exit_codes(case, want, tmp_path, rng, capsys):
    make_dataset(tmp_path, rng)
    spec = tmp_path / "synth.txt"
    spec.write_text("preset=screening\nm=abc\n")
    seed_spec, key_spec = tmp_path / "seed.txt", tmp_path / "key.txt"
    seed_spec.write_text("preset=screening\nm=10\nd=12\nnum_groups=3\nseed=-1\n")
    key_spec.write_text("preset=screening\nm=10\ncolour=red\n")
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\xff\xfe\x00bad")
    vec, vec_nan, vec4 = tmp_path / "v.txt", tmp_path / "v_nan.txt", tmp_path / "v4.txt"
    vec.write_text("1, 3")
    vec4.write_text("3, 4, 5, 6")
    vec_nan.write_text("1, nan")
    B = csvio.read_matrix(tmp_path / "B.csv")
    B[0, 0] = np.nan
    csvio.write_matrix(tmp_path / "B_nan.csv", B)
    grid = ["oracle", "--mode", "grid-prox", "--q", "2"]
    refsolve = ["oracle", "--mode", "refsolve", *data_args(tmp_path), "--q", "2",
                "--lambda", "1"]
    argv = {
        "screen_ratios": ["screen", *data_args(tmp_path), "--ratios", "abc"],
        "screen_ratios_inf": ["screen", *data_args(tmp_path), "--ratios", "inf,0.5"],
        "screen_ratios_nan": ["screen", *data_args(tmp_path), "--ratios", "nan,0.5"],
        "screen_ratios_range_parts": ["screen", *data_args(tmp_path), "--ratios", "1:2"],
        "path_grid": ["path", *data_args(tmp_path), "--grid", "custom:0.5,x",
                      "--out-dir", str(tmp_path / "out")],
        "synthetic_value": ["path", "--synthetic", str(spec),
                            "--out-dir", str(tmp_path / "out")],
        "synthetic_key": ["path", "--synthetic", str(key_spec),
                          "--out-dir", str(tmp_path / "out")],
        "missing_config": ["prox", "--config", str(tmp_path / "none.cfg")],
        "missing_config_attached": ["prox", f"--config={tmp_path / 'none.cfg'}"],
        "abbreviated_config": ["prox", "--q", "2", "--lambda", "1", "--in",
                               str(tmp_path / "Y.csv"), "--conf", str(spec)],
        "gen_corr": ["gen", "--preset", "screening", "--corr", "0.5",
                     "--out-dir", str(tmp_path / "out")],
        "refsolve_data": ["oracle", "--mode", "refsolve", "--q", "2", "--lambda", "1"],
        "grid_resolution_zero": [*grid, "--lambda", "1", "--in", str(vec), "--resolution", "0"],
        "grid_resolution_nan": [*grid, "--lambda", "1", "--in", str(vec), "--resolution", "nan"],
        "grid_resolution_negative": [*grid, "--lambda", "1", "--in", str(vec),
                                     "--resolution", "-1"],
        "grid_input_nan": [*grid, "--lambda", "1", "--in", str(vec_nan)],
        "grid_lambda_nan": [*grid, "--lambda", "nan", "--in", str(vec)],
        "grid_too_many_points": [*grid, "--lambda", "1", "--in", str(vec4),
                                 "--resolution", "1e-9"],
        "refsolve_design_nan": [*refsolve, "--matrix", str(tmp_path / "B_nan.csv")],
        "refsolve_tol_nan": [*refsolve, "--tol", "nan"],
        "refsolve_max_iters_zero": [*refsolve, "--max-iters", "0"],
        "gen_sigma_nan": ["gen", "--preset", "joint-sparse", "--sigma", "nan",
                          "--out-dir", str(tmp_path / "out")],
        "gen_sigma_inf": ["gen", "--preset", "joint-sparse", "--sigma", "inf",
                          "--out-dir", str(tmp_path / "out")],
        "gen_d_tilde": ["gen", "--preset", "joint-sparse", "--d", "5",
                        "--out-dir", str(tmp_path / "out")],
        "prox_in_not_utf8": ["prox", "--q", "2", "--lambda", "1", "--in", str(binary)],
        "synthetic_not_utf8": ["path", "--synthetic", str(binary),
                               "--out-dir", str(tmp_path / "out")],
        "config_not_utf8": ["prox", "--config", str(binary)],
        "gen_seed_negative": ["gen", "--preset", "screening", "--seed", "-1",
                              "--out-dir", str(tmp_path / "out")],
        "synthetic_seed_negative": ["path", "--synthetic", str(seed_spec),
                                    "--out-dir", str(tmp_path / "out")],
    }[case]
    assert main(argv) == want
    err = capsys.readouterr().err
    assert err.startswith("usage error" if want == 1 else "error")
    if case == "screen_ratios_range_parts":
        assert "start:stop:count" in err
    if case == "synthetic_key":
        assert "unknown synthetic spec keys: ['colour']" in err
    if case in ("screen_ratios_inf", "screen_ratios_nan"):
        # rejected by the ratio rule, not by a later step
        assert "ratio sequence" in err
    if argv[0] == "gen":
        # a rejected spec leaves no output directory behind
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["gen_out_dir_is_file", "path_out_dir_is_file",
                                  "gen_matrix_is_dir", "solve_out_write_fails"])
def test_output_faults_exit_2(case, tmp_path, rng, capsys):
    if case == "solve_out_write_fails" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full to fail a write")
    make_dataset(tmp_path, rng)
    blocker = tmp_path / "F"
    blocker.write_text("a file\n")
    (tmp_path / "G" / "B.csv").mkdir(parents=True)
    gen = ["gen", "--preset", "screening", "--m", "10", "--d", "12", "--groups-n", "3"]
    argv = {
        "gen_out_dir_is_file": [*gen, "--out-dir", str(blocker)],
        "path_out_dir_is_file": ["path", *data_args(tmp_path), "--grid", "custom:0.5",
                                 "--out-dir", str(blocker)],
        "gen_matrix_is_dir": [*gen, "--out-dir", str(tmp_path / "G")],
        # a device is written through, and its write fails with ENOSPC
        "solve_out_write_fails": ["solve", *data_args(tmp_path), "--ratio", "0.5",
                                  "--out", "/dev/full"],
    }[case]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: could not")
    assert blocker.read_text() == "a file\n"


def test_rerun_over_longer_files_writes_identical_outputs(tmp_path, rng, monkeypatch):
    # the step and wall times are the only outputs that vary between runs
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    make_dataset(tmp_path, rng)

    def run_all(out: Path) -> dict:
        out.mkdir(exist_ok=True)
        for argv in (
                ["solve", *data_args(tmp_path), "--ratio", "0.5", "--out", str(out / "W.csv"),
                 "--history", str(out / "history.csv")],
                ["screen", *data_args(tmp_path), "--ratios", "1.0:0.25:4",
                 "--report", str(out / "report.csv")],
                ["gen", "--preset", "joint-sparse", "--m", "12", "--d", "15", "--k", "3",
                 "--dtilde", "4", "--out-dir", str(out / "gen")],
                ["path", *data_args(tmp_path), "--grid", "custom:0.9,0.6,0.3",
                 "--screening", "on", "--save-solutions", "--out-dir", str(out / "path")]):
            assert main(argv) == 0
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    fresh = run_all(tmp_path / "fresh")
    assert len(fresh) == 12
    stale = tmp_path / "stale"
    for name, data in fresh.items():
        (stale / name).parent.mkdir(parents=True, exist_ok=True)
        (stale / name).write_bytes(b"9,9\n" * (len(data) // 4 + 100))
    assert run_all(stale) == fresh


def test_out_symlink_and_hard_link_are_written_through(tmp_path, rng):
    make_dataset(tmp_path, rng)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("stale\n" * 1000)
    link.symlink_to(target)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("stale\n" * 1000)
    os.link(first, second)
    fresh = tmp_path / "fresh.csv"
    for out in (fresh, link, first):
        assert main(["solve", *data_args(tmp_path), "--ratio", "0.5", "--out", str(out)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()
    assert os.stat(first).st_ino == os.stat(second).st_ino
    assert first.read_bytes() == second.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_unwritable_out_still_fails(tmp_path, rng, capsys):
    make_dataset(tmp_path, rng)
    out = tmp_path / "W.csv"
    out.write_text("kept\n")
    out.chmod(0o444)
    assert main(["solve", *data_args(tmp_path), "--ratio", "0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: could not open")
    assert out.read_text() == "kept\n"


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_leaves_scipy_unloaded():
    # the oracles (and scipy with them) load only for the oracle subcommand;
    # beyond the standard library, importing the CLI loads numpy and nothing
    # else, which keeps every command's start-up short
    code = ("import sys; before = set(sys.modules); import mixnorm.cli; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env(), timeout=120, check=True)
    assert set(out.stdout.split()) <= {"mixnorm", "numpy"}


def test_module_entry_point_runs_main():
    out = subprocess.run([sys.executable, "-m", "mixnorm.cli", "solve", "--bogus"],
                         capture_output=True, text=True, env=src_env(), timeout=120)
    assert out.returncode == 1
    assert out.stderr.startswith("usage error")


def test_usage_error_message_on_stderr(capsys):
    code = main(["prox"])  # missing required --q/--lambda
    assert code == 1
    assert "usage error" in capsys.readouterr().err
