import json
import os
import subprocess
import sys
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
    sol = csvio.read_vector(out)
    assert sol.shape == (24,)


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
    spec = tmp_path / "synth.txt"
    spec.write_text("preset=joint-sparse\nm=12\nd=15\nk=3\nd_tilde=4\nseed=3\n")
    path_args = ["--q", "1.5", "--grid", "custom:1.0,0.8,0.6,0.4", "--screening", "on",
                 "--tol", "1e-12", "--json"]
    capsys.readouterr()
    runs = {}
    for name, src in (("matrix", data_args(outdir)), ("synthetic", ["--synthetic", str(spec)])):
        code = main(["path", *src, *path_args, "--out-dir", str(tmp_path / name)])
        assert code == 0
        runs[name] = (json.loads(capsys.readouterr().out),
                      np.loadtxt(tmp_path / name / "stats.csv", delimiter=",", skiprows=1))
    (info_m, stats_m), (info_s, stats_s) = runs["matrix"], runs["synthetic"]
    assert info_m["lambda_max"] == pytest.approx(info_s["lambda_max"], rel=1e-10)
    assert np.allclose(stats_m[:, 2], stats_s[:, 2], rtol=1e-10, atol=0.0)


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


def test_exit_codes(tmp_path, capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()
    assert main(["solve", "--matrix", "missing.csv", "--response", "missing.csv",
                 "--groups", "missing.txt", "--lambda", "1"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert main(["--help"]) == 0
    assert main(["prox", "--help"]) == 0


@pytest.mark.parametrize("case, want", [
    ("screen_ratios", 1),
    ("path_grid", 1),
    ("synthetic_value", 2),
    ("missing_config", 2),
    ("gen_corr", 1),
    ("refsolve_data", 1),
])
def test_malformed_input_exit_codes(case, want, tmp_path, rng, capsys):
    make_dataset(tmp_path, rng)
    spec = tmp_path / "synth.txt"
    spec.write_text("preset=screening\nm=abc\n")
    argv = {
        "screen_ratios": ["screen", *data_args(tmp_path), "--ratios", "abc"],
        "path_grid": ["path", *data_args(tmp_path), "--grid", "custom:0.5,x",
                      "--out-dir", str(tmp_path / "out")],
        "synthetic_value": ["path", "--synthetic", str(spec),
                            "--out-dir", str(tmp_path / "out")],
        "missing_config": ["prox", "--config", str(tmp_path / "none.cfg")],
        "gen_corr": ["gen", "--preset", "screening", "--corr", "0.5",
                     "--out-dir", str(tmp_path / "out")],
        "refsolve_data": ["oracle", "--mode", "refsolve", "--q", "2", "--lambda", "1"],
    }[case]
    assert main(argv) == want
    assert capsys.readouterr().err.startswith("usage error" if want == 1 else "error")


def test_cli_import_leaves_scipy_unloaded():
    # the oracles (and scipy with them) load only for the oracle subcommand;
    # beyond the standard library, importing the CLI loads numpy and nothing
    # else, which keeps every command's start-up short
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys; before = set(sys.modules); import mixnorm.cli; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert set(out.stdout.split()) <= {"mixnorm", "numpy"}


def test_usage_error_message_on_stderr(capsys):
    code = main(["prox"])  # missing required --q/--lambda
    assert code == 1
    assert "usage error" in capsys.readouterr().err
