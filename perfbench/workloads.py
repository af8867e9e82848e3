"""The four workloads: set-up, one timed round, and the check of a round.

Each workload drives mixnorm's public entry points, looked up on their
modules at call time so that the traced run's wrappers see the calls.
``check`` returns one entry per operation of the round (a path point or a
CLI call): an empty string when the operation passed, else what failed.
Every check is computed here from the inputs, in numpy; no stored copy of
an earlier output is consulted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gapcheck

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import mixnorm  # noqa: E402
import mixnorm.cli  # noqa: E402
import mixnorm.model  # noqa: E402
import mixnorm.path  # noqa: E402
import mixnorm.solver  # noqa: E402
import mixnorm.synth  # noqa: E402

if Path(mixnorm.__file__).resolve().parent != SRC / "mixnorm":
    raise ImportError(f"mixnorm was imported from {mixnorm.__file__}, not from {SRC}")

# Relative duality-gap bounds (P - D) / P that every path point and CLI solve
# must meet, about ten times the worst gap seen when they were set (seeds
# 0-5 and 101-107).  The dual point built from the residual is a looser
# certificate than the solvers' stopping rule, most so on the multi-response
# problem, whose true relative suboptimality was below 5e-7 at a gap of 3.3e-3.
GAP_BOUND = {
    "screen91_q2": 5e-5,         # worst seen 3.3e-6 (tol 1e-13)
    "genq_plain": 1e-3,          # worst seen 5.9e-5 (tol 1e-8)
    "multitask_screened": 3e-2,  # worst seen 3.3e-3 (tol 1e-7)
    "cli_calls": 1e-2,           # worst seen 1.0e-3 (tol 1e-8, q = 1, 2, inf)
}


def signs(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], size=n)


def sign_flip(B: np.ndarray, Y: np.ndarray, seed: int):
    """Flip the signs of random rows (with Y) and random columns of B.

    This is an exact symmetry of the problem: the solution flips with the
    columns and every floating-point operation of a solve keeps its
    magnitude, so each seed gives different inputs but the same work.
    """
    rng = np.random.default_rng(seed)
    rows, cols = signs(rng, B.shape[0]), signs(rng, B.shape[1])
    return rows[:, None] * B * cols, rows * Y


def _check_path(result, B, Y, sizes, q, lam_max, bound, ratios) -> list[str]:
    """Gap, objective, lambda and zero-at-ratio-1 checks for each point."""
    errs = []
    for i, r in enumerate(ratios):
        x = result.solutions[i]
        lam = result.lambdas[i]
        P, D = gapcheck.dense_gap(B, Y, x, sizes, q, lam)
        gap = gapcheck.relative_gap(P, D)
        e = []
        if not gapcheck.close(lam, r * lam_max, 1e-12):
            e.append(f"lambda {lam!r} is not {r} * lambda_max {lam_max!r}")
        if not gap <= bound:
            e.append(f"relative gap {gap:.3e} above {bound:.0e}")
        if not gapcheck.close(float(result.objectives[i]), P):
            e.append(f"reported objective {result.objectives[i]!r} is not {P!r}")
        if r == 1.0 and np.any(x != 0.0):
            e.append("solution is not zero at ratio 1.0")
        errs.append("; ".join(e))
    return errs


class ScreenedPath:
    """screen91_q2: the criterion-08 instance down the linear 91-ratio grid."""

    name = "screen91_q2"
    ops = 91
    q = 2.0
    tol = 1e-13
    base_seed = 808  # the instance of acceptance criterion 08

    def setup(self, seed: int, workdir: Path):
        spec = mixnorm.synth.SynthSpec.screening_default(seed=self.base_seed)
        base = mixnorm.synth.gen_screening_instance(spec, q=self.q)
        B, Y = sign_flip(base.B, base.Y, seed)
        self.inst = mixnorm.model.ProblemInstance(B, Y, base.partition, self.q, 0.0)
        self.sizes = np.asarray(base.partition.sizes)
        self.ratios = tuple(mixnorm.path.linear_ratios())
        self.lam_max = gapcheck.dense_lambda_max(B, Y, self.sizes, self.q)

    def run(self, inproc: bool):
        spec = mixnorm.path.PathSpec(ratios=self.ratios, screening=True,
                                     solver=mixnorm.solver.SolverConfig(tol=self.tol))
        return mixnorm.path.run_path(self.inst, spec)

    def check(self, result) -> list[str]:
        errs = _check_path(result, self.inst.B, self.inst.Y, self.sizes, self.q,
                           self.lam_max, GAP_BOUND[self.name], self.ratios)
        i09 = int(np.argmin(np.abs(np.asarray(self.ratios) - 0.9)))
        norms = gapcheck.group_norms(result.solutions[i09], self.sizes, self.q)
        true_zero = int((norms <= gapcheck.ZERO_GROUP_NORM).sum())
        discarded = self.sizes.size - int(result.groups_kept[i09])
        rr = discarded / true_zero if true_zero else 0.0
        if not 0.9 <= rr <= 1.0:
            errs[i09] += f"; rejection ratio at r=0.9 is {rr:.3f}, outside [0.9, 1]"
        return errs


class GeneralQPlain:
    """genq_plain: unscreened paths at q = 1.5 and q = 3."""

    name = "genq_plain"
    ops = 6
    qs = (1.5, 3.0)
    tol = 1e-8
    ratios = (1.0, 0.9, 0.8)
    base_seed = 1

    def setup(self, seed: int, workdir: Path):
        spec = mixnorm.synth.SynthSpec(m=50, d=100, num_groups=10, seed=self.base_seed)
        base = mixnorm.synth.gen_screening_instance(spec, q=self.qs[0])
        B, Y = sign_flip(base.B, base.Y, seed)
        self.insts = [mixnorm.model.ProblemInstance(B, Y, base.partition, q, 0.0)
                      for q in self.qs]
        self.sizes = np.asarray(base.partition.sizes)

    def run(self, inproc: bool):
        spec = mixnorm.path.PathSpec(ratios=self.ratios, screening=False,
                                     solver=mixnorm.solver.SolverConfig(tol=self.tol))
        return [mixnorm.path.run_path(inst, spec) for inst in self.insts]

    def check(self, results) -> list[str]:
        errs = []
        for inst, res in zip(self.insts, results):
            lam_max = gapcheck.dense_lambda_max(inst.B, inst.Y, self.sizes, inst.q)
            errs += _check_path(res, inst.B, inst.Y, self.sizes, inst.q, lam_max,
                                GAP_BOUND[self.name], self.ratios)
        return errs


class MultitaskScreened:
    """multitask_screened: the joint-sparse recovery path, screening on.

    recovery_experiment draws its data from a SynthSpec, and data drawn
    with another seed is other work (6.5 to 8.9 s a path over five seeds).
    So the spec is fixed, and the seed flips the signs of observations,
    predictors and responses of the drawn (A, X_true, Y), which the program
    receives through its own generator, wrapped for the round.
    """

    name = "multitask_screened"
    ops = 35
    q = 2.0
    tol = 1e-7
    num_ratios = 35
    base_seed = 0

    def setup(self, seed: int, workdir: Path):
        self.spec = mixnorm.synth.SynthSpec(m=100, d=200, k=20, d_tilde=20,
                                            sigma=0.1, seed=self.base_seed)
        rng = np.random.default_rng(seed)
        self.flips = signs(rng, self.spec.m), signs(rng, self.spec.d), signs(rng, self.spec.k)
        self.A, self.X, self.Y = self.flip(*mixnorm.synth.gen_joint_sparse(self.spec))
        self.lam_max = gapcheck.multitask_lambda_max(self.A, self.Y, self.q)

    def flip(self, A, X, Y):
        obs, pred, resp = self.flips
        return obs[:, None] * A * pred, pred[:, None] * X * resp, obs[:, None] * Y * resp

    def run(self, inproc: bool):
        # recovery_experiment returns only the best point; the path result
        # it builds is caught on its way out of run_path to check every point
        caught = []
        gen, run_path = mixnorm.path.gen_joint_sparse, mixnorm.path.run_path

        def flipped_gen(spec):
            return self.flip(*gen(spec))

        def catch(inst, spec):
            caught.append(run_path(inst, spec))
            return caught[-1]

        mixnorm.path.gen_joint_sparse, mixnorm.path.run_path = flipped_gen, catch
        try:
            rep = mixnorm.path.recovery_experiment(
                self.spec, q=self.q, num_ratios=self.num_ratios,
                solver_config=mixnorm.solver.SolverConfig(tol=self.tol), screening=True)
        finally:
            mixnorm.path.gen_joint_sparse, mixnorm.path.run_path = gen, run_path
        return rep, caught[0]

    def check(self, out) -> list[str]:
        rep, path = out
        d, k = self.X.shape
        ratios = np.power(0.9, np.arange(self.num_ratios))
        bound = GAP_BOUND[self.name]
        errs, frob = [], []
        for i, r in enumerate(ratios):
            W = path.solutions[i].reshape(d, k)
            lam = path.lambdas[i]
            P, D = gapcheck.multitask_gap(self.A, self.Y, W, self.q, lam)
            gap = gapcheck.relative_gap(P, D)
            frob.append(float(np.linalg.norm(W - self.X)))
            e = []
            if not gapcheck.close(lam, r * self.lam_max, 1e-12):
                e.append(f"lambda {lam!r} is not {r:.6g} * lambda_max {self.lam_max!r}")
            if not gap <= bound:
                e.append(f"relative gap {gap:.3e} above {bound:.0e}")
            if not gapcheck.close(float(path.objectives[i]), P):
                e.append(f"reported objective {path.objectives[i]!r} is not {P!r}")
            if not gapcheck.close(float(rep.frob_errors[i]), frob[-1], 1e-9):
                e.append(f"reported error {rep.frob_errors[i]!r} is not {frob[-1]!r}")
            if i == 0 and np.any(W != 0.0):
                e.append("solution is not zero at ratio 1.0")
            errs.append("; ".join(e))
        best = int(np.argmin(frob))
        if not frob[best] < frob[1]:
            errs[best] += f"; best error {frob[best]:.3g} not below {frob[1]:.3g} at r=0.9"
        W = path.solutions[best].reshape(d, k)
        est = gapcheck.group_norms(W, np.full(d, k), 2.0) > gapcheck.ZERO_GROUP_NORM
        true = np.linalg.norm(self.X, axis=1) > 0
        if np.any(true & ~est):
            errs[best] += "; true support is not inside the estimated support"
        return errs


def cli_argv(*args) -> list[str]:
    """The ``mixnorm`` command, run by this interpreter on the checkout's source."""
    code = "import sys; from mixnorm.cli import main_entry; sys.argv[0] = 'mixnorm'; main_entry()"
    return [sys.executable, "-c", code, *args]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], workdir: Path):
    """Run a child to its end; returns (exit code, stdout, peak RSS in MB)."""
    with open(workdir / "stderr.txt", "ab") as err:
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=cli_env())
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(), usage.ru_maxrss / 1024.0


class CliCalls:
    """cli_calls: `mixnorm solve` and `mixnorm screen` on CSV files."""

    name = "cli_calls"
    ops = 4
    solve_qs = ("2", "1", "inf")
    screen_ratios = (0.9, 0.7, 0.5, 0.3)
    ratio = 0.5

    def gen_argv(self, seed: int, workdir: Path) -> list[str]:
        return ["gen", "--preset", "screening", "--m", "100", "--d", "1000",
                "--groups-n", "100", "--seed", str(seed), "--out-dir", str(workdir)]

    def setup(self, seed: int, workdir: Path):
        """Load the CSVs written by `mixnorm gen` with numpy's own reader."""
        self.dir = workdir
        self.B = np.loadtxt(workdir / "B.csv", delimiter=",", ndmin=2)
        self.Y = np.loadtxt(workdir / "Y.csv", delimiter=",")
        self.sizes = np.loadtxt(workdir / "groups.txt", dtype=np.int64, ndmin=1)
        self.calls = []
        data = ["--matrix", str(workdir / "B.csv"), "--response", str(workdir / "Y.csv"),
                "--groups", str(workdir / "groups.txt")]
        for q in self.solve_qs:
            self.calls.append(["solve", *data, "--q", q, "--ratio", str(self.ratio),
                               "--out", str(workdir / f"W_q{q}.csv"), "--json"])
        self.calls.append(["screen", *data, "--q", "2", "--ratios",
                           ",".join(map(str, self.screen_ratios)),
                           "--report", str(workdir / "report.csv"), "--json"])
        self.peak_rss_mb = 0.0

    def run(self, inproc: bool):
        """Each call in turn; in-process (for the traced run) or as a child."""
        outs = []
        for argv in self.calls:
            if inproc:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = mixnorm.cli.main(list(argv))
                outs.append((code, buf.getvalue()))
            else:
                code, text, rss = spawn(cli_argv(*argv), self.dir)
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
                outs.append((code, text))
        return outs

    def check(self, outs) -> list[str]:
        errs = []
        for argv, (code, text) in zip(self.calls, outs):
            if code != 0:
                errs.append(f"{argv[0]} exited {code}")
                continue
            try:
                summary = json.loads(text.strip().splitlines()[-1])
            except (ValueError, IndexError):
                errs.append(f"{argv[0]} printed no JSON summary: {text[-200:]!r}")
                continue
            q = float(argv[argv.index("--q") + 1])
            lam_max = gapcheck.dense_lambda_max(self.B, self.Y, self.sizes, q)
            e = []
            if not gapcheck.close(summary["lambda_max"], lam_max, 1e-10):
                e.append(f"lambda_max {summary['lambda_max']!r} is not {lam_max!r}")
            if argv[0] == "solve":
                e += self._check_solve(argv, summary, q, lam_max)
            else:
                e += self._check_screen(summary)
            errs.append("; ".join(e))
        return errs

    def _check_solve(self, argv, summary, q, lam_max) -> list[str]:
        e = []
        lam = summary["lambda"]
        if not gapcheck.close(lam, self.ratio * lam_max, 1e-10):
            e.append(f"lambda {lam!r} is not {self.ratio} * lambda_max")
        x = np.loadtxt(argv[argv.index("--out") + 1], delimiter=",")
        P, D = gapcheck.dense_gap(self.B, self.Y, x, self.sizes, q, lam)
        gap = gapcheck.relative_gap(P, D)
        if not gap <= GAP_BOUND[self.name]:
            e.append(f"q={q}: relative gap {gap:.3e} above {GAP_BOUND[self.name]:.0e}")
        if not gapcheck.close(summary["objective"], P):
            e.append(f"q={q}: reported objective {summary['objective']!r} is not {P!r}")
        return e

    def _check_screen(self, summary) -> list[str]:
        n = len(self.screen_ratios)
        rows = (self.dir / "report.csv").read_text().strip().splitlines()
        e = []
        if summary["steps"] != n or len(rows) != n + 1:
            e.append(f"screen report has {len(rows) - 1} rows and "
                     f"{summary['steps']} steps, not {n}")
        return e


WORKLOADS = {w.name: w for w in (ScreenedPath, GeneralQPlain, MultitaskScreened, CliCalls)}


def time_import_probe() -> float:
    """Seconds a fresh interpreter spends in `import mixnorm.cli`."""
    code = ("import time; t = time.perf_counter(); import mixnorm.cli; "
            "print(time.perf_counter() - t)")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=cli_env(), timeout=120, check=True)
    return float(p.stdout.strip())
