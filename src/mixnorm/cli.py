"""Command-line front end.

Subcommands: prox, solve, screen, path, gen, oracle.  Exit codes: 0 on
success, 1 on usage errors, 2 on numerical or validation errors.  Every
subcommand takes ``--config FILE`` (key=value lines injected as defaults)
and ``--json`` (machine-readable summary on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import csvio
from .errors import InputError, MixnormError
from .model import ZERO_GROUP_NORM, ProblemInstance, group_norms
from .path import (PathSpec, geometric_ratios, linear_ratios, run_path,
                   stacked_instance)
from .prox import ProxParams, prox_group
from .screening import lambda_max
from .solver import SolverConfig, solve
from .synth import SynthSpec, gen_joint_sparse, gen_screening_instance


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        raise _UsageError(message)


def _parse_ratios(text: str) -> np.ndarray:
    """Either 'r1,r2,...' or 'start:stop:count' (inclusive linear grid)."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise _UsageError("ratio range must be start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            return np.linspace(start, stop, count)
        return np.array([float(t) for t in text.split(",") if t])
    except ValueError:
        raise _UsageError(f"cannot parse ratios {text!r}")


def _parse_corr(text: str) -> tuple[float, float]:
    """'lo:hi'; argparse reports the ValueError of any other shape."""
    lo, hi = (float(x) for x in text.split(":"))
    return lo, hi


def _attach_corr_value(argv: list[str]) -> list[str]:
    """Rewrite '--corr -0.5:0.5' as '--corr=-0.5:0.5'.

    argparse takes a separate value that starts with '-' and is not a plain
    number for an option, so a range with a negative lower end needs the
    attached spelling.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--corr" and arg.startswith("-"):
            out[-1] = f"--corr={arg}"
        else:
            out.append(arg)
    return out


def _with_file(spec: str, mode: str, use):
    """use(f) on the file a flag names; '-' names stdin (mode 'r') or stdout ('w')."""
    if spec == "-":
        return use(sys.stdin if mode == "r" else sys.stdout)
    try:
        f = open(spec, mode)
    except OSError as exc:
        raise InputError(f"could not open {spec}: {exc}") from exc
    with f:
        return use(f)


def _read_text(spec: str) -> str:
    return _with_file(spec, "r", lambda f: f.read())


def _write_text(spec: str, text: str) -> None:
    _with_file(spec, "w", lambda f: f.write(text + "\n"))


def _read_key_values(path: str, what: str) -> list[tuple[str, str]]:
    """(key, value) pairs of a key=value file, skipping blank and # lines."""
    pairs: list[tuple[str, str]] = []
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"bad {what} line (want key=value): {raw!r}")
        key, val = line.split("=", 1)
        pairs.append((key.strip(), val.strip()))
    return pairs


def _read_config(path: str) -> list[str]:
    """key=value lines -> injected argv chunk ['--key', 'value', ...]."""
    return [arg for key, val in _read_key_values(path, "config") for arg in (f"--{key}", val)]


def _load_instance(ns, q: float, lam: float = 0.0) -> ProblemInstance:
    if not (ns.matrix and ns.response and ns.groups):
        raise _UsageError(f"{ns.command} needs --matrix, --response and --groups")
    B = csvio.read_matrix(ns.matrix)
    Y = csvio.read_vector(ns.response)
    part = csvio.read_group_sizes(ns.groups)
    return ProblemInstance(B, Y, part, q, lam)


def _resolve_lambda(inst: ProblemInstance, ns) -> tuple[float, float]:
    lmax = lambda_max(inst).value
    if ns.lam is not None:
        return float(ns.lam), lmax
    return float(ns.ratio) * lmax, lmax


def _emit(ns, summary: dict, text: str | None = None) -> None:
    """The JSON summary under --json, else the text, if there is one."""
    if ns.json:
        print(json.dumps(summary, sort_keys=True))
    elif text is not None:
        print(text)


def _path_totals(result) -> dict:
    """Sums over the steps of a path, for the --json summaries."""
    return {"groups_kept": int(result.groups_kept.sum()),
            "screen_time": float(result.screen_times.sum()),
            "solve_time": float(result.solve_times.sum()),
            "mean_rejection": float(result.rejection_ratios.mean()),
            "iterations": int(result.iterations.sum()),
            "backtracks": int(result.backtracks.sum()),
            "restarts": int(result.restarts.sum()),
            "prox_sweeps": int(result.prox_sweeps.sum()),
            "prox_joint_steps": int(result.prox_joint_steps.sum()),
            "max_gap": float(result.gaps.max())}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_prox(ns) -> int:
    v = csvio.parse_vector_text(_read_text(ns.infile))
    params = ProxParams(lam=ns.lam, q=ns.q)
    x = prox_group(v, params)
    _write_text(ns.out, csvio.format_vector_line(x))
    _emit(ns, {"n": int(v.size), "q": ns.q, "lambda": ns.lam,
               "norm_in": float(np.linalg.norm(v)), "norm_out": float(np.linalg.norm(x))})
    return 0


def _cmd_solve(ns) -> int:
    inst = _load_instance(ns, ns.q)
    lam, lmax = _resolve_lambda(inst, ns)
    inst = inst.with_lam(lam)
    config = SolverConfig(L0=ns.l0, max_iters=ns.max_iters, tol=ns.tol)
    res = solve(inst, config)
    if ns.out:
        _with_file(ns.out, "w", lambda f: csvio.write_vector(f, res.solution.values))
    if ns.history:
        _with_file(ns.history, "w", lambda f: csvio.write_vector(f, res.f_history))
    norms = group_norms(res.solution.values, inst.partition, inst.q)
    nnz = int(np.count_nonzero(norms > ZERO_GROUP_NORM))
    _emit(ns, {
        "lambda": lam, "lambda_max": lmax, "objective": float(res.f_history[-1]),
        "iterations": res.iterations, "converged": res.converged, "nonzero_groups": nnz,
        "restarts": res.restarts, "backtracks": res.backtracks,
        "prox_sweeps": res.prox_sweeps, "prox_joint_steps": res.prox_joint_steps,
        "gap": res.gap,
    }, f"objective {res.f_history[-1]:.12g} after {res.iterations} iterations "
       f"({nnz} active groups)")
    return 0


def _cmd_screen(ns) -> int:
    inst = _load_instance(ns, ns.q)
    seq = run_path(inst, PathSpec(ratios=tuple(_parse_ratios(ns.ratios)), screening=True,
                                  solver=SolverConfig(tol=ns.tol)))
    lines = ["lambda,rejection_ratio,groups_kept,screen_time,solve_time"]
    for st in seq.steps:
        lines.append(f"{st.lam:.17g},{st.rejection_ratio:.6f},{st.groups_kept},"
                     f"{st.screen_time:.6g},{st.solve_time:.6g}")
    _write_text(ns.report, "\n".join(lines))
    _emit(ns, {"lambda_max": seq.lam_max, "steps": len(seq.steps),
               "unconverged_steps": seq.unconverged_steps, **_path_totals(seq)})
    return 0


def _parse_synth_file(path: str) -> tuple[str, SynthSpec]:
    kv = dict(_read_key_values(path, "synthetic spec"))
    preset = kv.pop("preset", "screening")
    fields = {}
    for key, caster in (("m", int), ("d", int), ("k", int), ("d_tilde", int),
                        ("sigma", float), ("num_groups", int), ("seed", int),
                        ("entry_dist", str)):
        if key in kv:
            try:
                fields[key] = caster(kv.pop(key))
            except ValueError as exc:
                raise InputError(f"bad synthetic spec value for {key}: {exc}") from exc
    if kv:
        raise InputError(f"unknown synthetic spec keys: {sorted(kv)}")
    return preset, SynthSpec(**fields)


def _synth_instance(preset: str, sspec: SynthSpec, q: float):
    """(instance, X_true) a preset draws from sspec; X_true is None for screening data."""
    if preset == "screening":
        return gen_screening_instance(sspec, q=q), None
    if preset == "joint-sparse":
        A, X_true, Y = gen_joint_sparse(sspec)
        return stacked_instance(A, Y, q, 0.0), X_true
    raise InputError(f"unknown preset {preset!r}")


def _cmd_path(ns) -> int:
    if ns.synthetic:
        inst, _ = _synth_instance(*_parse_synth_file(ns.synthetic), ns.q)
    else:
        inst = _load_instance(ns, ns.q)

    if ns.grid == "linear91":
        ratios = linear_ratios()
    elif ns.grid == "geo09":
        ratios = geometric_ratios()
    elif ns.grid.startswith("custom:"):
        ratios = _parse_ratios(ns.grid[len("custom:"):])
    else:
        raise _UsageError(f"unknown grid {ns.grid!r}")

    spec = PathSpec(ratios=tuple(ratios), screening=(ns.screening == "on"),
                    solver=SolverConfig(tol=ns.tol),
                    store_solutions=ns.save_solutions)
    t0 = time.perf_counter()
    result = run_path(inst, spec)
    wall = time.perf_counter() - t0

    outdir = Path(ns.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["lambda,ratio,objective,iterations,groups_kept,rejection_ratio,"
             "solve_time,screen_time"]
    for st, ratio in zip(result.steps, result.ratios):
        lines.append(
            f"{st.lam:.17g},{ratio:.17g},{st.objective:.17g},{st.iterations},"
            f"{st.groups_kept},{st.rejection_ratio:.6f},"
            f"{st.solve_time:.6g},{st.screen_time:.6g}")
    (outdir / "stats.csv").write_text("\n".join(lines) + "\n")
    summary = (
        f"points {len(result.steps)}\n"
        f"lambda_max {result.lam_max:.17g}\n"
        f"screening {'on' if result.screening else 'off'}\n"
        f"total_solve_time {result.solve_times.sum():.6g}\n"
        f"total_screen_time {result.screen_times.sum():.6g}\n"
        f"wall_time {wall:.6g}"
    )
    (outdir / "summary.txt").write_text(summary + "\n")
    if ns.save_solutions:
        for i, sol in enumerate(result.solutions):
            csvio.write_vector(outdir / f"solution_{i:03d}.csv", sol)
    _emit(ns, {"points": len(result.steps), "lambda_max": result.lam_max,
               "screening": result.screening, "wall_time": wall,
               "unconverged_steps": result.unconverged_steps, **_path_totals(result)},
          summary)
    return 0


def _cmd_gen(ns) -> int:
    sspec = SynthSpec(m=ns.m, d=ns.d, k=ns.k, d_tilde=ns.dtilde, sigma=ns.sigma,
                      entry_dist=ns.dist, num_groups=ns.groups_n, corr_range=ns.corr,
                      seed=ns.seed)
    inst, X_true = _synth_instance(ns.preset, sspec, 2.0)
    outdir = Path(ns.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if X_true is None:
        csvio.write_matrix(outdir / "B.csv", inst.B)
    else:
        csvio.write_matrix(outdir / "X_true.csv", X_true)
        csvio.write_matrix(outdir / "B.csv", inst.B.toarray())
    csvio.write_vector(outdir / "Y.csv", inst.Y)
    csvio.write_group_sizes(outdir / "groups.txt", inst.partition)
    shape = {"m": inst.m, "p": inst.p, "groups": inst.partition.s}
    _emit(ns, {"preset": ns.preset, "seed": ns.seed, **shape},
          f"wrote {ns.preset} data to {outdir} ({shape['m']}x{shape['p']}, "
          f"{shape['groups']} groups)")
    return 0


def _cmd_oracle(ns) -> int:
    from .oracle import prox_oracle_grid, reference_solve
    if ns.mode == "grid-prox":
        v = csvio.parse_vector_text(_read_text(ns.infile))
        x = prox_oracle_grid(v, ns.lam, ns.q, resolution=ns.resolution)
        _write_text(ns.out, csvio.format_vector_line(x))
        return 0
    inst = _load_instance(ns, ns.q, ns.lam)
    ref = reference_solve(inst, tol=ns.tol, max_iters=ns.max_iters)
    _write_text(ns.out, csvio.format_vector_line(ref.solution.values))
    print(f"objective {ref.objective:.12g} residual {ref.residual:.3g} "
          f"iterations {ref.iterations} converged {ref.converged}")
    return 0


# ---------------------------------------------------------------------------

def _add_data_files(sp, required: bool) -> None:
    for flag in ("--matrix", "--response", "--groups"):
        sp.add_argument(flag, required=required)


def _add_common(sp) -> None:
    sp.add_argument("--json", action="store_true", help="print a JSON summary")
    sp.add_argument("--config", help="key=value file supplying flag defaults")


def build_parser() -> _Parser:
    parser = _Parser(prog="mixnorm",
                     description="l1/lq-regularized least squares: prox, solver, screening")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prox", help="apply the group prox to one vector")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--in", dest="infile", default="-", help="input vector file or - for stdin")
    p.add_argument("--out", default="-", help="output file or - for stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_prox)

    p = sub.add_parser("solve", help="solve one instance")
    _add_data_files(p, required=True)
    p.add_argument("--q", type=float, default=2.0)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float)
    group.add_argument("--ratio", type=float)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--l0", type=float, default=None)
    p.add_argument("--out", help="solution CSV file or - for stdout")
    p.add_argument("--history", help="objective history CSV file or - for stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("screen", help="sequential screening down a ratio grid")
    _add_data_files(p, required=True)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--ratios", required=True,
                   help="'r1,r2,...' or 'start:stop:count'")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--report", default="-", help="report CSV file or - for stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("path", help="regularization path with optional screening")
    _add_data_files(p, required=False)
    p.add_argument("--synthetic", help="synthetic data spec file (key=value)")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--grid", default="linear91",
                   help="linear91, geo09, or custom:r1,r2,...")
    p.add_argument("--screening", choices=("on", "off"), default="off")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--save-solutions", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("gen", help="write synthetic data files")
    p.add_argument("--preset", choices=("joint-sparse", "screening"), required=True)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--d", type=int, default=100)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--dtilde", type=int, default=10)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--dist", choices=("uniform01", "standard_normal"), default="uniform01")
    p.add_argument("--groups-n", type=int, default=20,
                   help="group count for the screening preset")
    p.add_argument("--corr", type=_parse_corr, default=(-0.8, 0.8),
                   help="correlation range lo:hi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="slow reference computations (validation)")
    p.add_argument("--mode", choices=("grid-prox", "refsolve"), default="grid-prox")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-", help="output file or - for stdout")
    _add_data_files(p, required=False)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200000)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def _config_file(argv: list[str]) -> str | None:
    """The FILE of '--config FILE' or '--config=FILE'; argparse reports a missing one."""
    for arg, after in zip(argv, argv[1:] + [None]):
        if arg == "--config":
            return after
        if arg.startswith("--config="):
            return arg[len("--config="):]
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # inject config-file entries right after the subcommand so explicit
        # flags (parsed later) win
        config = _config_file(argv)
        if config is not None:
            argv = argv[:1] + _read_config(config) + argv[1:]
        ns = parser.parse_args(_attach_corr_value(argv))
        if ns.config != config:
            # an abbreviation such as --conf, which argparse accepts
            raise _UsageError("spell the option out: --config FILE or --config=FILE")
        return ns.func(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except MixnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
