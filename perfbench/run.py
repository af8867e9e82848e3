"""mixnorm benchmark: one workload, run for a fixed time, checked, reported.

    python3 perfbench/run.py --workload screen91_q2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
The run repeats whole rounds of the workload until ``--seconds`` have
passed, checks every operation of every round (see workloads.py), and
prints one JSON object as its last line:

  --trace 0   end-to-end metrics: setup_s, wall_s (median round), peak_rss_mb
  --trace 1   per-layer metrics from spans around the calls between modules;
              the spans are also written to perfbench/out/ and a breakdown
              table is printed before the JSON line

It exits non-zero without a result when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set the workload up, print 'ready', exit")
    return ap.parse_args(argv)


def measure_setup(args, wl, workdir: Path) -> float:
    """Median seconds from starting a fresh process until its inputs are
    ready: interpreter start, imports and input generation."""
    from workloads import cli_argv, spawn
    times = []
    for _ in range(SETUP_REPEATS):
        if wl.name == "cli_calls":
            t0 = time.perf_counter()
            code, _, _ = spawn(cli_argv(*wl.gen_argv(args.seed, workdir)), workdir)
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"mixnorm gen exited {code}")
            continue
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                "--seed", str(args.seed), "--setup-probe"]
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        line = p.stdout.readline()
        times.append(time.perf_counter() - t0)
        p.stdout.read()
        p.stdout.close()
        if p.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import mixnorm from the checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            wl.setup(args.seed, workdir)
            print("ready", flush=True)
            return 0
        return run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl, workdir: Path) -> int:
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        for name in tracer.missing:
            print(f"missing boundary: {name}", file=sys.stderr)
        with tracer.root("setup"):
            if wl.name == "cli_calls":
                import mixnorm.cli
                with contextlib.redirect_stdout(io.StringIO()):
                    code = mixnorm.cli.main(wl.gen_argv(args.seed, workdir))
                if code != 0:
                    raise RuntimeError(f"mixnorm gen exited {code}")
            wl.setup(args.seed, workdir)
    else:
        setup_s = measure_setup(args, wl, workdir)
        wl.setup(args.seed, workdir)

    walls, probes = [], []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall = None
        try:
            if tracer:
                with tracer.root("round"):
                    out = wl.run(inproc=True)
            else:
                out = wl.run(inproc=False)
            wall = time.perf_counter() - t0
            errs = wl.check(out)
        except Exception:  # a raising round fails all of its operations
            errs = [traceback.format_exc()] * wl.ops
        walls.append(wall if wall is not None else time.perf_counter() - t0)
        attempted += len(errs)
        bad = [e for e in errs if e]
        failed += len(bad)
        problems += bad
        if tracer and wl.name == "cli_calls":
            probes.append(workloads.time_import_probe())
        if time.perf_counter() - start >= args.seconds:
            break

    for p in problems[:5]:
        print(f"FAILED: {p}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if tracer:
        tracer.uninstall()
        span_list = tracer.finish()
        metrics = spans.layer_metrics(span_list, probes)
        path = OUT / f"spans-{wl.name}-{args.seed}.json"
        path.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                    "missing": tracer.missing, "import_probes": probes,
                                    "spans": span_list}))
        print_breakdown(wl.name, metrics, span_list, tracer.missing)
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in spans.PER_LAYER}
    else:
        peak = (wl.peak_rss_mb if wl.name == "cli_calls"
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    print(json.dumps(result))
    return 0


def print_breakdown(name, metrics, span_list, missing):
    import spans

    """Self time per layer against the traced set-up plus one round."""
    def durations(kind):
        return [span_list[i][2] - span_list[i][1] for i in spans.roots(span_list, kind)]

    rounds = durations("round")
    setup, wall = sum(durations("setup")), statistics.median(rounds)
    print(f"{name}: traced set-up {setup:.4f} s in-process, round {wall:.4f} s "
          f"(median of {len(rounds)}); shares are of set-up + round")
    for key in ("prox.s", "solver.self_s", "screening.s", "screening.reduce_s",
                "path.self_s", "synth.s", "csvio.read_s", "csvio.write_s", "cli.inproc_s"):
        print(f"  {key:<26} {metrics[key]:10.4f} s {metrics[key] / (setup + wall):7.1%}")
    if metrics["solver.s"]:
        print(f"  {'prox share of solve time':<26} {metrics['prox.s'] / metrics['solver.s']:10.1%}")
    for key in ("prox.calls", "prox.call_ms", "prox.q1_5.call_ms", "prox.q3.call_ms",
                "solver.solves", "solver.iterations", "solver.backtracks",
                "solver.unconverged", "solver.matvecs", "solver.matvec_gb",
                "screening.reduce_gb", "screening.groups_kept",
                "screening.rejection_ratio", "path.points", "cli.import_s"):
        print(f"  {key:<26} {metrics[key]:10.6g}")
    for m in missing:
        print(f"  missing boundary: {m}")


if __name__ == "__main__":
    sys.exit(main())
