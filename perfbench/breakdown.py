"""Per-layer breakdown of one workload, with the tracing overhead.

    python3 perfbench/breakdown.py --workload genq_plain [--seed 1] [--seconds 20]

Runs the benchmark twice in fresh processes, untraced and traced, prints the
traced run's per-layer table, and sets the traced round time against the
untraced wall_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent


def bench(args, trace: int) -> tuple[list[str], dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    p = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"benchmark run failed (exit {p.returncode}):\n{p.stderr}")
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()

    _, plain = bench(args, 0)
    table, traced = bench(args, 1)
    print("\n".join(table))
    span_list = json.loads(
        (BENCH / "out" / f"spans-{args.workload}-{args.seed}.json").read_text())["spans"]
    rounds = spans.roots(span_list, "round")
    round_walls = [span_list[i][2] - span_list[i][1] for i in rounds]
    wall = plain["metrics"]["wall_s"]["value"]
    traced_wall = statistics.median(round_walls)
    print(f"untraced wall_s {wall:.4f} s, setup_s {plain['metrics']['setup_s']['value']:.4f} s, "
          f"peak_rss_mb {plain['metrics']['peak_rss_mb']['value']:.1f}")
    if args.workload == "cli_calls":
        # the traced run calls the CLI in-process: its round has no process
        # start, imports or exit, so it cannot show the tracing overhead
        calls = sum(s[0] == "cli" and s[3] in set(rounds) for s in span_list) // len(rounds)
        imports = calls * traced["metrics"]["cli.import_s"]["value"]
        print(f"traced round {traced_wall:.4f} s + {calls} x cli.import_s {imports:.4f} s; "
              f"the other {(wall - traced_wall - imports) / calls:.4f} s a call is "
              f"process start and exit")
    else:
        print(f"tracing overhead: {traced_wall / wall - 1.0:+.1%} of wall_s")
    print(f"correct: untraced {plain['correct']}, traced {traced['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
