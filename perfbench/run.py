#!/usr/bin/env python3
"""Repository benchmark: builds the library and the perfbench driver from
source, runs one workload, and prints the result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --help

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build)/perfbench; traced runs also write a Chrome/Perfetto trace of
their spans to .../traces/.  Build output and diagnostics go to stderr.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = HERE / "spec.json"


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def help_text():
    spec = load_json(SPEC)
    bench = load_json(ROOT / "BENCHMARK.json")
    lines = [__doc__.strip(), "", "workloads:"]
    for w in bench["workloads"]:
        lines.append(f"  {w['name']:<16} {w['why']}")
    lines.append("")
    lines.append("end-to-end metrics (--trace 0):")
    for m in bench["end_to_end"]:
        lines.append(f"  {m['name']:<24} [{m['unit']}] {m['better']} is better, "
                     f"regression bound {m['bound']:.0%}")
        lines.append(f"      {spec['end_to_end_meaning'][m['name']]}")
    lines.append(f"  {spec['clock_note']}")
    lines.append("")
    lines.append("per-layer metrics (--trace 1) -> end-to-end metric they "
                 "should move, on which workloads:")
    moves = spec["layer_map"]
    for m in bench["per_layer"]:
        target = moves.get(m["name"], "")
        lines.append(f"  {m['name']:<28} [{m['unit']}] {target}")
    lines.append("")
    lines.append(f"default seed {spec['default_seed']} (outputs pinned in "
                 f"perfbench/spec.json); a claimed gain must also hold on the "
                 f"held-out seed {spec['held_out_seed']}.")
    return "\n".join(lines)


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main():
    if "--help" in sys.argv[1:] or "-h" in sys.argv[1:]:
        print(help_text())
        return 0
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    spec = load_json(SPEC)
    if args.workload not in spec["pins"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.seed == spec["default_seed"]:
        cmd += ["--expect-digest", spec["pins"][args.workload]]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, check=False)
    if proc.returncode != 0:
        print(f"perfbench exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    out = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(out[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
