#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark (`perfbench/`) and the `ssj-node` binary from source,
then runs workloads and prints every metric by name and unit. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload tweet-threads --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --repeat 10   # medians, quartiles, spread vs bound

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. Run from the repository root; build
output goes to `$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["tweet-threads", "enron-threads", "aol-tcp", "tweet-chaos"]
# One run must end well inside 180 s; a run that hangs is killed.
RUN_TIMEOUT_S = 170


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Builds both binaries; False (with cargo's output on stderr) on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for args in (
        ["--manifest-path", str(HERE / "Cargo.toml")],
        ["-p", "ssj-cli", "--bin", "ssj-node"],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (output lines, result dict or None)."""
    release = target_dir() / "release"
    cmd = [
        str(release / "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--node-bin", str(release / "ssj-node"),
    ]
    if trace:
        spans = target_dir() / "perfbench" / f"spans-{workload}-seed{seed}.jsonl"
        cmd += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        print(f"run.py: {workload} seed {seed} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return out.splitlines(), None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"run.py: {workload} seed {seed} exited with {done.returncode}", file=sys.stderr)
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: {workload} seed {seed} printed no result line", file=sys.stderr)
        return lines, None
    return lines, result


def bounds():
    """End-to-end bounds from BENCHMARK.json, by metric name."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def fmt(v):
    return f"{v:.6g}"


def summary_line(results, metrics):
    """The closing JSON object over several runs' results, with `metrics`
    keyed workload.metric."""
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def run_all(names, args):
    results = []
    for w in names:
        lines, result = run_one(w, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1] if result else lines))
        if result is None:
            return 1
        results.append((w, result))
        print()
    print(f"{'workload':<15} {'metric':<32} {'value':>16} unit")
    for w, r in results:
        for name, m in r["metrics"].items():
            print(f"{w:<15} {name:<32} {fmt(m['value']):>16} {m['unit']}")
        frac = r["failed"] / r["attempted"] if r["attempted"] else 0.0
        print(f"{w:<15} {'failed_frac':<32} {fmt(frac):>16} frac")
    metrics = {f"{w}.{k}": m for w, r in results for k, m in r["metrics"].items()}
    print(summary_line([r for _, r in results], metrics))
    return 0


def repeat(names, args):
    """N runs per workload with seeds seed..seed+N-1, alternating the
    workload order; prints each metric's median, quartiles and spread
    (interquartile distance over median) against its bound, then one JSON
    line of medians over every run."""
    limits = bounds() if args.trace == 0 else {}
    samples = {w: {} for w in names}
    runs = {w: [] for w in names}
    for i in range(args.repeat):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            seed = args.seed + i
            started = time.monotonic()
            _, result = run_one(w, seed, args.seconds, args.trace)
            took = time.monotonic() - started
            if result is None:
                return 1
            runs[w].append(result)
            shown = ", ".join(f"{k}={fmt(m['value'])}" for k, m in result["metrics"].items()
                              if not args.trace)
            print(f"[{i + 1}/{args.repeat}] {w} seed {seed} ({took:.1f} s): correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
            for k, m in result["metrics"].items():
                samples[w].setdefault(k, []).append(m["value"])
    print()
    print(f"{'workload':<15} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>7}")
    over = 0
    for w in names:
        for k, xs in samples[w].items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = limits.get(k)
            note = ""
            if bound is not None:
                if spread > bound:
                    note = "SPREAD ABOVE BOUND"
                    over += 1
                elif spread > bound / 3:
                    note = "spread above a third of the bound"
            print(f"{w:<15} {k:<32} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                  f"{spread * 100:>7.2f}% {'' if bound is None else f'{bound * 100:.0f}%':>7} {note}")
    if over:
        print(f"{over} end-to-end metric(s) spread wider than their bound")
    medians = {
        f"{w}.{k}": {"value": statistics.median(xs), "unit": runs[w][0]["metrics"][k]["unit"]}
        for w in names for k, xs in samples[w].items()
    }
    print(summary_line([r for w in names for r in runs[w]], medians))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0, help="runs per workload (repeat mode)")
    args = p.parse_args()

    if not build():
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat > 0:
        return repeat(names, args)
    if len(names) > 1:
        return run_all(names, args)
    lines, result = run_one(names[0], args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
