#!/usr/bin/env python3
"""The repository benchmark: builds `perfbench` and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The workloads and metrics are declared in BENCHMARK.json. `--trace 0`
reports every end-to-end metric; `--trace 1` reports every per-layer
metric (a layer the workload does not exercise reads 0) and writes the
run's spans to `.bench_out/spans-<workload>-seed<N>.jsonl`. Every run
prints a stamp (cores, git rev, source digest, build profile, rustc),
human-readable notes, and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

The Rust package is built with cargo into $CARGO_TARGET_DIR, or
`.bench_build` under the current directory when that is unset.
`--self-test` runs every workload briefly in both modes and checks that
each prints every metric BENCHMARK.json names, with its unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PROFILE = "release"
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary and returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "-j", "2",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), PROFILE, "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(workload, seed, seconds, trace):
    return {
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "unavailable",
        "source_sha256": source_digest(),
        "profile": PROFILE,
        "rustc": command_output(["rustc", "--version"]) or "unavailable",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH}: {e}")


def measure(spec, workload, seed, seconds, trace):
    """Runs one workload; returns (notes, result, natively measured names)."""
    names = {w["name"] for w in spec["workloads"]}
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; BENCHMARK.json has {sorted(names)}")
    binary = build()
    st = stamp(workload, seed, seconds, trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tmp", tmp, "--stamp", json.dumps(st)]
    if trace:
        cmd += ["--spans-out", os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")]
    try:
        # A run measures for about `seconds`, plus the set-up and drain
        # of each server it starts.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * seconds + 60)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload} did not finish: {e}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with code {done.returncode}")
    try:
        raw = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{workload} printed no result line: {e}")

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    produced = raw["metrics"]
    for name, m in produced.items():
        if units.get(name) != m["unit"]:
            raise BenchError(f"{workload} reported {name} [{m['unit']}], "
                             f"which BENCHMARK.json does not declare with that unit")
    metrics = {}
    missing = []
    for name, unit in units.items():
        if name in produced:
            metrics[name] = {"value": produced[name]["value"], "unit": unit}
        elif trace:
            # A layer this workload never calls: its count and time are 0.
            metrics[name] = {"value": 0, "unit": unit}
            missing.append(name)
        else:
            raise BenchError(f"{workload} did not report end-to-end metric {name}")
    notes = [f"stamp {json.dumps(st)}"] + lines[:-1]
    for name, m in metrics.items():
        notes.append(f"{name} = {m['value']} {m['unit']}")
    if missing:
        notes.append(f"layers not exercised by {workload} (reported as 0): {', '.join(missing)}")
    for v in raw.get("violations", []):
        notes.append(f"VIOLATION: {v}")
    notes.append(f"correctness: {'PASS' if raw['correct'] else 'FAIL'}")
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    return notes, result, set(produced)


def self_test(spec):
    """Every workload, both modes, briefly: every declared metric is
    printed with its unit, every per-layer metric is measured by some
    workload, and every run is correct."""
    problems = []
    measured_layers = set()
    for w in spec["workloads"]:
        for trace in (0, 1):
            notes, result, native = measure(spec, w["name"], 1, 2, trace)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w['name']} trace {trace}: {m['name']} [{m['unit']}] missing")
            if not trace and any(result["metrics"][m["name"]]["value"] == 0 for m in declared):
                problems.append(f"{w['name']}: an end-to-end metric read 0")
            if trace:
                measured_layers |= native
            if not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: correctness FAIL")
            print(f"self-test {w['name']} trace {trace}: "
                  f"{len(result['metrics'])} metrics, correct={result['correct']}")
    for m in spec["per_layer"]:
        if m["name"] not in measured_layers:
            problems.append(f"per-layer metric {m['name']} is measured by no workload")
    for p in problems:
        print(f"self-test: {p}")
    print(f"self-test: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.self_test:
            return self_test(spec)
        if not args.workload:
            ap.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        notes, result, _ = measure(spec, args.workload, args.seed, seconds, args.trace)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
