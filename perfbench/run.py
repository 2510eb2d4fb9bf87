#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload warm_perleg --seed 42 --seconds 25 --trace 0

Run it from the root of a checkout. The first call builds perfbench/
(which compiles the libraries under src/ unchanged) into a directory
named after a hash of those sources, so two versions of the code never
share a build or a trace store. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 runs timed sweeps for --seconds and prints the end-to-end
metrics. --trace 1 runs the traced pass and prints the per-layer
metrics. Every leg of every sweep is checked against the golden files
under perfbench/golden/ or, for a seed without them, against the same
legs run through the other execution path. README.md describes the
workloads and metrics; NOISE.md explains the run design.

--write-golden runs each workload once at --seed and writes its legs
as that seed's golden files.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = ROOT / "perfbench"
GOLDEN = BENCH / "golden"
WORKLOADS = ("warm_perleg", "warm_fused", "cold_suite")
WARM = ("warm_perleg", "warm_fused")
JOBS = 4
# Set-up-only processes started before each timed sweep, so setup_s is
# a median of samples spread over the whole run.
SETUP_PROBES = 3
# A run ends within 180 s; building is not counted.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def pinned_env():
    """The environment of every measured process. Each GHRP_* variable
    silently changes what runSuite does (trace store, fused, phase
    window, report and trace output, log level, AVX2 dispatch), so none
    is passed on."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GHRP_")}


def source_hash():
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(BENCH.glob("*.cc")) + [BENCH / "CMakeLists.txt"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    """Build the measuring binary once per version of the sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}; "
                         "run from the root of a full checkout")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (ROOT / out / f"perfbench-{source_hash()}").resolve()
    binary = build_dir / "ghrp_perfbench"
    stamp = build_dir / "built.ok"
    if stamp.is_file() and binary.is_file():
        return build_dir, binary
    log(f"perfbench: building {build_dir}")
    for cmd in (["cmake", "-S", str(BENCH), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "-j", str(JOBS),
                 "--target", "ghrp_perfbench"]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode:
            log(r.stdout[-6000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")
    stamp.write_text("ok\n")
    return build_dir, binary


class Runner:
    """Starts the measuring binary, each call bounded by the run budget."""

    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline
        self.env = pinned_env()

    def __call__(self, *args):
        """Run the binary; returns its last stdout line as JSON. The
        --spawn-ns argument is the CLOCK_MONOTONIC time of the start."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        cmd = [str(self.binary)] + [str(a) for a in args]
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
        r = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=remaining)
        if r.returncode:
            log(r.stderr[-4000:])
            raise BenchError(f"{' '.join(cmd[:3])} exited {r.returncode}")
        return json.loads(r.stdout.strip().splitlines()[-1])


def primed_store(run, build_dir, seed):
    """The build's trace store for `seed`, primed on first use. Priming
    is outside every measurement. One seed's store is ~0.7 GB, so only
    the seed in use is kept."""
    stores = build_dir / "store"
    store = stores / f"seed-{seed}"
    stamp = store / "primed.ok"
    if not stamp.is_file():
        if stores.is_dir():
            shutil.rmtree(stores)
        log(f"perfbench: priming {store}")
        run("--mode", "prime", "--seed", seed, "--store", store)
        stamp.write_text("ok\n")
    return store


def read_legs(path):
    legs = {}
    with open(path) as f:
        for line in f:
            leg = json.loads(line)
            legs[(leg["trace"], leg["policy"])] = leg
    return legs


def without_phases(leg):
    return {k: v for k, v in leg.items() if k != "phases"}


def disagreeing(legs, others, drop_phases=False):
    """Keys of `legs` whose counters differ from, or are missing in,
    `others` (phase records ignored with drop_phases)."""
    strip = without_phases if drop_phases else (lambda leg: leg)
    return {k for k, leg in legs.items()
            if k not in others or strip(leg) != strip(others[k])}


def golden_reference(workload, seed):
    """The seed's golden legs of `workload` and the keys of legs whose
    goldens disagree across workloads, or None when the seed has no
    golden. warm_perleg and warm_fused must agree leg for leg (phase
    records aside) and cold_suite's legs must equal warm_perleg's."""
    directory = GOLDEN / f"seed-{seed}"
    if not directory.is_dir():
        return None
    g = {w: read_legs(directory / f"{w}.jsonl") for w in WORKLOADS}
    bad = (disagreeing(g["warm_perleg"], g["warm_fused"], True)
           | disagreeing(g["warm_fused"], g["warm_perleg"], True)
           | disagreeing(g["cold_suite"], g["warm_perleg"]))
    return g[workload], bad


def reference(run, build_dir, workload, seed, store):
    """Expected legs of one sweep, and keys that fail regardless. Without
    a golden, the same legs run once through the other execution path
    (per-leg instead of fused, or the reverse) stand in for it."""
    golden = golden_reference(workload, seed)
    if golden is not None:
        return golden
    path = build_dir / "reference" / f"seed-{seed}" / f"{workload}.jsonl"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        run("--mode", "run", "--workload", workload, "--seed", seed,
            "--store", store, "--other-path", "--legs-out", tmp)
        tmp.rename(path)
    return read_legs(path), set()


def count_failed(legs_path, ref, bad, store_ok):
    """Legs of one sweep that differ from the reference. A warm sweep
    that missed the store, or a cold one that used it, fails whole."""
    if not store_ok:
        log("perfbench: sweep broke the trace-store contract")
        return len(ref)
    legs = read_legs(legs_path)
    failed = {k for k in ref if k in bad or legs.get(k) != ref[k]}
    failed |= set(legs) - set(ref)
    for trace, policy in sorted(failed)[:5]:
        log(f"perfbench: leg {trace} / {policy} differs from its reference")
    return len(failed)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(run, build_dir, workload, seed, store, seconds, ref, bad):
    """Timed sweeps, one process each, until `seconds` have passed."""
    legs_path = build_dir / "legs" / f"{workload}.jsonl"
    base = ("--mode", "run", "--workload", workload, "--seed", seed,
            "--store", store)
    sweeps, setups = [], []
    attempted = failed = 0
    start = time.monotonic()
    while not sweeps or time.monotonic() - start < seconds:
        for _ in range(SETUP_PROBES):
            setups.append(run(*base, "--setup-only")["setup_s"])
        r = run(*base, "--legs-out", legs_path)
        setups.append(r["setup_s"])
        sweeps.append(r)
        attempted += len(ref)
        failed += count_failed(legs_path, ref, bad, r["store_ok"])

    instructions = sum(r["instructions"] for r in sweeps)
    timed = sum(r["timed_s"] for r in sweeps)
    per_sweep = " ".join(f"{r['instructions'] / r['timed_s'] * 1e-6:.0f}"
                         for r in sweeps)
    print(f"{workload} seed {seed}: {len(sweeps)} sweeps of {len(ref)} "
          f"legs, {timed:.2f} s timed, report {sweeps[0]['report_bytes']} "
          f"bytes; Minstr/s per sweep: {per_sweep}; {len(setups)} set-ups")
    metrics = {
        "sim_minstr_per_s": metric(instructions / timed * 1e-6, "Minstr/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            statistics.median(r["peak_rss_mb"] for r in sweeps), "MB"),
    }
    return attempted, failed, metrics


def traced(run, build_dir, workload, seed, store, ref, bad):
    """The traced run: per-layer metrics from spans around each call."""
    spans = build_dir / "spans" / f"{workload}-seed{seed}.jsonl"
    legs_path = build_dir / "legs" / f"{workload}.jsonl"
    r = run("--mode", "trace", "--workload", workload, "--seed", seed,
            "--store", store, "--spans-out", spans, "--legs-out", legs_path)
    for name, m in r["metrics"].items():
        print(f"{workload} seed {seed}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} seed {seed}: spans in {spans}")
    return len(ref), count_failed(legs_path, ref, bad, r["store_ok"]), \
        r["metrics"]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_golden(run, seed, store):
    directory = GOLDEN / f"seed-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        run("--mode", "run", "--workload", workload, "--seed", seed,
            "--store", store, "--legs-out", directory / f"{workload}.jsonl")
    _, bad = golden_reference(WORKLOADS[0], seed)
    if bad:
        raise BenchError(f"golden legs disagree across workloads: "
                         f"{sorted(bad)[:5]}")
    print(f"perfbench: wrote {directory}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    build_dir, binary = build()
    for sub in ("legs", "spans"):
        (build_dir / sub).mkdir(exist_ok=True)
    run = Runner(binary, time.monotonic() + RUN_BUDGET_S)
    # Every traced pass reads the store, so only timed cold runs skip it.
    needs_store = a.workload in WARM or a.trace or a.write_golden
    store = (primed_store(run, build_dir, a.seed) if needs_store
             else build_dir / "store" / f"seed-{a.seed}")
    if a.write_golden:
        write_golden(run, a.seed, store)
        return

    ref, bad = reference(run, build_dir, a.workload, a.seed, store)
    if a.trace:
        attempted, failed, metrics = traced(
            run, build_dir, a.workload, a.seed, store, ref, bad)
    else:
        attempted, failed, metrics = measure(
            run, build_dir, a.workload, a.seed, store, a.seconds, ref, bad)
    if set(metrics) != declared_metrics(a.trace):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ declared_metrics(a.trace))}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
