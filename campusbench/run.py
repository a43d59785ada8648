"""The repository benchmark: campus workloads through the public API.

Usage (from the root of the repository)::

    python3 campusbench/run.py --workload campus-day --seed 1 --seconds 20 --trace 0

The workloads are defined in ``workloads.py``; ``BENCHMARK.json`` lists the
gated ones.  One run simulates a fixed number of campus days for the
workload, each on its own seed derived from ``--seed`` and each in its own
single-threaded process (``rep.py``), one after another.  It then repeats
the set-up alone until ``--seconds`` wall seconds have passed and at least
four set-ups were timed; ``setup_s`` is their median.

``--trace 0`` reports the end-to-end figures: medians over the days and
set-ups of their wall times in reference seconds (the host-speed probe of
``probe.py`` samples every day and set-up, so a slow spell of a shared
host does not read as a slower program; the plain wall medians and the
host's speed are printed beside them), virtual latency percentiles over
the pooled samples of all days, and sums or means of the rest.
``--trace 1`` runs the first day twice, untraced and under the per-layer
timer (neither probed), and reports the per-layer figures of the measured
window (the day after its warm-up); the two days must produce identical
virtual outputs.

Every run checks its outputs before reporting: no acknowledged write may
be lost or read back differently, and each percentile needs enough
samples.  The human-readable report goes to standard output, a JSON record
with host facts to ``campusbench/out/``, and the last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Days simulated per run, each on its own seed.
DAYS = {"campus-day": 4, "metro-cold": 4, "coded-slow": 4, "coded-crash": 3}
MIN_SETUPS = 4
# A run must end within this many seconds; a child still running then is
# killed and the run fails.
RUN_LIMIT = 170.0

# Fewest samples a reported percentile may rest on: at least ten beyond it.
MIN_SAMPLES = {"read_p50_ms": 20, "read_p99_ms": 1000,
               "write_p50_ms": 20, "write_p90_ms": 100}

# With --trace 0 a run reports setup_s, run_s, peak_rss_mb, write_p50_ms,
# write_p90_ms, ok_share, hit_ratio, server_cpu_busiest and
# storage_overhead, each bounded in BENCHMARK.json; setup_s and run_s are
# in reference seconds.  It also prints unbounded setup_wall_s, run_wall_s
# and host_speed, and read_p50_ms, read_p99_ms and backbone_mb: from one
# seed to the next these three swing with the sizes of the few popular
# shared files (a day's read p99 and backbone bytes vary by a third to a
# half across seeds), more than any bound a regression gate can use.

# Per-layer figure -> (end-to-end figure it should move, workload where it
# is mostly spent / workloads that bypass it).  Names and units are
# BENCHMARK.json's per_layer list.
PREDICTIONS = {
    "sim.self_s": ("run_s", "metro-cold / small in campus-day"),
    "sim.events": ("run_s", "metro-cold"),
    "sim.events_per_s": ("run_s", "metro-cold"),
    "sim.cascade_share": ("run_s", "metro-cold"),
    "sim.resources.self_s": ("run_s", "coded-slow"),
    "sim.resources.requests": ("run_s", "coded-slow"),
    "sim.resources.cpu_wait_p99_ms": ("read_p99_ms", "coded-slow"),
    "sim.metrics.self_s": ("run_s, peak_rss_mb", "coded-slow, metro-cold / campus-day"),
    "sim.metrics.samples_held": ("peak_rss_mb", "coded-slow, metro-cold / campus-day"),
    "net.self_s": ("run_s", "metro-cold / campus-day"),
    "net.sends": ("run_s, backbone_mb", "metro-cold / campus-day"),
    "net.bytes": ("backbone_mb", "metro-cold / campus-day"),
    "rpc.self_s": ("run_s", "all"),
    "rpc.calls": ("run_s", "all"),
    "rpc.retransmits": ("read_p99_ms", "all"),
    "rpc.corrupt_rejected": ("ok_share", "all"),
    "rpc.marshal.self_s": ("run_s", "campus-day"),
    "rpc.marshal.calls": ("run_s", "campus-day"),
    "rpc.marshal.bytes": ("run_s", "campus-day"),
    "crypto.self_s": ("run_s", "campus-day, coded-slow / metro-cold"),
    "crypto.bytes": ("run_s", "campus-day, coded-slow / metro-cold"),
    "crypto.handshakes": ("run_s", "campus-day, coded-slow / metro-cold"),
    "net.backbone_mb": ("backbone_mb (unbounded)", "metro-cold / campus-day"),
    "venus.self_s": ("run_s, hit_ratio", "metro-cold / campus-day"),
    "venus.opens": ("hit_ratio", "all"),
    "venus.fetches": ("hit_ratio, read_p50_ms", "metro-cold / campus-day"),
    "venus.stores": ("write_p50_ms", "coded-slow"),
    "venus.evictions": ("hit_ratio", "metro-cold / campus-day"),
    "venus.cache.self_s": ("run_s", "metro-cold / campus-day"),
    "vice.self_s": ("run_s, server_cpu_busiest", "campus-day"),
    "vice.calls_served": ("server_cpu_busiest", "campus-day"),
    "vice.callback_breaks": ("hit_ratio", "coded-slow"),
    "vice.protection.self_s": ("run_s", "campus-day"),
    "vice.protection.cps_calls": ("run_s", "campus-day"),
    "vice.protection.cps_hit_ratio": ("run_s", "campus-day"),
    "vice.erasure.self_s": ("run_s, write_p50_ms, storage_overhead", "coded-slow / others"),
    "vice.erasure.encode_bytes": ("write_p50_ms", "coded-slow / others"),
    "vice.erasure.decode_bytes": ("read_p50_ms", "coded-slow / others"),
    "vice.erasure.degraded_reads": ("read_p99_ms", "coded-crash (not gated) / gated workloads"),
    "vice.erasure.rebuild_bytes": ("run_s, storage_overhead", "coded-crash (not gated) / gated workloads"),
    "vice.erasure.heartbeats": ("run_s", "coded-slow / others"),
    "vice.erasure.stripe_health_end": ("storage_overhead", "coded-crash (not gated), coded-slow / others"),
    "storage.self_s": ("run_s, setup_s", "metro-cold"),
    "storage.disk_accesses": ("read_p50_ms", "metro-cold"),
    "storage.disk_bytes": ("read_p50_ms", "metro-cold"),
    "virtue.self_s": ("run_s", "all"),
    "virtue.actions": ("run_s", "all"),
    "virtue.read_p50_ms": ("read_p50_ms (unbounded)", "all"),
    "virtue.read_p99_ms": ("read_p99_ms (unbounded)", "all"),
    "workload.self_s": ("run_s", "all"),
    "workload.actions": ("ok_share", "all"),
    "obs.self_s": ("run_s, peak_rss_mb", "coded-slow / others"),
    "obs.samples": ("run_s", "coded-slow / others"),
    "obs.sample_p50_us": ("run_s", "coded-slow / others"),
    "obs.sample_max_us": ("run_s", "coded-slow / others"),
    "faults.self_s": ("ok_share", "coded-slow / others"),
    "faults.injected": ("ok_share", "coded-slow / others"),
    "system.campus_s": ("setup_s", "metro-cold"),
    "system.provision_s": ("setup_s", "metro-cold"),
    "system.protection_s": ("setup_s", "metro-cold"),
    "trace.overhead_ratio": ("-", "all"),
    "trace.coverage": ("-", "all"),
}


def day_seed(seed: int, index: int) -> int:
    """The seed of the run's ``index``-th day (distinct across runs)."""
    return seed * 101 + index


def child(workload: str, seed: int, mode: str, deadline: float,
          probe: bool = False) -> Dict[str, Any]:
    """Run one repetition in its own process; returns its report."""
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode]
    if probe:
        command.append("--probe")
    if mode == "traced":
        os.makedirs(OUT, exist_ok=True)
        command += ["--spans", os.path.join(OUT, f"spans-{workload}-{seed}.json")]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"{mode} repetition of {workload} seed {seed}"
                           f" exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, as the program's ``Samples`` defines it."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def output_problems(report: Dict[str, Any]) -> List[str]:
    """Why a day's outputs cannot be trusted (empty when they can)."""
    problems = []
    if report["lost_writes"]:
        problems.append(f"{report['lost_writes']} acknowledged writes lost")
    back = report["read_back"]
    if back["mismatched"]:
        problems.append(f"{back['mismatched']} of {back['checked']} writes read back wrong")
    if back["checked"] == 0:
        problems.append("no acknowledged write to read back")
    return problems


def host_facts() -> Dict[str, Any]:
    digest = hashlib.sha256()
    for folder, _dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as source:
                    digest.update(source.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def reading(value: float, unit: str, samples: int = 0) -> Dict[str, Any]:
    out = {"value": value, "unit": unit}
    if samples:
        out["samples"] = samples
    return out


def end_to_end_run(workload: str, seed: int, seconds: float, deadline: float):
    """The untraced days of one run; returns (metrics, unbounded extras,
    attempted, failed, problems, detail)."""
    started = time.perf_counter()
    days = [child(workload, day_seed(seed, i), "day", deadline, probe=True)
            for i in range(DAYS[workload])]
    setups = list(days)
    index = len(days)
    while len(setups) < MIN_SETUPS or time.perf_counter() - started < seconds:
        setups.append(child(workload, day_seed(seed, index), "setup", deadline,
                            probe=True))
        index += 1
    reads = [v for d in days for v in d.pop("read_ms")]
    writes = [v for d in days for v in d.pop("write_ms")]
    attempted = sum(d["attempted"] for d in days)
    failed = sum(d["failed"] for d in days)

    def mean(key: str) -> float:
        return statistics.fmean(d[key] for d in days)

    n = len(days)
    values = {
        "setup_s": reading(statistics.median(s["setup_ref_s"] for s in setups),
                           "s", len(setups)),
        "run_s": reading(statistics.median(d["run_ref_s"] for d in days), "s", n),
        "peak_rss_mb": reading(statistics.median(d["peak_rss_mb"] for d in days), "MB", n),
        "write_p50_ms": reading(percentile(writes, 0.50), "ms", len(writes)),
        "write_p90_ms": reading(percentile(writes, 0.90), "ms", len(writes)),
        "ok_share": reading((attempted - failed) / attempted, "ratio"),
        "hit_ratio": reading(mean("hit_ratio"), "ratio"),
        "server_cpu_busiest": reading(mean("server_cpu_busiest"), "ratio"),
        "storage_overhead": reading(mean("storage_overhead"), "ratio"),
    }
    extras = {
        "setup_wall_s": reading(statistics.median(s["setup_s"] for s in setups),
                                "s", len(setups)),
        "run_wall_s": reading(statistics.median(d["run_s"] for d in days), "s", n),
        "host_speed": reading(statistics.median(s["speed"] for s in setups), "ratio",
                              len(setups)),
        "read_p50_ms": reading(percentile(reads, 0.50), "ms", len(reads)),
        "read_p99_ms": reading(percentile(reads, 0.99), "ms", len(reads)),
        "backbone_mb": reading(mean("backbone_mb"), "MB"),
    }
    problems = [f"day seed {d['seed']}: {p}" for d in days for p in output_problems(d)]
    for name, needed in MIN_SAMPLES.items():
        got = {**values, **extras}[name]["samples"]
        if got < needed:
            problems.append(f"{name} rests on {got} samples (< {needed})")
    return values, extras, attempted, failed, problems, {"days": days,
                                                         "setups": setups[n:]}


def per_layer_run(workload: str, seed: int, units: Dict[str, str], deadline: float):
    """One day untraced and the same day traced; returns (metrics, {},
    attempted, failed, problems, detail)."""
    first = day_seed(seed, 0)
    plain = child(workload, first, "day", deadline)
    traced = child(workload, first, "traced", deadline)
    layers = dict(traced.pop("layers"))
    reads = plain.pop("read_ms")
    plain.pop("write_ms")
    traced.pop("read_ms")
    traced.pop("write_ms")
    layers.update({
        "sim.events_per_s": layers["sim.events"] / plain["window_s"],
        "net.backbone_mb": plain["backbone_mb"],
        "virtue.read_p50_ms": percentile(reads, 0.50),
        "virtue.read_p99_ms": percentile(reads, 0.99),
        "obs.sample_p50_us": plain["obs"]["sample_p50_us"],
        "obs.sample_max_us": plain["obs"]["sample_max_us"],
        "system.campus_s": plain["campus_s"],
        "system.provision_s": plain["provision_s"],
        "system.protection_s": plain["protection_s"],
        "trace.overhead_ratio": traced["window_s"] / plain["window_s"],
    })
    problems = [f"{d['mode']} day: {p}" for d in (plain, traced) for p in output_problems(d)]
    if plain["fingerprint"] != traced["fingerprint"]:
        problems.append("traced and untraced days differ in virtual outputs")
    metrics = {name: reading(layers[name], unit) for name, unit in units.items()}
    for name in ("virtue.read_p50_ms", "virtue.read_p99_ms"):
        metrics[name]["samples"] = len(reads)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    detail = {"days": [plain, traced], "spans_kept": traced["spans"]}
    return metrics, {}, attempted, failed, problems, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DAYS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"no program to measure: {SRC}/repro is missing\n")
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        units = {m["name"]: m["unit"] for m in json.load(spec)["per_layer"]}
    if set(units) != set(PREDICTIONS):
        sys.stderr.write("BENCHMARK.json's per_layer names differ from PREDICTIONS\n")
        return 2

    deadline = time.perf_counter() + RUN_LIMIT
    try:
        if args.trace:
            result = per_layer_run(args.workload, args.seed, units, deadline)
        else:
            result = end_to_end_run(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 1
    metrics, extras, attempted, failed, problems, detail = result

    facts = host_facts()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for label, group in (("", metrics), (" (unbounded)", extras)):
        for name, r in group.items():
            count = f"  n={r['samples']}" if "samples" in r else ""
            print(f"  {name:34s} {r['value']:16.6g} {r['unit']}{count}{label}")
    print(f"  ok_share counts: attempted {attempted}  failed {failed}")
    for problem in problems:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": facts, "metrics": metrics, "unbounded": extras,
        "attempted": attempted, "failed": failed, "problems": problems,
        "detail": detail,
        "predictions": {name: {"moves": moves, "where": where}
                        for name, (moves, where) in PREDICTIONS.items()},
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as out:
        json.dump(record, out, indent=1)
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": r["value"], "unit": r["unit"]}
                    for name, r in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
