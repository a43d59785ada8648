"""Metropolis-scale wall-clock benchmark: 200 → 1,000 → 5,000 workstations.

The paper sizes Vice for "more than 5,000 workstations" on one campus
(§1-§2); ``bench_campus`` stops at 200.  This bench sweeps the same
Andrew-mix workload across three scales and reports kernel events per
wall-clock second at each — the headline number for the event-kernel
scale-out work (the inlined event heap + cascade batching).

Virtual durations shrink as the campus grows so every scale finishes in
comparable wall time: the point is queue behavior under a large *pending
set* (5,000 workstations keep ~10-25k events pending), not a long day.

Reported per scale:

* ``events_per_second``  — the headline throughput number;
* ``setup_wall_seconds`` / ``run_wall_seconds``;
* ``queue``              — the event queue's own stats (pending, pushes,
  dead-event counts) as exposed by ``sim.scheduler_stats``;
* ``virtual_*``          — simulated results, byte-identical across
  perf commits.

With ``--workers`` the sweep also runs each scale under sharded parallel
execution (``repro.sim.shard``): an unsharded reference first, then one
run per worker count, asserting the virtual outputs stay byte-identical
and reporting aggregate events/s plus speedup — the headline numbers for
the per-cluster event-loop scale-out work.

Usage::

    PYTHONPATH=src python benchmarks/bench_metropolis.py             # all scales
    PYTHONPATH=src python benchmarks/bench_metropolis.py --smoke     # CI budget
    PYTHONPATH=src python benchmarks/bench_metropolis.py --workers 2,4
    PYTHONPATH=src python benchmarks/bench_metropolis.py --shard-smoke
    PYTHONPATH=src python benchmarks/bench_metropolis.py --json F
"""

import argparse
import json
import os
import sys
import time

if __package__ is None or __package__ == "":  # running as a script
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    _BENCH = os.path.dirname(os.path.abspath(__file__))
    if _BENCH not in sys.path:
        sys.path.insert(0, _BENCH)

from bench_campus import build_campus
from repro.workload import run_campus_day

__all__ = ["run_scale", "run_metropolis_benchmark", "run_workers_sweep",
           "run_shard_smoke", "assert_parity", "SCALES", "SMOKE_SCALES"]

# The sweep.  50-workstation clusters throughout (the paper's cluster
# unit); durations shrink with scale so wall time stays comparable.
SCALES = [
    dict(name="campus-200", clusters=4, workstations_per_cluster=50,
         duration=600.0, warmup=120.0),
    dict(name="metro-1000", clusters=20, workstations_per_cluster=50,
         duration=300.0, warmup=60.0),
    dict(name="metro-5000", clusters=100, workstations_per_cluster=50,
         duration=30.0, warmup=10.0),
]

# CI smoke: the 1,000-workstation scale must fit the budget, so it runs a
# shorter day (same code paths, same pending-set size).
SMOKE_SCALES = [
    dict(name="campus-200", clusters=4, workstations_per_cluster=50,
         duration=300.0, warmup=60.0),
    dict(name="metro-1000", clusters=20, workstations_per_cluster=50,
         duration=120.0, warmup=30.0),
]

# Absolute wall-clock budget for the whole --smoke sweep, seconds.  The
# smoke sweep takes ~8 s on the reference container; the budget leaves
# generous headroom for slow shared CI runners.
SMOKE_BUDGET_SECONDS = 120.0

# The --shard-smoke gate: campus-200 over a short day, unsharded vs two
# workers, byte-identical virtual outputs required.  Single-core runners
# (like the reference container) pay the conservative-sync overhead
# without any parallelism to recoup it, so the speedup assertion only
# arms on hosts with >= 4 cores; the wall budget covers the 1-core case.
SHARD_SMOKE_SCALE = dict(name="campus-200", clusters=4,
                         workstations_per_cluster=50,
                         duration=300.0, warmup=60.0)
SHARD_SMOKE_WORKERS = 2
SHARD_SMOKE_MIN_SPEEDUP = 1.2
SHARD_SMOKE_BUDGET_SECONDS = 240.0

_SHARED_SHAPE = dict(projects_per_dept=25, projects_per_user=3)


def run_scale(scale: dict, workers: int = None) -> dict:
    """Build one campus at ``scale`` and run it; returns the report dict.

    ``workers`` selects sharded parallel execution; the report then counts
    events aggregated across the worker kernels (the parent kernel idles)
    and carries the per-shard engine stats under ``"shards"``.
    """
    shape = dict(_SHARED_SHAPE, **scale)
    sharding = None
    if workers is not None:
        from repro.sim.shard import ShardConfig

        sharding = ShardConfig(workers=workers)

    setup_start = time.perf_counter()
    campus, users = build_campus(sharding=sharding, **shape)
    setup_wall = time.perf_counter() - setup_start

    run_start = time.perf_counter()
    if sharding is not None:
        from repro.sim.shard import run_sharded_campus_day

        shard_stats = []
        summary = run_sharded_campus_day(
            campus, users, duration=shape["duration"], warmup=shape["warmup"],
            stats_sink=shard_stats,
        )
        run_wall = time.perf_counter() - run_start
        events = sum(stats["events"] for stats in shard_stats)
    else:
        events_before = campus.sim._sequence
        summary = run_campus_day(
            campus, users, duration=shape["duration"], warmup=shape["warmup"]
        )
        run_wall = time.perf_counter() - run_start
        events = campus.sim._sequence - events_before
        shard_stats = None

    report = {
        "name": scale["name"],
        "workstations": shape["clusters"] * shape["workstations_per_cluster"],
        "clusters": shape["clusters"],
        "virtual_seconds": shape["duration"] + shape["warmup"],
        "setup_wall_seconds": round(setup_wall, 3),
        "run_wall_seconds": round(run_wall, 3),
        "events_scheduled": events,
        "events_per_second": round(events / run_wall) if run_wall else 0,
        "queue": campus.sim.scheduler_stats,
        "virtual_actions": summary["actions"],
        "virtual_failures": summary["failures"],
        "virtual_hit_ratio": round(summary["hit_ratio"], 6),
        "virtual_busiest_cpu": round(summary["busiest_cpu"], 6),
        "virtual_backbone_bytes": summary["cross_cluster_bytes"],
    }
    if workers is not None:
        report["workers"] = workers
        report["shards"] = shard_stats
    return report


_PARITY_KEYS = ("virtual_actions", "virtual_failures", "virtual_hit_ratio",
                "virtual_busiest_cpu", "virtual_backbone_bytes")


def assert_parity(reference: dict, sharded: dict) -> None:
    """Byte-identical virtual outputs or die: sharding is a pure perf knob."""
    for key in _PARITY_KEYS:
        if reference[key] != sharded[key]:
            raise AssertionError(
                f"{sharded['name']} workers={sharded.get('workers')}: {key} "
                f"diverged (unsharded {reference[key]!r}, sharded {sharded[key]!r})"
            )


def run_workers_sweep(scales, workers_list) -> dict:
    """Unsharded reference + one sharded run per worker count, per scale."""
    entries = []
    for scale in scales:
        reference = run_scale(scale)
        sharded = []
        for workers in workers_list:
            report = run_scale(scale, workers=workers)
            assert_parity(reference, report)
            base = reference["events_per_second"]
            report["speedup"] = (
                round(report["events_per_second"] / base, 2) if base else 0.0
            )
            sharded.append(report)
        entries.append({"name": scale["name"], "reference": reference,
                        "sharded": sharded})
    return {"workers": list(workers_list), "scales": entries}


def run_metropolis_benchmark(scales=None) -> dict:
    """Run the sweep; returns ``{"scales": [...]}``."""
    return {"scales": [run_scale(scale)
                       for scale in (SCALES if scales is None else scales)]}


def _print_report(report: dict) -> None:
    print("metropolis sweep")
    header = (f"  {'scale':<12} {'ws':>6} {'setup s':>8} {'run s':>8} "
              f"{'events':>9} {'events/s':>9} {'actions':>8}")
    print(header)
    for scale in report["scales"]:
        print(f"  {scale['name']:<12} {scale['workstations']:>6} "
              f"{scale['setup_wall_seconds']:>8.2f} {scale['run_wall_seconds']:>8.2f} "
              f"{scale['events_scheduled']:>9d} {scale['events_per_second']:>9,} "
              f"{scale['virtual_actions']:>8d}")
    for scale in report["scales"]:
        queue = scale["queue"]
        print(f"  {scale['name']:<12} queue: {queue['pending']:,} pending, "
              f"{queue['compactions']} compactions, "
              f"{queue['cascade_events']:,} cascade events")


def _print_workers_report(report: dict) -> None:
    print(f"sharded sweep · workers={report['workers']}")
    print(f"  {'scale':<12} {'ws':>6} {'workers':>8} {'run s':>8} "
          f"{'events':>9} {'events/s':>9} {'speedup':>8}")
    for entry in report["scales"]:
        ref = entry["reference"]
        print(f"  {ref['name']:<12} {ref['workstations']:>6} {'(none)':>8} "
              f"{ref['run_wall_seconds']:>8.2f} {ref['events_scheduled']:>9d} "
              f"{ref['events_per_second']:>9,} {'1.00':>8}")
        for row in entry["sharded"]:
            print(f"  {row['name']:<12} {row['workstations']:>6} "
                  f"{row['workers']:>8} {row['run_wall_seconds']:>8.2f} "
                  f"{row['events_scheduled']:>9d} {row['events_per_second']:>9,} "
                  f"{row['speedup']:>8.2f}")
        for stats in entry["sharded"][-1].get("shards") or []:
            print(f"    shard {stats['shard']}: clusters {stats['clusters']}, "
                  f"{stats['events_per_s']:,} events/s, "
                  f"{stats['windows']} windows, "
                  f"{stats['horizon_waits']} horizon waits, "
                  f"blocked {stats['blocked_pct']:.1f}%")


def run_shard_smoke() -> int:
    """The CI shard gate: parity always, speedup only on multicore hosts."""
    report = run_workers_sweep([SHARD_SMOKE_SCALE], [SHARD_SMOKE_WORKERS])
    _print_workers_report(report)
    entry = report["scales"][0]
    sharded = entry["sharded"][0]
    wall = entry["reference"]["run_wall_seconds"] + sharded["run_wall_seconds"]
    failures = 0
    print(f"virtual outputs: byte-identical across unsharded and "
          f"workers={SHARD_SMOKE_WORKERS}  ok")
    cores = os.cpu_count() or 1
    if cores >= 4:
        verdict = "ok" if sharded["speedup"] >= SHARD_SMOKE_MIN_SPEEDUP else "TOO SLOW"
        print(f"speedup gate ({cores} cores): {sharded['speedup']:.2f}x of "
              f"{SHARD_SMOKE_MIN_SPEEDUP:.1f}x required  {verdict}")
        if verdict != "ok":
            failures += 1
    else:
        print(f"speedup gate skipped: {cores} core(s) < 4 (sync overhead "
              f"has no parallelism to recoup)")
    verdict = "ok" if wall <= SHARD_SMOKE_BUDGET_SECONDS else "TOO SLOW"
    print(f"smoke budget: {wall:.2f} s of "
          f"{SHARD_SMOKE_BUDGET_SECONDS:.1f} s allowed  {verdict}")
    if verdict != "ok":
        failures += 1
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="200 + 1,000 workstations under a hard budget (CI)")
    parser.add_argument("--shard-smoke", action="store_true",
                        help="sharded-vs-unsharded parity + speedup gate (CI)")
    parser.add_argument("--workers", metavar="N[,N...]", default="",
                        help="also run each scale sharded over these worker counts")
    parser.add_argument("--json", metavar="FILE", default="",
                        help="also write the report as JSON")
    args = parser.parse_args()

    if args.shard_smoke:
        return run_shard_smoke()

    sweep_start = time.perf_counter()
    report = run_metropolis_benchmark(SMOKE_SCALES if args.smoke else None)
    sweep_wall = time.perf_counter() - sweep_start
    report["sweep_wall_seconds"] = round(sweep_wall, 3)
    _print_report(report)

    if args.workers:
        workers_list = [int(part) for part in args.workers.split(",") if part]
        sharded = run_workers_sweep(
            SMOKE_SCALES if args.smoke else SCALES, workers_list,
        )
        _print_workers_report(sharded)
        report["sharded"] = sharded

    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.smoke:
        verdict = "ok" if sweep_wall <= SMOKE_BUDGET_SECONDS else "TOO SLOW"
        print(f"smoke budget: {sweep_wall:.2f} s of "
              f"{SMOKE_BUDGET_SECONDS:.1f} s allowed  {verdict}")
        if verdict != "ok":
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
