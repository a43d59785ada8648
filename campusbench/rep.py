"""One repetition of one workload, in its own single-threaded process.

Usage (from the root of the repository)::

    python3 campusbench/rep.py --workload campus-day --seed 1 --mode day

``--mode setup`` builds and provisions the campus and reports the set-up
wall times only.  ``--mode day`` also simulates the day, then checks the
outputs and reports the end-to-end figures.  ``--mode traced`` does the
same with the per-layer timer installed (see ``tracer.py``) and adds the
per-layer figures.  ``--probe`` (not with ``traced``) samples the host's
speed while the set-up and the day run (see ``probe.py``) and adds both
in reference seconds.  The report is one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.errors import FileNotFound  # noqa: E402
from repro.virtue.session import UserSession  # noqa: E402

import bench_redundancy  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402


class SessionLedger:
    """Records every ``/vice`` whole-file read, write and unlink users make.

    Installed on :class:`UserSession` before the day.  Reads and writes
    keep their virtual start and end; writes and unlinks keep, per path,
    the order of attempts and which were acknowledged, for the read-back
    check.
    """

    def __init__(self):
        self.reads: List[tuple] = []
        self.writes: List[tuple] = []
        self.history: Dict[str, List[tuple]] = {}  # path -> [(op, data, acked)]
        self.owner: Dict[str, UserSession] = {}
        self._originals = {}

    def install(self) -> None:
        ledger = self
        read_file = UserSession.read_file
        write_file = UserSession.write_file
        unlink = UserSession.unlink

        def recorded_read(session, path):
            if not path.startswith("/vice"):
                return (yield from read_file(session, path))
            sim = session.workstation.sim
            start = sim.now
            data = yield from read_file(session, path)
            ledger.reads.append((start, sim.now))
            return data

        def recorded_write(session, path, data):
            if not path.startswith("/vice"):
                return (yield from write_file(session, path, data))
            sim = session.workstation.sim
            start = sim.now
            attempt = ["write", bytes(data), False]
            ledger.history.setdefault(path, []).append(attempt)
            ledger.owner[path] = session
            result = yield from write_file(session, path, data)
            attempt[2] = True
            ledger.writes.append((start, sim.now))
            return result

        def recorded_unlink(session, path):
            if not path.startswith("/vice"):
                return (yield from unlink(session, path))
            attempt = ["unlink", None, False]
            ledger.history.setdefault(path, []).append(attempt)
            result = yield from unlink(session, path)
            attempt[2] = True
            return result

        self._originals = dict(read_file=read_file, write_file=write_file,
                               unlink=unlink)
        UserSession.read_file = recorded_read
        UserSession.write_file = recorded_write
        UserSession.unlink = recorded_unlink

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(UserSession, name, fn)

    def acknowledged_writes(self) -> Dict[str, List[Optional[bytes]]]:
        """path -> acceptable final contents, for paths whose last
        acknowledged operation is a write.

        The last acknowledged write must read back unless a later attempt
        that failed at the client may still have reached the server, in
        which case that attempt's outcome is acceptable too (None: gone).
        """
        expected = {}
        for path, attempts in self.history.items():
            acked = [i for i, a in enumerate(attempts) if a[2]]
            if not acked or attempts[acked[-1]][0] != "write":
                continue
            last = acked[-1]
            expected[path] = [attempts[last][1]] + [a[1] for a in attempts[last + 1:]]
        return expected


def storage_overhead(campus) -> float:
    """Bytes across all volume copies and fragments ÷ one logical copy."""
    logical, total = bench_redundancy._storage(campus)
    return total / logical


def fingerprint(summary: Dict[str, Any], ledger: SessionLedger, campus) -> str:
    """A digest of the day's virtual outputs: summary, every latency, and
    the metrics registry."""
    virtual = {k: v for k, v in summary.items() if k not in ("run_s", "run_span")}
    digest = hashlib.sha256()
    digest.update(json.dumps(virtual, sort_keys=True, default=repr).encode())
    digest.update(repr(ledger.reads).encode())
    digest.update(repr(ledger.writes).encode())
    digest.update(json.dumps(campus.metrics.snapshot(), sort_keys=True,
                             default=repr).encode())
    digest.update(repr(campus.sim.now).encode())
    return digest.hexdigest()


def read_back(campus, ledger: SessionLedger) -> Dict[str, int]:
    """Re-read every acknowledged, not-unlinked ``/vice`` write from Vice.

    Every Venus distrusts its cache first, so each read is a fresh fetch.
    """
    for workstation in campus.workstations:
        workstation.venus.invalidate_all()
    checked = mismatched = 0
    for path, acceptable in sorted(ledger.acknowledged_writes().items()):
        session = ledger.owner[path]
        try:
            data = campus.run_op(session.read_file(path))
        except FileNotFound:
            data = None
        checked += 1
        if data not in acceptable:
            mismatched += 1
    return {"checked": checked, "mismatched": mismatched}


def lost_writes(campus) -> int:
    """Acknowledged writes the program itself reports lost."""
    lost = sum(ws.venus.lost_writes for ws in campus.workstations)
    for server in campus.servers:
        agent = getattr(server, "replication", None)
        lost += getattr(agent, "divergent_discarded", 0) or 0
    return lost


def end_to_end(summary: Dict[str, Any], ledger: SessionLedger, campus,
               window_start: float) -> Dict[str, Any]:
    """The virtual end-to-end figures of one day; latencies as raw samples
    (ms) of the reads and writes started in the measured window."""
    return {
        "read_ms": [(end - start) * 1e3 for start, end in ledger.reads
                    if start >= window_start],
        "write_ms": [(end - start) * 1e3 for start, end in ledger.writes
                     if start >= window_start],
        "attempted": summary["actions"] + summary["failures"],
        "failed": summary["failures"],
        "hit_ratio": summary["hit_ratio"],
        "server_cpu_busiest": summary["busiest_cpu"],
        "backbone_mb": summary["cross_cluster_bytes"] / 1e6,
        "storage_overhead": storage_overhead(campus),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "day", "traced"), default="day")
    parser.add_argument("--spans", default="", help="write the sampled spans here")
    parser.add_argument("--probe", action="store_true",
                        help="sample the host's speed (probe.py) and report"
                             " set-up and day in reference seconds too")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.probe and args.mode == "traced":
        parser.error("--probe would add its samples to the layers' self time")

    ledger = SessionLedger()
    ledger.install()
    timer = cpu_waits = None
    if args.mode == "traced":
        from layers import CpuWaits, layer_counters
        from tracer import LayerTimer

        sim_box = []
        timer = LayerTimer(now=lambda: sim_box[0].now)
        timer.install()
        cpu_waits = CpuWaits()
        cpu_waits.install()

    probe = SpeedProbe() if args.probe else None
    if probe is not None:
        probe.start()
    built = workloads.build(workload, args.seed)
    report: Dict[str, Any] = {
        "workload": workload.name, "seed": args.seed, "mode": args.mode,
        "setup_s": built["setup_s"], "campus_s": built["campus_s"],
        "provision_s": built["provision_s"], "protection_s": built["protection_s"],
    }
    if probe is not None:
        report["setup_ref_s"] = probe.scaled(*built["setup_span"])
    if args.mode == "setup":
        if probe is not None:
            probe.stop()
            report["speed"] = probe.speed()
        report["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(report))
        return 0

    campus = built["campus"]
    aggregator = built["aggregator"]
    window_start = campus.sim.now + workload.warmup
    # run_campus_day resets the campus counters when the warm-up ends; the
    # per-layer figures count from that moment too.
    window: Dict[str, Any] = {}
    reset_counters = campus.reset_counters

    def start_window():
        reset_counters()
        if timer is not None:
            window["counters"] = layer_counters(campus, aggregator)
            cpu_waits.waits.clear()
            timer.reset()
        window["wall"] = time.perf_counter()

    campus.reset_counters = start_window
    if timer is not None:
        sim_box.append(campus.sim)
        timer.reset()
    summary = workloads.run_day(workload, built)
    report["window_s"] = time.perf_counter() - window["wall"]
    if probe is not None:
        probe.stop()
        report["run_ref_s"] = probe.scaled(*summary["run_span"])
        report["speed"] = probe.speed()
    if timer is not None:
        timer.finish()
        cpu_waits.uninstall()
        timer.uninstall()
    del campus.reset_counters
    report["run_s"] = summary["run_s"]
    report["fingerprint"] = fingerprint(summary, ledger, campus)
    report.update(end_to_end(summary, ledger, campus, window_start))
    report["lost_writes"] = lost_writes(campus)
    overhead = aggregator.overhead_us if aggregator is not None else None
    report["obs"] = {
        "sample_p50_us": overhead.percentile(0.5) if overhead else 0.0,
        "sample_max_us": overhead.maximum if overhead else 0.0,
    }
    if timer is not None:
        from layers import per_layer

        report["layers"] = per_layer(timer, cpu_waits, campus, aggregator,
                                     window["counters"])
        report["spans"] = len(timer.spans)
        if args.spans:
            with open(args.spans, "w") as out:
                json.dump(timer.spans, out)
    ledger.uninstall()
    report["read_back"] = read_back(campus, ledger)
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
