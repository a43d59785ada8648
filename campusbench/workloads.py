"""The benchmark's campus workloads, built through the public API.

Each workload is a :class:`Workload`: a campus shape, the fields of
:class:`SystemConfig` it sets (every other field keeps its default, so the
benchmark follows the defaults when they change), and a virtual warm-up and
measured window.  ``build`` provisions the campus from the run's seed;
``run_day`` drives it with :func:`run_campus_day`.

Every simulated user is a closed loop in virtual time: it waits for each
reply, then thinks for an exponential 38 virtual seconds (the default
:class:`UserProfile` think time) before its next action.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import ITCSystem, SystemConfig
from repro.faults.plan import Fault, FaultPlan
from repro.obs.live import RollingAggregator
from repro.sim.rand import WorkloadRandom
from repro.system.topology import workstation_name
from repro.vice.erasure import ErasureConfig
from repro.workload import UserProfile, provision_campus, run_campus_day

from bench_campus import provision_protection_domain

__all__ = ["WORKLOADS", "Workload", "build", "run_day"]

# Files provisioned per user and in the shared trees: the campus bench's
# sizes (a ~0.4 MB working set per workstation).
PROVISION = dict(hot_files=12, cold_files=30, shared_files=40, binary_files=20)

# The largest file the size models can produce (SYSTEM_BINARY's cap).  A
# cache at least this large can never refuse an open with NoSpace.
LARGEST_FILE = 1_000_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campus shape and a virtual day."""

    name: str
    clusters: int
    workstations_per_cluster: int
    warmup: float
    duration: float
    config: Dict[str, Any] = field(default_factory=dict)
    profile: Optional[UserProfile] = None
    protection_domain: bool = False
    crash: bool = False
    # Speed, as a share of its rated speed, of one workstation's CPU for
    # most of the measured window (0: no workstation is slowed).
    slow_workstation: float = 0.0
    sample_every: Optional[float] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # The paper's steady, read-mostly campus: crypto, marshalling, RPC
        # dispatch, the protection CPS and Venus's hit path do the work.
        Workload(
            name="campus-day",
            clusters=4, workstations_per_cluster=50,
            warmup=600.0, duration=1800.0,
            protection_domain=True,
        ),
        # A large pending-event set, 20-cluster routing and cold caches
        # (most calls are fetches): the kernel queue, the network, storage
        # and provisioning carry the weight; crypto is off.  The cache is
        # the largest file any size model can produce, so no open is
        # refused with NoSpace.
        Workload(
            name="metro-cold",
            clusters=20, workstations_per_cluster=50,
            warmup=60.0, duration=240.0,
            config=dict(functional_payload_crypto=False,
                        cache_max_bytes=LARGEST_FILE),
        ),
        # Writes beside reads on 4+2 erasure-coded volumes while the ops
        # console samples every 30 virtual s and one workstation's CPU runs
        # at a quarter of its speed: the codec, heartbeats, observers and
        # fault injection, which the other workloads bypass.  A slowed
        # server would become the busiest one on some seeds and not on
        # others; a slowed workstation leaves server load alone.
        Workload(
            name="coded-slow",
            clusters=7, workstations_per_cluster=20,
            warmup=300.0, duration=600.0,
            config=dict(erasure=ErasureConfig(data=4, parity=2)),
            profile=UserProfile(p_edit=0.08),
            slow_workstation=0.25,
            sample_every=30.0,
        ),
        # coded-slow at full speed through one server crash that
        # outlasts detection, so the controller promotes and rebuilds.  On
        # the parent commit most of its days fail the output checks (see
        # CHANGES.md), so it is runnable but not one of the benchmark's
        # gated workloads.
        Workload(
            name="coded-crash",
            clusters=7, workstations_per_cluster=20,
            warmup=300.0, duration=600.0,
            config=dict(erasure=ErasureConfig(data=4, parity=2)),
            profile=UserProfile(p_edit=0.08),
            crash=True,
            sample_every=30.0,
        ),
    )
}


def fault_plan(workload: Workload, seed: int) -> Optional[FaultPlan]:
    """The workload's faults, drawn from the seed; None when it has none.

    A crash starts inside the measured window and lasts far longer than
    the heartbeat detection time (15 virtual s with the default knobs), so
    the controller declares the server dead, promotes and rebuilds.  A
    slowed workstation is slowed a minute into the measured window (so
    the window counts the injection) and stays slow to its end.
    """
    rng = WorkloadRandom(seed).fork(7_001)
    server = f"server{rng.randint(0, workload.clusters - 1)}"
    faults: List[Fault] = []
    if workload.crash:
        start = workload.warmup + rng.uniform(0.1, 0.4) * workload.duration
        outage = rng.uniform(120.0, 0.4 * workload.duration)
        faults.append(Fault("server_crash", server, start=start,
                            duration=outage))
    if workload.slow_workstation:
        cluster = rng.randint(0, workload.clusters - 1)
        index = rng.randint(0, workload.workstations_per_cluster - 1)
        faults.append(Fault("slow_cpu", workstation_name(cluster, index),
                            start=workload.warmup + 60.0,
                            duration=workload.duration - 60.0,
                            factor=workload.slow_workstation))
    if not faults:
        return None
    return FaultPlan(name=f"bench-{workload.name}", seed=seed, faults=tuple(faults))


def build(workload: Workload, seed: int) -> Dict[str, Any]:
    """Build and provision the campus; returns it with set-up wall times."""
    config = dict(workload.config)
    plan = fault_plan(workload, seed)
    if plan is not None:
        config["fault_plan"] = plan
    clock = time.perf_counter
    t0 = clock()
    campus = ITCSystem(SystemConfig(
        clusters=workload.clusters,
        workstations_per_cluster=workload.workstations_per_cluster,
        seed=seed, **config,
    ))
    t1 = clock()
    with campus.batch_setup():
        users = provision_campus(campus, profile=workload.profile, seed=seed,
                                 **PROVISION)
        t2 = clock()
        if workload.protection_domain:
            provision_protection_domain(campus, projects_per_dept=25,
                                        projects_per_user=3)
    t3 = clock()
    aggregator = None
    if workload.sample_every is not None:
        aggregator = RollingAggregator(campus.metrics)
        aggregator.install_sampler(campus.sim, workload.sample_every)
    t4 = clock()
    return {
        "campus": campus, "users": users, "aggregator": aggregator,
        "setup_s": t4 - t0, "setup_span": (t0, t4),
        "campus_s": t1 - t0, "provision_s": t2 - t1, "protection_s": t3 - t2,
    }


def run_day(workload: Workload, built: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate warm-up plus the measured window; returns the summary
    with the wall interval it took (``run_span``) and its length."""
    t0 = time.perf_counter()
    summary = run_campus_day(built["campus"], built["users"],
                             duration=workload.duration, warmup=workload.warmup)
    t1 = time.perf_counter()
    summary["run_span"] = (t0, t1)
    summary["run_s"] = t1 - t0
    return summary
