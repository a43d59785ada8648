"""Per-layer figures of one traced day's measured window.

Self times come from the :class:`~tracer.LayerTimer`; counts come from the
campus metrics registry where the program registers them, otherwise from
the program's own counters or from calls counted at the layer boundary by
the timer.  Self times and counts alike cover the measured window (the
day after its warm-up).  Every layer reports on every workload, with 0
where it is idle.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.sim.resources import Resource

__all__ = ["CpuWaits", "layer_counters", "per_layer"]


class CpuWaits:
    """Virtual time each CPU claim waited for the processor.

    Wraps :meth:`Resource.request` on the class; a queued claim gets one
    extra callback that notes the grant time and schedules nothing.
    """

    def __init__(self):
        self.waits: List[float] = []
        self._original = None

    def install(self) -> None:
        original = self._original = Resource.request
        waits = self.waits

        def request(resource):
            claim = original(resource)
            if claim.callbacks is not None and resource.name.startswith("cpu:"):
                sim = resource.sim
                start = sim.now
                claim.callbacks.append(lambda _event: waits.append(sim.now - start))
            return claim

        Resource.request = request

    def uninstall(self) -> None:
        Resource.request = self._original

    def p99_ms(self, claims: int) -> float:
        """p99 over all ``claims``; the uncontended ones waited 0."""
        if claims <= 0:
            return 0.0
        rank = min(claims - 1, max(0, math.ceil(0.99 * claims) - 1))
        zeros = claims - len(self.waits)
        if rank < zeros:
            return 0.0
        return sorted(self.waits)[rank - zeros] * 1e3


def _number(reading: Dict[str, Any]) -> float:
    value = reading.get("total", reading.get("value", 0))
    return value if isinstance(value, (int, float)) else 0


def layer_counters(campus, aggregator) -> Dict[str, Any]:
    """The counters ``per_layer`` reads, as they stand now; taken when the
    measured window opens, so that every count covers that window."""
    hosts = [s.host for s in campus.servers] + [w.host for w in campus.workstations]
    return {
        "registry": campus.metrics.snapshot(),
        "cpu_claims": sum(h.cpu.total_requests for h in hosts),
        "disk_claims": sum(h.disk.arm.total_requests for h in hosts),
        "net_bytes": sum(seg.bytes_carried
                         for seg in campus.network.segments.values()),
        "samples": aggregator.samples_taken if aggregator is not None else 0,
    }


def _since(now: Dict[str, Any], then: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Registry readings minus their values at the window's start."""
    out = {}
    for name, reading in now.items():
        before = then.get(name, {})
        counts = before.get("counts", {})
        out[name] = {
            "total": _number(reading) - _number(before),
            "counts": {k: v - counts.get(k, 0)
                       for k, v in reading.get("counts", {}).items()},
        }
    return out


def _total(snapshot: Dict[str, Dict[str, Any]], suffix: str, prefix: str = "") -> float:
    return sum(reading["total"] for name, reading in snapshot.items()
               if name.startswith(prefix) and name.endswith(suffix))


def _label(snapshot, suffix: str, label: str) -> float:
    return sum(reading["counts"].get(label, 0)
               for name, reading in snapshot.items() if name.endswith(suffix))


def per_layer(timer, cpu_waits: CpuWaits, campus, aggregator,
              start: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer figure of a traced day's measured window (wall
    times in s); ``start`` is ``layer_counters`` at the window's start."""
    end = layer_counters(campus, aggregator)
    snap = _since(end["registry"], start["registry"])
    self_s = timer.self_s
    cpu_claims = end["cpu_claims"] - start["cpu_claims"]
    events = _total(snap, ".events", "sim.")
    cps_hits = _label(snap, ".protection.cps_cache", "hits")
    cps_calls = _total(snap, ".protection.cps_cache")
    stripe_health = 0.0
    if campus.config.erasure is not None:
        from repro.vice.erasure import stripe_health as health

        stripe_health = health(campus)
    m: Dict[str, float] = {
        "sim.events": events,
        "sim.cascade_share": _total(snap, ".cascade_events", "sim.") / events,
        "sim.resources.requests": (cpu_claims + end["disk_claims"]
                                   - start["disk_claims"]),
        "sim.resources.cpu_wait_p99_ms": cpu_waits.p99_ms(cpu_claims),
        "sim.metrics.samples_held": sum(len(bag) for bag in
                                        campus.metrics.histograms().values()),
        "net.sends": timer.calls_of("repro.net.topology.Network.send"),
        "net.bytes": end["net_bytes"] - start["net_bytes"],
        "rpc.calls": timer.calls_of("repro.rpc.node.RpcNode.call"),
        "rpc.retransmits": _total(snap, ".retransmissions", "rpc."),
        "rpc.corrupt_rejected": _total(snap, ".corrupt_rejected", "rpc."),
        "rpc.marshal.calls": timer.layer_calls("rpc.marshal"),
        "rpc.marshal.bytes": timer.bytes_of("repro.rpc.marshal.dumps",
                                            "repro.rpc.marshal.loads"),
        "crypto.bytes": timer.bytes_of("repro.crypto.cipher.seal",
                                       "repro.crypto.cipher._verify"),
        "crypto.handshakes": _total(snap, ".handshakes_completed", "rpc."),
        "venus.opens": _total(snap, ".opens", "venus."),
        "venus.fetches": _total(snap, ".fetches", "venus."),
        "venus.stores": _total(snap, ".stores", "venus."),
        "venus.evictions": _total(snap, ".cache.evictions", "venus."),
        "vice.calls_served": _total(snap, ".call_mix", "vice."),
        "vice.callback_breaks": _total(snap, ".callbacks.broken", "vice."),
        "vice.protection.cps_calls": cps_calls,
        "vice.protection.cps_hit_ratio": cps_hits / cps_calls if cps_calls else 0.0,
        "vice.erasure.encode_bytes": timer.bytes_of("repro.vice.erasure.encode"),
        "vice.erasure.decode_bytes": timer.bytes_of("repro.vice.erasure.decode"),
        "vice.erasure.degraded_reads": _total(snap, ".degraded_reads", "erasure."),
        "vice.erasure.rebuild_bytes": _total(snap, ".rebuild_bytes", "erasure."),
        "vice.erasure.heartbeats": timer.calls_of(
            "repro.vice.replication.ReplicationController._heartbeat_handler"),
        "vice.erasure.stripe_health_end": stripe_health,
        "storage.disk_accesses": _total(snap, ".disk.operations", "host."),
        "storage.disk_bytes": (_total(snap, ".disk.bytes_read", "host.")
                               + _total(snap, ".disk.bytes_written", "host.")),
        "virtue.actions": timer.calls_under("repro.virtue.session.UserSession."),
        "workload.actions": timer.calls_of(
            "repro.workload.synthetic.SyntheticUser._one_action"),
        "obs.samples": end["samples"] - start["samples"],
        "faults.injected": _label(snap, "availability.events", "faults_injected"),
    }
    for layer in ("sim", "sim.resources", "sim.metrics", "net", "rpc",
                  "rpc.marshal", "crypto", "venus", "venus.cache", "vice",
                  "vice.protection", "vice.erasure", "storage", "virtue",
                  "workload", "obs", "faults"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    traced = sum(self_s.values())
    # Share of the traced day's wall time spent inside wrapped layer calls.
    m["trace.coverage"] = 1.0 - self_s.get("sim", 0.0) / traced if traced else 0.0
    return m
