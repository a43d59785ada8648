"""Event-queue behaviour of the simulation kernel.

The kernel schedules every event on one binary heap of
``(time, creation-sequence, event)`` entries plus a FIFO cascade deque for
events due at the current instant.  These tests pin the dispatch order
against a plain ``sorted((time, sequence))`` reference model, the
same-timestamp cohort drain, the ``run(until=)`` horizon contract,
lazy-cancel compaction, the queue statistics, and bit-for-bit replay of a
1,000-workstation campus.
"""

import random

import pytest

from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# dispatch order against a reference model
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_random_push_pop_orders_identical(seed):
    """Timers fire in sorted (time, creation) order, whatever the mix.

    Timers are armed from inside other timers' callbacks at a spread of
    delays (zero, shared grid points, uniform spread, far future), some
    are cancelled before they fire, and the run advances through a few
    horizons.  The reference model is simply every surviving timer sorted
    by ``(time, creation order)``.
    """
    rng = random.Random(seed)
    sim = Simulator()
    created = []      # (when, order) per timer, in creation order
    live = []         # (order, timer) candidates for cancellation
    cancelled = set()
    fired = []

    def arm():
        order = len(created)
        delay = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0,
                            rng.uniform(0.0, 3.0), rng.uniform(50.0, 100.0)])
        timer = sim.timeout(delay)
        created.append((sim.now + delay, order))
        timer.add_callback(lambda _event: on_fire(order))
        live.append((order, timer))

    def outstanding():
        return len(created) - len(fired) - len(cancelled)

    def on_fire(order):
        fired.append(order)
        births = rng.choice([0, 1, 1, 2])
        if not outstanding():
            births = max(births, 1)  # keep the mix alive until 3,000 timers
        for _ in range(births):
            if len(created) < 3000:
                arm()
        if live and rng.random() < 0.4 and outstanding() > 1:
            victim_order, victim = live.pop(rng.randrange(len(live)))
            if victim.callbacks is not None:  # not fired yet
                victim.cancel()
                cancelled.add(victim_order)

    for _ in range(200):
        arm()
    for horizon in (5.0, 20.0, 60.0):
        sim.run(until=horizon)
        assert sim.now == horizon
    sim.run()

    expected = [order for _, order in sorted(created) if order not in cancelled]
    assert fired == expected
    assert len(created) == 3000 and cancelled
    assert sim.pending == 0
    assert sim.scheduler_stats["compactions"] > 0


def test_cohort_drains_in_sequence_order():
    """Reaching a timestamp moves its whole cohort to the cascade deque."""
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.timeout(5.0).add_callback(lambda _event, tag=tag: fired.append(tag))
    sim.timeout(7.0).add_callback(lambda _event: fired.append("later"))
    sim.step()
    assert sim.now == 5.0
    assert fired == [0]
    assert len(sim._nq) == 9 and len(sim._heap) == 1
    sim.run()
    assert fired == list(range(10)) + ["later"]


# ----------------------------------------------------------------------
# run(until=) horizon contract
# ----------------------------------------------------------------------

def test_event_exactly_at_horizon_fires():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=10.0)
    assert fired == [10.0]
    assert sim.now == 10.0


def test_event_past_horizon_stays_scheduled():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=9.999)
    assert fired == []
    assert sim.now == 9.999
    assert sim.pending == 1
    sim.run()  # the parked event fires on the next run, sequence intact
    assert fired == [10.0]


def test_empty_queue_parks_clock_at_horizon():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_zero_delay_self_reschedule_fifo():
    """Zero-delay re-arms at the horizon run in creation order, same tick."""
    sim = Simulator()
    order = []

    def chain(tag, hops):
        for i in range(hops):
            yield sim.timeout(0.0)
            order.append((sim.now, tag, i))

    sim.process(chain("a", 3))
    sim.process(chain("b", 3))
    sim.run(until=0.0)
    assert sim.now == 0.0
    # Cascades interleave FIFO by creation: a0, b0, a1, b1, a2, b2.
    assert order == [(0.0, "a", 0), (0.0, "b", 0), (0.0, "a", 1),
                     (0.0, "b", 1), (0.0, "a", 2), (0.0, "b", 2)]


def test_repeated_horizon_runs_resume_cleanly():
    sim = Simulator()
    fired = []

    def metronome():
        while True:
            yield sim.timeout(1.0)
            fired.append(sim.now)

    sim.process(metronome())
    for horizon in (0.5, 1.0, 2.75, 4.0):
        sim.run(until=horizon)
        assert sim.now == horizon
    assert fired == [1.0, 2.0, 3.0, 4.0]


# ----------------------------------------------------------------------
# lazy-cancel compaction
# ----------------------------------------------------------------------

def test_cancelled_timers_stay_bounded():
    """Retransmit-style churn: guards that always cancel must not pile up."""
    sim = Simulator()
    peak = [0]

    def churner():
        for _ in range(5000):
            guard = sim.timeout(30.0)  # would linger 30 virtual s un-compacted
            guard.cancel()
            yield sim.timeout(0.001)
            peak[0] = max(peak[0], len(sim._heap))

    sim.process(churner())
    sim.run()
    # Without compaction the heap would hold every un-expired corpse
    # (~5,000 at peak); with it, the live population plus one compaction
    # threshold's worth of dead entries is the ceiling.
    assert peak[0] < 300, f"heap grew to {peak[0]}"
    assert sim.scheduler_stats["compactions"] > 0


def test_cancelled_event_callbacks_never_run():
    sim = Simulator()
    fired = []

    def watcher():
        timer = sim.timeout(1.0)
        timer.add_callback(lambda e: fired.append("cancelled-timer"))
        timer.cancel()
        yield sim.timeout(2.0)
        fired.append("survivor")

    sim.process(watcher())
    sim.run()
    assert fired == ["survivor"]


# ----------------------------------------------------------------------
# stats exposure
# ----------------------------------------------------------------------

def test_scheduler_stats_shape():
    sim = Simulator()
    for _ in range(10):
        sim.timeout(1.0)
    sim.timeout(0.0)
    stats = sim.scheduler_stats
    assert set(stats) == {"pending", "pushes", "dead", "compactions",
                          "cascade_events", "events"}
    assert stats["pending"] == 10
    assert stats["pushes"] == 10 and stats["cascade_events"] == 1
    assert stats["events"] == stats["pushes"] + stats["cascade_events"]


def test_queue_stats_in_metrics_registry():
    sim = Simulator()
    sim.timeout(5.0)
    snapshot = sim.metrics.snapshot()
    assert snapshot["sim.kernel.events"]["total"] == 1
    assert snapshot["sim.kernel.pending"]["value"] == 1
    queue = snapshot["sim.kernel.queue"]["value"]
    assert queue == sim.scheduler_stats
    assert queue["pending"] == 1


# ----------------------------------------------------------------------
# metropolis-scale determinism
# ----------------------------------------------------------------------

def _metropolis_run():
    """A short day on a 1,000-workstation campus; returns its fingerprint."""
    from repro.system.config import SystemConfig
    from repro.system.itc import ITCSystem
    from repro.workload import provision_campus, run_campus_day

    campus = ITCSystem(SystemConfig(
        mode="revised", clusters=20, workstations_per_cluster=50,
        functional_payload_crypto=False, cache_max_files=60, seed=0,
    ))
    with campus.batch_setup():
        users = provision_campus(campus, hot_files=2, cold_files=2,
                                 shared_files=4, binary_files=2)
    summary = run_campus_day(campus, users, duration=10.0, warmup=5.0)
    return {
        "summary": summary,
        "events": campus.sim._sequence,
        "now": campus.sim.now,
    }


def test_metropolis_1000ws_replay():
    """Same seed, 1,000 workstations: a replay agrees bit for bit."""
    first = _metropolis_run()
    assert first == _metropolis_run()
    assert first["summary"]["actions"] > 0
