"""Hard-failure machinery: scheduled link/switch death and liveness.

Transient faults (BER, stalls) perturb timing; hard faults remove
fabric.  :class:`HardFaultState` owns the runtime side of a
:class:`~.plan.FaultPlan`'s hard schedule:

* a daemon driver process applies each :class:`~.plan.HardEvent` at its
  time, flipping the topology's liveness mask atomically (no resource is
  touched, so the event itself is invisible to the race sanitizer);
* per-link down intervals answer the question recovery code asks —
  *was this link dead at any point while my attempt was on the wire?*;
* seeded detection delays (``fault.hard.detect.*`` streams) keep
  failover timing deterministic per seed;
* counters feed :meth:`~.injector.FaultInjector.stats` and the chaos
  study's recovery-time column.

Determinism contract: the schedule is a pure function of the plan, the
liveness mask is a pure function of (schedule, time), and alternate
routes are a pure function of (src, dst, mask) — so serial == parallel
and same-seed bit-identity survive hard failures.

:func:`validate_fault_targets` is the eager half: at Machine
construction every plan target is resolved against the topology and a
typo raises :class:`~repro.errors.UnknownLinkError` naming near-miss
candidates, instead of a fault that silently never fires.
"""

from __future__ import annotations

import difflib
from typing import TYPE_CHECKING, Dict, List

from ..errors import ConfigurationError, UnknownLinkError
from .plan import FaultPlan, HardEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator
    from ..topology.base import Topology

_INF = float("inf")


class HardFaultState:
    """Runtime state of one machine's scheduled hard failures."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.schedule = plan.hard_schedule()
        #: Per-link down intervals as ``[start, end]`` pairs; ``end`` is
        #: +inf while the link is still dead.
        self.down_intervals: Dict[str, List[List[float]]] = {}
        self.events_applied = 0
        # -- statistics ----------------------------------------------------
        self.links_killed = 0
        self.switches_killed = 0
        self.hard_failed_attempts = 0
        self.failovers = 0
        self.failover_us = 0.0
        self.detect_us = 0.0
        self.rail_switches = 0
        self.link_dead_errors = 0
        #: Recoveries started but not finished — must drain to zero by
        #: end of run ("all rerouted messages drained" invariant).
        self.pending_recoveries = 0

    @property
    def active(self) -> bool:
        """True when the plan schedules at least one hard event."""
        return bool(self.schedule)

    # -- schedule driver ---------------------------------------------------

    def arm(self, sim: "Simulator", topology: "Topology") -> None:
        """Spawn the daemon process that applies the schedule on time."""
        if self.schedule:
            sim.spawn(
                self._driver(sim, topology), name="fault.hard.driver",
                daemon=True,
            )

    def _driver(self, sim, topology):
        for event in self.schedule:
            delay = event.at_us - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            self._apply(sim, topology, event)

    def _apply(self, sim, topology, event: HardEvent) -> None:
        if event.kind == "switch_down":
            names = topology.switch_links(event.target)
            self.switches_killed += 1
        else:
            names = [event.target]
        for name in names:
            if event.kind == "link_up":
                if topology.revive_link(name):
                    intervals = self.down_intervals.get(name)
                    if intervals and intervals[-1][1] == _INF:
                        intervals[-1][1] = sim.now
            elif topology.kill_link(name):
                self.links_killed += 1
                self.down_intervals.setdefault(name, []).append([sim.now, _INF])
        self.events_applied += 1
        sim.trace.log(
            sim.now, "fault.hard",
            "{0.kind} {0.target} ({1} link(s), scheduled t={0.at_us:g}us)",
            event, len(names),
        )

    # -- queries -----------------------------------------------------------

    def dead_during(self, link: str, t0: float, t1: float) -> bool:
        """Was ``link`` dead at any instant of the open window (t0, t1)?

        Recovery code calls this with a transfer's start/end times: a
        kill landing exactly at the delivery instant does not fail the
        attempt (the last bit was already off the wire).
        """
        for start, end in self.down_intervals.get(link, ()):
            if start < t1 and end > t0:
                return True
        return False

    def detection_delay(self, sim: "Simulator", component: str) -> float:
        """Seeded path-death detection delay for one recovering engine.

        Base ``detect_delay_us`` scaled by jitter in [0.5, 1.5) from the
        component's own ``fault.hard.detect.*`` stream, so concurrent
        failovers stagger deterministically.
        """
        base = self.plan.detect_delay_us
        if base <= 0.0:
            return 0.0
        stream = sim.rng.stream(f"fault.hard.detect.{component}")
        return base * (0.5 + float(stream.random()))

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> List[dict]:
        """End-of-run checks (plain dicts, ``faults`` subsystem)."""
        problems: List[dict] = []
        if self.pending_recoveries:
            problems.append({
                "name": "recoveries_drained",
                "message": (
                    f"{self.pending_recoveries} failover recover(ies) "
                    "still in flight at end of run"
                ),
                "details": {"pending": self.pending_recoveries},
            })
        if self.events_applied != len(self.schedule):
            problems.append({
                "name": "schedule_applied",
                "message": (
                    f"only {self.events_applied} of {len(self.schedule)} "
                    "hard events were applied"
                ),
                "details": {
                    "applied": self.events_applied,
                    "scheduled": len(self.schedule),
                },
            })
        return problems

    def stats(self) -> Dict[str, float]:
        """JSON-ready hard-failure tallies (merged into injector stats)."""
        return {
            "links_killed": self.links_killed,
            "switches_killed": self.switches_killed,
            "hard_failed_attempts": self.hard_failed_attempts,
            "failovers": self.failovers,
            "failover_us": self.failover_us,
            "failover_detect_us": self.detect_us,
            "rail_switches": self.rail_switches,
            "link_dead_errors": self.link_dead_errors,
        }


def _unknown(kind: str, target: str, valid) -> UnknownLinkError:
    candidates = difflib.get_close_matches(target, sorted(valid), n=3, cutoff=0.3)
    hint = f"; did you mean {candidates}?" if candidates else ""
    return UnknownLinkError(
        f"fault plan targets unknown {kind} {target!r}{hint}",
        target=target, candidates=candidates,
    )


def validate_fault_targets(plan: FaultPlan, topology: "Topology") -> None:
    """Resolve every plan target against ``topology`` or raise eagerly.

    ``plan.link`` is a stage-name *prefix* (valid when any link name
    starts with it); hard-event link targets are exact stage names;
    ``switch_down`` targets must be known switch ids.  Raises
    :class:`~repro.errors.UnknownLinkError` (a ``ValueError``) naming
    up to three near-miss candidates.
    """
    link_names = None
    if plan.link:
        link_names = topology.link_targets()
        if not any(name.startswith(plan.link) for name in link_names):
            raise _unknown("link prefix", plan.link, link_names)
    schedule = plan.hard_schedule()
    if not schedule:
        return
    switch_ids = None
    for event in schedule:
        if event.kind == "switch_down":
            if switch_ids is None:
                switch_ids = set(topology.switch_ids())
            if event.target not in switch_ids:
                raise _unknown("switch", event.target, switch_ids)
        else:
            if link_names is None:
                link_names = topology.link_targets()
            if event.target not in link_names:
                raise _unknown("link", event.target, link_names)


__all__ = ["HardEvent", "HardFaultState", "validate_fault_targets"]
