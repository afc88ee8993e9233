"""Opt-in runtime sanitizer: same-time event races and heap-order audit.

The kernel guarantees that same-time events fire in schedule order via a
monotone sequence number — every run with the same seed is bit-identical.
That guarantee is *syntactic*, not semantic: when two same-timestamp
events touch the **same resource** (two grants on one NIC thread, two
deliveries from one inbox) their relative order is decided by whichever
model happened to schedule first.  Any refactor that reorders scheduling
upstream silently swaps them — the discrete-event analogue of a data
race on real NIC-side protocol state.

:class:`RaceSanitizer` makes that hazard visible.  It is a kernel
observer: attach one to a :class:`~repro.sim.Simulator`
(``Simulator(observers=[RaceSanitizer()])`` or ``Machine(...,
sanitizer=True)``) and it sees every event pop.
Whenever two or more events fire at the same timestamp against the same
:meth:`~repro.sim.events.Event.race_scope` (a ``FifoResource`` or
``Store``), it checks their semantic tiebreak keys
(:meth:`~repro.sim.events.Event.tiebreak_key`):

* all keys present and pairwise distinct — the order is pinned by model
  semantics (e.g. wire sequence numbers): fine;
* any key missing (``None``) or duplicated — the pair is a **race**:
  both events are reported via ``Event.describe``.

The sanitizer is strictly observational: it never perturbs the heap or
the clock, so enabling it cannot change simulated results (pinned by a
byte-identical-report test).  It also audits the kernel's own contract
that pops arrive in nondecreasing ``(time, seq)`` order.

Implemented with no imports from :mod:`repro.sim` (duck-typed events),
so the kernel never imports the analysis package back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Stop recording (but keep counting) findings beyond this many, so a
#: systematically racy model cannot exhaust memory on a long run.
_MAX_RECORDED = 100


@dataclass(frozen=True)
class RaceFinding:
    """Two-or-more same-time events on one resource without a tiebreak.

    ``events`` holds ``(seq, key, description)`` for every participant,
    in fire order; ``reason`` says which key rule was violated.
    """

    time: float
    scope: str
    reason: str
    events: Tuple[Tuple[int, Any, str], ...]

    def __str__(self) -> str:
        lines = [
            f"same-time race at t={self.time:.3f}us on {self.scope} "
            f"({self.reason}):"
        ]
        for seq, key, description in self.events:
            lines.append(f"  seq={seq} key={key!r}  {description}")
        return "\n".join(lines)


@dataclass
class OrderViolation:
    """A heap pop that went backwards — a kernel bug, not a model bug."""

    previous: Tuple[float, int]
    current: Tuple[float, int]


class RaceSanitizer:
    """Observes event pops; collects :class:`RaceFinding` objects.

    One instance per simulator, passed in its ``observers`` list.  Each
    timestamp's group is judged when the clock moves on, and the last
    one when the run exits, so :attr:`findings` (bounded),
    :attr:`race_count` (exact) and :attr:`clean` are final once
    ``run()`` returns; :meth:`report` renders them.
    """

    def __init__(self) -> None:
        self.findings: List[RaceFinding] = []
        #: Total races, including ones beyond the recording cap.
        self.race_count = 0
        self.order_violations: List[OrderViolation] = []
        #: Events observed (all pops, scoped or not).
        self.events_observed = 0
        self._time: float = float("-inf")
        self._last: Tuple[float, int] = (float("-inf"), -1)
        #: scope object id -> (scope, [(seq, event), ...]) for the
        #: current timestamp.  Keyed by id() so unhashable scopes work
        #: and no scope object is ever compared/ordered.
        self._groups: Dict[int, Tuple[Any, List[Tuple[int, Any]]]] = {}

    # -- kernel observer ----------------------------------------------------

    def on_run_enter(self, sim: Any) -> None:
        """Nothing to set up."""

    def on_pop(self, t: float, seq: int, event: Any) -> None:
        """Called by the simulator loop for every popped event."""
        self.events_observed += 1
        if (t, seq) < self._last:
            self.order_violations.append(
                OrderViolation(previous=self._last, current=(t, seq))
            )
        self._last = (t, seq)
        if t != self._time:
            self._flush()
            self._time = t
        scope = event.race_scope()
        if scope is None:
            return
        group = self._groups.get(id(scope))
        if group is None:
            self._groups[id(scope)] = (scope, [(seq, event)])
        else:
            group[1].append((seq, event))

    def on_run_exit(self, sim: Any) -> None:
        """Judge the last timestamp group, so results are final.

        A run that a watchdog stops mid-timestamp, or a later run that
        fires more events at the clock a drained run left, has that
        timestamp judged as two groups.
        """
        self._flush()

    # -- analysis -----------------------------------------------------------

    def _flush(self) -> None:
        if not self._groups:
            return
        groups, self._groups = self._groups, {}
        for scope, members in groups.values():
            if len(members) < 2:
                continue
            keys = [ev.tiebreak_key() for _seq, ev in members]
            missing = sum(1 for k in keys if k is None)
            # Count duplicates positionally; keys may be unhashable.
            duplicated = any(
                k is not None and k in keys[i + 1 :]
                for i, k in enumerate(keys)
            )
            if not missing and not duplicated:
                continue
            self.race_count += 1
            if len(self.findings) >= _MAX_RECORDED:
                continue
            if missing:
                reason = f"{missing}/{len(members)} events carry no tiebreak key"
            else:
                reason = "duplicate tiebreak keys"
            self.findings.append(
                RaceFinding(
                    time=self._time,
                    scope=self._describe_scope(scope),
                    reason=reason,
                    events=tuple(
                        (seq, ev.tiebreak_key(), ev.describe())
                        for seq, ev in members
                    ),
                )
            )

    @staticmethod
    def _describe_scope(scope: Any) -> str:
        name = getattr(scope, "name", "") or "anonymous"
        return f"{type(scope).__name__}({name})"

    # -- reporting ----------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when no races and no ordering violations were seen."""
        return self.race_count == 0 and not self.order_violations

    def report(self) -> str:
        """Multi-line human-readable summary of everything observed."""
        lines = [
            f"race sanitizer: {self.events_observed} events observed, "
            f"{self.race_count} race(s), "
            f"{len(self.order_violations)} heap-order violation(s)"
        ]
        for finding in self.findings:
            lines.append(str(finding))
        if self.race_count > len(self.findings):
            lines.append(
                f"... {self.race_count - len(self.findings)} further "
                f"race(s) not recorded (cap {_MAX_RECORDED})"
            )
        for violation in self.order_violations:
            lines.append(
                "heap order violation: popped "
                f"{violation.current} after {violation.previous}"
            )
        return "\n".join(lines)
