"""Declarative fault plans.

A :class:`FaultPlan` is the campaign-sweepable description of *what goes
wrong*: per-link bit-error rate, transient NIC stalls, and registration
failures, plus the knobs of each technology's recovery machinery.  Every
field is a JSON scalar so a plan rides inside a
:class:`~repro.campaign.RunSpec` (``fault.``-prefixed dotted axes, the
same convention as ``app_args.``) and crosses multiprocessing
boundaries unchanged.

The plan carries no randomness of its own — it only parameterizes the
:class:`~.injector.FaultInjector`, whose draws come from named
simulator RNG streams.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Tuple

from ..errors import ConfigurationError

#: Hard-event kinds, in the order ties at one timestamp are applied.
HARD_KINDS = ("link_down", "link_up", "switch_down")


@dataclass(frozen=True)
class HardEvent:
    """One scheduled hard failure (or repair) of a fabric element.

    ``target`` is a *stage name* for link events (``"isl:l0>s1"``,
    ``"torus.0.0.0.x-"``, ``"up3"``) or a switch id for ``switch_down``
    (``"s1"``, ``"a2"``, ``"l0"``, ``"c3"``, torus router ``"0.1.0"``,
    crossbar ``"x0"``).
    """

    at_us: float
    kind: str
    target: str


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, and how each fabric is allowed to recover.

    All rates are probabilities, all times microseconds.  The default
    plan injects nothing (``enabled`` is False) and is guaranteed not to
    consume a single random draw, so golden no-fault results stay
    bit-identical.
    """

    #: Per-bit error probability on every link direction (uplink,
    #: downlink, and inter-switch links of a two-level fabric).  An MTU
    #: packet of ``b`` bytes is corrupted with probability
    #: ``1 - (1 - ber)^(8b)``.
    ber: float = 0.0
    #: Extra per-bit error probability on the links selected by ``link``
    #: alone (composes with ``ber`` as independent error processes).
    #: Lets a campaign degrade one named ISL or torus link — a flaky
    #: cable — while the rest of the fabric stays clean.
    link_ber: float = 0.0
    #: Stage-name prefix ``link_ber`` applies to, e.g. ``"isl:l0>s1"``
    #: for one fat-tree ISL, ``"isl:"`` for every inter-switch link,
    #: ``"torus.0.0.0."`` for one node's torus ports, ``"up3"`` for a
    #: node uplink.  Required when ``link_ber`` is set.
    link: str = ""
    #: Probability that one NIC protocol operation (Elan thread-processor
    #: dispatch, HCA doorbell/DMA start) hits a transient stall.
    nic_stall_rate: float = 0.0
    #: Duration of one NIC stall.
    nic_stall_us: float = 25.0
    #: Probability that one memory-registration attempt fails
    #: transiently (IB pin-down path only; Elan has no host
    #: registration to fail).
    reg_failure_rate: float = 0.0
    #: Consecutive registration failures tolerated before the model
    #: raises :class:`~repro.errors.RegistrationError`.
    reg_retry_budget: int = 3
    #: First IB end-to-end retransmit timeout; doubles per retry
    #: (``ib_timeout_multiplier``) like the real per-QP timer.
    ib_retry_timeout_us: float = 75.0
    #: IB transport retry budget.  The hardware counter is 3 bits, so 7
    #: is the era-correct maximum.
    ib_retry_count: int = 7
    #: Exponential backoff multiplier for the IB retransmit timeout.
    ib_timeout_multiplier: float = 2.0
    #: Elan link-level retry turnaround: CRC detect + resend trigger per
    #: corrupted packet, on top of the packet's re-serialization time.
    elan_retry_turnaround_us: float = 0.4
    #: Stage name of one link to kill outright (hard failure), e.g.
    #: ``"isl:l0>s1"`` or ``"torus.0.0.0.x-"``.  Requires
    #: ``link_down_at_us``.  Unlike ``link`` this is an exact name,
    #: validated against the topology at Machine construction.
    link_down: str = ""
    #: Simulation time (us) at which ``link_down`` dies.
    link_down_at_us: float = -1.0
    #: Optional repair time for ``link_down`` (a flap).  Revival clears
    #: the liveness mask but migrated paths do NOT fail back (APM
    #: semantics: migration is one-way until re-armed).
    link_up_at_us: float = -1.0
    #: Id of one switch to kill outright (every attached link dies),
    #: e.g. ``"s1"`` (fat-tree spine), ``"a2"`` (agg), ``"1.0.0"``
    #: (torus router).  Requires ``switch_down_at_us``.
    switch_down: str = ""
    #: Simulation time (us) at which ``switch_down`` dies.
    switch_down_at_us: float = -1.0
    #: Compact multi-event schedule, ``"kind@t:target"`` joined by
    #: ``";"`` — e.g. ``"link_down@250:isl:l0>s1;link_up@400:isl:l0>s1"``.
    #: A JSON scalar so it sweeps as one campaign axis; composes with
    #: the scalar fields above.
    hard_events: str = ""
    #: Base IB path-death detection delay (per-QP timer + SM sweep
    #: abstraction); the actual delay is this scaled by a seeded jitter
    #: in [0.5, 1.5) from a ``fault.hard.detect.*`` stream.
    detect_delay_us: float = 50.0
    #: Quadrics rail count.  QsNetII clusters were commonly dual-rail;
    #: with >1 rails a dead link fails over to the other rail instead
    #: of raising :class:`~repro.errors.LinkDeadError`.
    elan_rails: int = 1
    #: Time to re-issue a transfer on the alternate rail.
    rail_switch_us: float = 200.0
    #: Link-level CRC retries Elan burns against a dead link before
    #: declaring it down (each costs one MTU re-serialization plus the
    #: retry turnaround).
    elan_dead_retry_limit: int = 8

    def __post_init__(self) -> None:
        # Types first: a string where a number belongs would otherwise
        # fail below as a bare TypeError, a number where a string belongs
        # as an AttributeError or only at machine build, and a bool would
        # pass as 0 or 1.
        for name, types, noun in _FIELD_TYPES:
            value = getattr(self, name)
            if not isinstance(value, types) or isinstance(value, bool):
                raise ConfigurationError(
                    f"fault plan {name}={value!r} must be {noun}"
                )
        if self.link_ber > 0.0 and not self.link:
            raise ConfigurationError("link_ber needs a link name/prefix")
        if self.link and self.link_ber <= 0.0:
            raise ConfigurationError("link is set but link_ber is zero")
        for name in ("ber", "link_ber", "nic_stall_rate", "reg_failure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1): {rate}"
                )
        for name in (
            "nic_stall_us",
            "ib_retry_timeout_us",
            "elan_retry_turnaround_us",
            "detect_delay_us",
            "rail_switch_us",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.reg_retry_budget < 1:
            raise ConfigurationError("reg_retry_budget must be >= 1")
        if self.ib_retry_count < 0:
            raise ConfigurationError("ib_retry_count must be >= 0")
        if self.ib_timeout_multiplier < 1.0:
            raise ConfigurationError("ib_timeout_multiplier must be >= 1")
        if self.elan_rails < 1:
            raise ConfigurationError("elan_rails must be >= 1")
        if self.elan_dead_retry_limit < 1:
            raise ConfigurationError("elan_dead_retry_limit must be >= 1")
        for target, at in (
            ("link_down", self.link_down_at_us),
            ("switch_down", self.switch_down_at_us),
        ):
            if getattr(self, target) and at < 0:
                raise ConfigurationError(
                    f"{target} is set but {target}_at_us is not"
                )
            if at >= 0 and not getattr(self, target):
                raise ConfigurationError(
                    f"{target}_at_us is set but {target} names no target"
                )
        if self.link_up_at_us >= 0:
            if not self.link_down:
                raise ConfigurationError("link_up_at_us needs link_down")
            if self.link_up_at_us <= self.link_down_at_us:
                raise ConfigurationError(
                    "link_up_at_us must be after link_down_at_us"
                )
        # Validate the compact schedule eagerly so a bad string fails at
        # plan construction, not mid-run.
        self.hard_schedule()

    @property
    def wire_faulty(self) -> bool:
        """True when any link can corrupt packets (global or targeted)."""
        return self.ber > 0.0 or self.link_ber > 0.0

    @property
    def has_hard_events(self) -> bool:
        """True when any scheduled hard failure is configured."""
        return bool(self.link_down or self.switch_down or self.hard_events)

    @property
    def enabled(self) -> bool:
        """True when any fault mechanism can actually fire."""
        return (
            self.wire_faulty
            or self.nic_stall_rate > 0.0
            or self.reg_failure_rate > 0.0
            or self.has_hard_events
        )

    def hard_schedule(self) -> Tuple[HardEvent, ...]:
        """The hard events, merged from scalars + ``hard_events``, sorted.

        Ordering is total — ``(at_us, kind, target)`` — so two plans
        describing the same failures apply them identically regardless
        of which field carried them (determinism contract).
        """
        events = []
        if self.link_down:
            events.append(
                HardEvent(self.link_down_at_us, "link_down", self.link_down)
            )
            if self.link_up_at_us >= 0:
                events.append(
                    HardEvent(self.link_up_at_us, "link_up", self.link_down)
                )
        if self.switch_down:
            events.append(
                HardEvent(self.switch_down_at_us, "switch_down", self.switch_down)
            )
        for item in filter(None, self.hard_events.split(";")):
            kind, sep, rest = item.partition("@")
            at_text, sep2, target = rest.partition(":")
            kind = kind.strip()
            if not sep or not sep2 or not target:
                raise ConfigurationError(
                    f"bad hard event {item!r}; expected 'kind@t:target'"
                )
            if kind not in HARD_KINDS:
                raise ConfigurationError(
                    f"unknown hard event kind {kind!r}; one of {HARD_KINDS}"
                )
            try:
                at = float(at_text)
            except ValueError:
                raise ConfigurationError(
                    f"bad hard event time {at_text!r} in {item!r}"
                ) from None
            if at < 0:
                raise ConfigurationError(f"hard event time must be >= 0: {item!r}")
            events.append(HardEvent(at, kind, target))
        return tuple(sorted(events, key=lambda e: (e.at_us, e.kind, e.target)))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready canonical form (field order)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from a (possibly partial) field mapping."""
        unknown = data.keys() - _FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan fields {sorted(unknown)}; "
                f"valid: {sorted(_FIELDS)}"
            )
        return cls(**data)

    def describe(self) -> str:
        """Compact non-default-fields summary for labels and journals."""
        defaults = FaultPlan()
        parts = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(defaults, f.name)
        ]
        return "FaultPlan(" + ", ".join(parts) + ")" if parts else "FaultPlan()"


#: The field names :meth:`FaultPlan.from_dict` accepts.
_FIELDS = frozenset(f.name for f in fields(FaultPlan))

#: What each declared field type accepts; a bool is never a number.
_ACCEPTS = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
}

#: ``(name, accepted types, noun)`` for every field, in field order.
_FIELD_TYPES = tuple((f.name, *_ACCEPTS[f.type]) for f in fields(FaultPlan))
