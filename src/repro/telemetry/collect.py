"""The per-simulator telemetry bundle and the metrics snapshot.

One :class:`Telemetry` object rides on each :class:`~repro.sim.Simulator`
(``sim.telemetry``).  It bundles the five collection surfaces:

* ``metrics`` — a :class:`~.registry.MetricsRegistry` (or the shared
  null registry when disabled) fed by the protocol models;
* ``timeline`` — a :class:`~.stream.Timeline` (or ``None``) fed by
  resource occupancy spans, for the Chrome trace exporter;
* ``lifecycle`` — a :class:`~.lifecycle.LifecycleRecorder` (or the
  shared null recorder) of per-message protocol-phase spans;
* ``series`` — a :class:`~.series.SeriesBank` (or the shared null bank)
  of change-driven occupancy/gauge channels, resampled onto a Δt grid
  at export;
* ``trace`` — an :class:`~.stream.EventStream` (or the shared null
  trace) of ``(time, category, message)`` protocol records, reached as
  ``sim.trace``.

:func:`snapshot` flattens everything observable about a finished run —
registry instruments, per-resource busy/utilization/queue statistics,
per-store depth high-water marks, kernel totals — into one sorted,
JSON-ready dict.  Resource statistics are tracked unconditionally (they
predate telemetry and cost a few float ops per grant), so a snapshot is
meaningful even on a machine with no registry attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

from .lifecycle import LifecycleRecorder, NULL_LIFECYCLE, _NullLifecycle
from .registry import MetricsRegistry, NULL_REGISTRY, NullRegistry
from .series import NULL_SERIES, SeriesBank, _NullSeries
from .stream import NULL_TRACE, EventStream, Timeline, _NullTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

Number = Union[int, float]


class Telemetry:
    """Observability configuration + state for one simulated machine."""

    def __init__(
        self,
        metrics: bool = True,
        timeline: bool = False,
        lifecycle: bool = False,
        series: bool = False,
        trace: bool = False,
    ) -> None:
        self.metrics: Union[MetricsRegistry, NullRegistry] = (
            MetricsRegistry() if metrics else NULL_REGISTRY
        )
        self.timeline: Optional[Timeline] = Timeline() if timeline else None
        self.lifecycle: Union[LifecycleRecorder, _NullLifecycle] = (
            LifecycleRecorder() if lifecycle else NULL_LIFECYCLE
        )
        self.series: Union[SeriesBank, _NullSeries] = (
            SeriesBank() if series else NULL_SERIES
        )
        self.trace: Union[EventStream, _NullTrace] = (
            EventStream() if trace else NULL_TRACE
        )

    @property
    def enabled(self) -> bool:
        """Whether any collection surface is live."""
        return (
            self.metrics.enabled
            or self.timeline is not None
            or self.lifecycle.enabled
            or self.series.enabled
            or self.trace.enabled
        )


#: The shared disabled bundle a plain ``Simulator()`` uses.  Stateless —
#: registry, lifecycle, series and trace are the null singletons and it
#: has no timeline — so every untelemetered simulator can safely share it.
DISABLED = Telemetry(metrics=False, timeline=False)


def snapshot(sim: "Simulator") -> Dict[str, Number]:
    """Flat, sorted, JSON-ready metrics for one simulator.

    Keys:

    * ``<instrument name>`` — every registry counter/gauge/histogram
      (histograms expand to ``.count/.sum/.min/.max/.mean``);
    * ``resource.<name>.busy_us / .utilization / .occupancy / .grants /
      .wait_us / .queue_hwm / .in_use_hwm`` — every named
      :class:`~repro.sim.FifoResource` (links, buses, engines, CPUs).
      A resource has one slot, so ``occupancy`` (mean slots in use)
      repeats ``utilization`` and ``in_use_hwm`` is 1 once anything
      was granted; both are derived here and kept for the schema;
    * ``store.<name>.puts / .depth_hwm`` — every named
      :class:`~repro.sim.Store` (delivery queues);
    * ``sim.time_us / sim.events`` — kernel totals.

    Two runs with the same seed and spec produce bit-identical dicts.
    """
    out: Dict[str, Number] = dict(sim.telemetry.metrics.as_dict())
    elapsed = sim.now
    for res in sim.resources:
        if not res.name:
            continue
        prefix = f"resource.{res.name}"
        busy = res.busy_time
        if res._busy_since is not None:
            busy += elapsed - res._busy_since
        utilization = res.utilization(elapsed)
        out[f"{prefix}.busy_us"] = busy
        out[f"{prefix}.utilization"] = utilization
        out[f"{prefix}.occupancy"] = utilization
        out[f"{prefix}.grants"] = res.total_grants
        out[f"{prefix}.wait_us"] = res.total_wait_time
        out[f"{prefix}.queue_hwm"] = res.queue_hwm
        out[f"{prefix}.in_use_hwm"] = 1 if res.total_grants else 0
    for store in sim.stores:
        if not store.name:
            continue
        out[f"store.{store.name}.puts"] = store.total_puts
        out[f"store.{store.name}.depth_hwm"] = store.depth_hwm
    out["sim.time_us"] = elapsed
    out["sim.events"] = sim.events_processed
    return dict(sorted(out.items()))
