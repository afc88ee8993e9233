"""Deterministic virtual-time series sampling.

The simulator's clock only advances at events, so a wall-clock-style
polling sampler is impossible (and a periodic wakeup process would stop
``run_all`` from ever draining its heap).  Instead each observed value —
a resource's in-use count, a store's depth, credits outstanding, the
registration cache's pinned bytes — is a *channel* recording
change-driven ``(time, value)`` points, and :meth:`SeriesBank.sampled`
resamples every channel onto a common Δt grid at export time with
step-function (sample-and-hold) semantics.  Points are appended in
simulation order, so two runs with the same seed produce byte-identical
series, serial or parallel.

Like the metrics registry and the lifecycle recorder, the disabled form
is a pair of shared null singletons: model code fetches its channel once
at construction (``sim.telemetry.series.channel(...)``) and calls
``record`` unconditionally — one empty method call, zero allocation,
when sampling is off.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: One change point: (simulation time us, value).
Point = Tuple[float, float]


class Channel:
    """One sampled quantity: change-driven points, deduplicated by value."""

    __slots__ = ("name", "points", "_bank")

    def __init__(self, name: str, bank: "SeriesBank") -> None:
        self.name = name
        self.points: List[Point] = []
        self._bank = bank

    def record(self, now: float, value: float) -> None:
        """Record ``value`` at ``now``; no-op if the value is unchanged."""
        points = self.points
        if points:
            last_t, last_v = points[-1]
            if last_v == value:
                return
            if last_t == now:
                # Same-instant update: keep only the final value so the
                # step function stays single-valued.
                points[-1] = (now, value)
                return
        bank = self._bank
        if bank.total_points >= bank.limit:
            bank.dropped_by_channel[self.name] = (
                bank.dropped_by_channel.get(self.name, 0) + 1
            )
            return
        points.append((now, value))
        bank.total_points += 1

    def __len__(self) -> int:
        return len(self.points)


class _NullChannel:
    """Shared inert channel for disabled sampling."""

    __slots__ = ()

    name = ""
    points: Tuple[Point, ...] = ()

    def record(self, now: float, value: float) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_CHANNEL = _NullChannel()


class SeriesBank:
    """All channels of one simulator, with a shared bounded point budget."""

    __slots__ = ("limit", "channels", "total_points", "dropped_by_channel")

    enabled = True

    def __init__(self, limit: int = 500_000) -> None:
        self.limit = limit
        #: name -> Channel, in first-use (simulation) order.
        self.channels: Dict[str, Channel] = {}
        self.total_points = 0
        self.dropped_by_channel: Dict[str, int] = {}

    def channel(self, name: str) -> Channel:
        """The channel called ``name``, created on first use."""
        ch = self.channels.get(name)
        if ch is None:
            ch = self.channels[name] = Channel(name, self)
        return ch

    @property
    def dropped(self) -> int:
        """Total points dropped at the cap, across channels."""
        total = 0
        for count in self.dropped_by_channel.values():
            total += count
        return total

    def sampled(
        self,
        t_end: float,
        dt: float = 0.0,
        points: int = 200,
    ) -> Dict[str, Any]:
        """Every channel resampled onto a common grid ``0, dt, 2dt, ...``.

        ``dt`` of 0 derives the step from ``points`` samples across
        ``[0, t_end]``.  Values use sample-and-hold: each grid point
        carries the channel's value at that instant.  The result is
        JSON-ready and byte-identical across runs of the same seed.
        """
        if dt <= 0.0:
            dt = (t_end / points) if t_end > 0 and points > 0 else 1.0
        n = int(t_end / dt) + 1 if t_end > 0 else 1
        out: Dict[str, Any] = {
            "dt_us": dt,
            "t_end_us": t_end,
            "samples": n,
            "channels": {},
        }
        for name in sorted(self.channels):
            pts = self.channels[name].points
            values: List[float] = []
            value = 0.0
            i = 0
            npts = len(pts)
            for k in range(n):
                t = k * dt
                while i < npts and pts[i][0] <= t:
                    value = pts[i][1]
                    i += 1
                values.append(value)
            out["channels"][name] = values
        if self.dropped_by_channel:
            out["dropped_by_channel"] = dict(
                sorted(self.dropped_by_channel.items())
            )
        return out

    def summary(self) -> Dict[str, Any]:
        """Cap accounting: channels, stored points, drops per channel."""
        return {
            "channels": len(self.channels),
            "points": self.total_points,
            "dropped": self.dropped,
            "dropped_by_channel": dict(sorted(self.dropped_by_channel.items())),
        }

    def __len__(self) -> int:
        return self.total_points


class _NullSeries:
    """Shared disabled bank: ``channel`` hands out the null channel."""

    __slots__ = ()

    enabled = False
    limit = 0
    channels: Dict[str, Channel] = {}
    total_points = 0
    dropped = 0
    dropped_by_channel: Dict[str, int] = {}

    def channel(self, name: str) -> _NullChannel:
        return NULL_CHANNEL

    def sampled(
        self, t_end: float, dt: float = 0.0, points: int = 200
    ) -> Dict[str, Any]:
        return {"dt_us": 0.0, "t_end_us": t_end, "samples": 0, "channels": {}}

    def summary(self) -> Dict[str, Any]:
        return {
            "channels": 0,
            "points": 0,
            "dropped": 0,
            "dropped_by_channel": {},
        }

    def __len__(self) -> int:
        return 0


NULL_SERIES = _NullSeries()
