"""Metric registry: counters, gauges, and streaming histograms.

The registry replaces ad-hoc ``List[float]`` scans with named
instruments that aggregate online:

* :class:`Counter` — monotonically increasing count;
* :class:`Gauge` — last-written value;
* :class:`StreamingHistogram` — log-bucketed distribution sketch giving
  p50/p90/p99/max without storing individual samples. Bucket boundaries
  grow geometrically, so quantile estimates carry a bounded *relative*
  error of about ``(growth - 1) / 2`` (≈2.4% at the default 1.05);
  ``min``/``max``/``count``/``mean`` are exact.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name!r} {self.value:g}>"


class Gauge:
    """A named last-value-wins instrument."""

    __slots__ = ("name", "value", "updated_at")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.updated_at: Optional[float] = None

    def set(self, value: float, now: Optional[float] = None) -> None:
        self.value = value
        self.updated_at = now

    def __repr__(self) -> str:
        return f"<Gauge {self.name!r} {self.value:g}>"


class StreamingHistogram:
    """Log-bucketed streaming histogram for non-negative samples.

    Parameters
    ----------
    name:
        Instrument name.
    growth:
        Geometric bucket growth factor (> 1). Smaller ⇒ tighter quantile
        error, more buckets. The default 1.05 keeps relative quantile
        error under ~2.5% with a few hundred buckets over 12 decades.
    """

    __slots__ = ("name", "growth", "_log_growth", "buckets", "zeros",
                 "count", "total", "min", "max")

    def __init__(self, name: str, growth: float = 1.05) -> None:
        if growth <= 1.0:
            raise ValueError("growth factor must exceed 1")
        self.name = name
        self.growth = growth
        self._log_growth = math.log(growth)
        #: bucket index -> sample count; bucket i covers
        #: (growth**i, growth**(i+1)]
        self.buckets: Dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Fold one sample into the sketch."""
        if value < 0:
            raise ValueError(f"negative sample {value} in {self.name!r}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self.zeros += 1
            return
        # ceil-like indexing: value sits in the bucket whose upper bound
        # is the first power of `growth` at or above it.
        index = math.floor(math.log(value) / self._log_growth)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other``'s sketch into this one (shard aggregation).

        Determinism guarantee: the bucket table after merging is a pure
        function of the *multiset* of samples — observing samples in one
        histogram or splitting them across shards and merging produces
        exactly equal buckets/zeros/count/min/max, because bucket counts
        are integers and bucket indexing depends only on the value.
        (``total`` is a float sum, so byte-equality of ``total`` — and
        hence of serialised snapshots — additionally requires a fixed
        merge fold order; the sweep runner merges in task-index order.)
        Property-tested in ``tests/test_obs.py``.
        """
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growth {other.growth}"
                f" into {self.growth}"
            )
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zeros += other.zeros
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the full sketch state.

        Buckets serialise as sorted ``[index, count]`` pairs (canonical
        and round-trippable — JSON objects would stringify the integer
        keys). ``min``/``max`` are ``None`` while empty so the encoding
        stays strict-JSON (no ``Infinity`` literals).
        """
        return {
            "kind": "histogram",
            "growth": self.growth,
            "buckets": [[i, self.buckets[i]] for i in sorted(self.buckets)],
            "zeros": self.zeros,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, Any]) -> "StreamingHistogram":
        """Rebuild a sketch from :meth:`to_dict` output."""
        hist = cls(name, growth=data["growth"])
        hist.buckets = {int(i): int(n) for i, n in data["buckets"]}
        hist.zeros = int(data["zeros"])
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        if data["min"] is not None:
            hist.min = float(data["min"])
        if data["max"] is not None:
            hist.max = float(data["max"])
        return hist

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (nearest-rank over buckets)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} not in [0, 1]")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = self.zeros
        if seen >= target:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                # geometric midpoint of the bucket, clamped to observed
                # extremes so q=0/q=1 stay exact.
                mid = self.growth ** (index + 0.5)
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - rounding guard

    def summary(self) -> Dict[str, float]:
        """The standard percentile summary (p50/p90/p99/max)."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "max": self.max,
        }

    def __repr__(self) -> str:
        return (
            f"<StreamingHistogram {self.name!r} n={self.count}"
            f" buckets={len(self.buckets)}>"
        )


Instrument = Any  # Counter | Gauge | StreamingHistogram


class MetricRegistry:
    """Named instruments, created on first use.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name with a different kind raises ``TypeError``.

    A writer may defer its updates until someone looks: the feeders it
    registers (:meth:`add_feeder`) run before every read and every
    instrument lookup, so a reader always sees them folded in.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._feeders: List[Callable[["MetricRegistry"], None]] = []

    def add_feeder(self, feed: Callable[["MetricRegistry"], None]) -> None:
        """Run ``feed(registry)`` before every read or instrument
        lookup. It must bring its instruments up to date and return at
        once when they are; it may look instruments up itself (the
        lookups it makes call it again, and that call must find nothing
        to do). The registry holds it for its own lifetime, so a feeder
        that held the registry would make a reference cycle."""
        self._feeders.append(feed)

    def _feed(self) -> None:
        for feed in self._feeders:
            feed(self)

    def _get(self, name: str, cls, *args) -> Instrument:
        self._feed()
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, *args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__},"
                f" not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, growth: float = 1.05) -> StreamingHistogram:
        return self._get(name, StreamingHistogram, growth)

    # ---------------------------------------------------------------- #
    # views
    # ---------------------------------------------------------------- #

    def rows(self) -> List[Tuple[str, str, str]]:
        """(name, kind, rendered value) rows for text summaries."""
        self._feed()
        out: List[Tuple[str, str, str]] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                out.append((name, "counter", f"{inst.value:g}"))
            elif isinstance(inst, Gauge):
                out.append((name, "gauge", f"{inst.value:g}"))
            else:
                s = inst.summary()
                out.append((
                    name,
                    "histogram",
                    (f"n={s['count']:g} mean={s['mean']:.3f}"
                     f" p50={s['p50']:.3f} p90={s['p90']:.3f}"
                     f" p99={s['p99']:.3f} max={s['max']:.3f}"),
                ))
        return out

    def to_dicts(self) -> Iterator[Dict[str, Any]]:
        """One JSON-ready dict per instrument (for the JSONL exporter)."""
        self._feed()
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                yield {"metric": name, "kind": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                yield {"metric": name, "kind": "gauge", "value": inst.value,
                       "updated_at": inst.updated_at}
            else:
                yield {"metric": name, "kind": "histogram", **inst.summary()}

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Full-state, JSON-ready snapshot of every instrument.

        Unlike :meth:`to_dicts` (which renders histogram *summaries*),
        this preserves raw histogram buckets so snapshots from different
        workers can be merged losslessly (see
        :mod:`repro.obs.snapshot`). Keys are sorted; values contain only
        canonical JSON types.
        """
        self._feed()
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                out[name] = {"kind": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                out[name] = {
                    "kind": "gauge",
                    "value": inst.value,
                    "updated_at": inst.updated_at,
                }
            else:
                out[name] = inst.to_dict()
        return out

    def get(self, name: str) -> Optional[Instrument]:
        self._feed()
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        self._feed()
        return name in self._instruments

    def __len__(self) -> int:
        self._feed()
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"<MetricRegistry instruments={len(self)}>"
