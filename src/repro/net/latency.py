"""Link latency models.

The paper's metric (message/correspondence counts) is latency-independent,
but latency models matter for the latency benchmarks and for realistic
interleavings of the AV-transfer protocol. All models draw from an injected
:class:`numpy.random.Generator` so simulations stay deterministic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


class LatencyModel(ABC):
    """Strategy producing a one-way delay for a (src, dst) message."""

    @abstractmethod
    def sample(self, src: str, dst: str, rng: np.random.Generator) -> float:
        """Return a nonnegative delay in simulated time units."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay}")
        self.delay = float(delay)

    def sample(self, src: str, dst: str, rng: np.random.Generator) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"<ConstantLatency {self.delay}>"


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not (low >= 0 and high >= low):
            raise ValueError(f"invalid range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, src: str, dst: str, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def __repr__(self) -> str:
        return f"<UniformLatency [{self.low}, {self.high}]>"


class LognormalLatency(LatencyModel):
    """Heavy-tailed delay: ``exp(N(mu, sigma))``, typical of WANs."""

    def __init__(self, mu: float = 0.0, sigma: float = 0.5) -> None:
        if math.isnan(mu) or not sigma >= 0:
            raise ValueError(f"invalid lognormal mu={mu}, sigma={sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, src: str, dst: str, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def __repr__(self) -> str:
        return f"<LognormalLatency mu={self.mu} sigma={self.sigma}>"


class PairwiseLatency(LatencyModel):
    """Different latency per (src, dst) pair with a fallback default.

    Useful to model a maker in a remote data centre: retailer↔retailer
    links fast, retailer↔maker links slow.
    """

    def __init__(
        self,
        default: LatencyModel,
        overrides: dict[tuple[str, str], LatencyModel] | None = None,
        symmetric: bool = True,
    ) -> None:
        self.default = default
        self.overrides = dict(overrides or {})
        self.symmetric = symmetric

    def set(self, src: str, dst: str, model: LatencyModel) -> None:
        self.overrides[(src, dst)] = model

    def sample(self, src: str, dst: str, rng: np.random.Generator) -> float:
        model = self.overrides.get((src, dst))
        if model is None and self.symmetric:
            model = self.overrides.get((dst, src))
        if model is None:
            model = self.default
        return model.sample(src, dst, rng)

    def __repr__(self) -> str:
        return f"<PairwiseLatency default={self.default!r} overrides={len(self.overrides)}>"
