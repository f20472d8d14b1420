"""Simulated network substrate: endpoints, latency, faults, stats."""

from repro.net.endpoint import CrashedEndpointError, Endpoint, RequestTimeout
from repro.net.faults import FaultInjector, FaultSchedule, FaultStep
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    LognormalLatency,
    PairwiseLatency,
    UniformLatency,
)
from repro.net.message import Message
from repro.net.network import EndpointNotFound, Network
from repro.net.reliable import TAG_RELIABLE, ReliabilityParams, ReliableSession
from repro.net.sizes import DEFAULT_HEADER_BYTES, SizeModel
from repro.net.stats import (
    MESSAGES_PER_CORRESPONDENCE,
    NetworkStats,
    correspondences,
)

__all__ = [
    "ConstantLatency",
    "CrashedEndpointError",
    "Endpoint",
    "EndpointNotFound",
    "FaultInjector",
    "FaultSchedule",
    "FaultStep",
    "LatencyModel",
    "LognormalLatency",
    "MESSAGES_PER_CORRESPONDENCE",
    "Message",
    "Network",
    "NetworkStats",
    "PairwiseLatency",
    "ReliabilityParams",
    "ReliableSession",
    "RequestTimeout",
    "SizeModel",
    "TAG_RELIABLE",
    "DEFAULT_HEADER_BYTES",
    "UniformLatency",
    "correspondences",
]
