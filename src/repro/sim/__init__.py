"""Deterministic discrete-event simulation kernel.

Every AVD test scenario runs on a fresh :class:`Simulator` with a fresh
:class:`Network`; determinism (integer time, named RNG streams, FIFO
tie-breaking) makes scenario impact measurements reproducible given a seed.
"""

from .clock import MS, SECOND, US, format_time, millis, seconds, to_seconds
from .events import EventHandle, EventQueue
from .faults import (
    CorruptFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    PartitionFault,
    ReorderFault,
    match_all,
    match_endpoints,
)
from .metrics import (
    Counter,
    IntervalSeries,
    LatencySampler,
    MetricsRegistry,
    ThroughputMeasurement,
    measure_window,
)
from .network import (
    Envelope,
    FixedLatency,
    LanLatency,
    LatencyModel,
    Network,
    NetworkFault,
    UniformLatency,
)
from .node import CrashAwareNode, Node
from .rng import RngRegistry, derive_seed
from .simulator import SimulationError, Simulator
from .trace import TraceRecord, Tracer

__all__ = [
    "CorruptFault",
    "Counter",
    "CrashAwareNode",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "Envelope",
    "EventHandle",
    "EventQueue",
    "FixedLatency",
    "IntervalSeries",
    "LanLatency",
    "LatencyModel",
    "LatencySampler",
    "MS",
    "MetricsRegistry",
    "Network",
    "NetworkFault",
    "Node",
    "PartitionFault",
    "ReorderFault",
    "RngRegistry",
    "SECOND",
    "SimulationError",
    "Simulator",
    "ThroughputMeasurement",
    "TraceRecord",
    "Tracer",
    "UniformLatency",
    "US",
    "derive_seed",
    "format_time",
    "match_all",
    "match_endpoints",
    "measure_window",
    "millis",
    "seconds",
    "to_seconds",
]
