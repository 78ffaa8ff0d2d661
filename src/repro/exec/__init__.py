"""Pluggable trial-execution engine (serial / thread / process).

The search layer describes trials (:class:`TrialSpec`) and this package
runs them: a :class:`TrialExecutor` backend picks the substrate, a
:class:`TrialCache` makes repeated proposals free, and
:class:`ExecutionEngine` wraps both with crash isolation and per-trial
time limits.  One thread pool, :class:`SharedWorkerPool`, serves both
the thread backend (a private pool, one lease) and the fit service's
tenants.  See README.md §"Execution engine" for the design.
"""

from .base import (
    BACKENDS,
    FutureHandle,
    ImmediateHandle,
    PoolBrokenError,
    TrialExecutor,
    TrialHandle,
    TrialSpec,
    make_executor,
    run_spec,
)
from .cache import TrialCache
from .engine import EngineHandle, ExecutionEngine, RetryPolicy
from .multiplex import LeasedExecutor, SharedWorkerPool, TicketHandle
from .process import ProcessExecutor
from .serial import SerialExecutor

__all__ = [
    "BACKENDS",
    "TrialSpec",
    "TrialHandle",
    "ImmediateHandle",
    "FutureHandle",
    "TrialExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "SharedWorkerPool",
    "LeasedExecutor",
    "TicketHandle",
    "PoolBrokenError",
    "TrialCache",
    "ExecutionEngine",
    "EngineHandle",
    "RetryPolicy",
    "make_executor",
    "run_spec",
]
