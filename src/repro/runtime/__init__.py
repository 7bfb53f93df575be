"""The COMPSs-equivalent task runtime.

Builds the dynamic dependency graph from ``@task`` calls, schedules tasks
over resource-constrained workers, executes them (really, on threads or
worker processes; or virtually, on a simulated cluster), retries failures, and
records Extrae-style traces.
"""

from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import COMPSsRuntime, current_runtime
from repro.runtime.future import Future, is_future
from repro.runtime.fault import RetryPolicy, FaultAction, TaskFailedError
from repro.runtime.task_definition import TaskDefinition, TaskInvocation, TaskState
from repro.runtime.graph import TaskGraph
from repro.runtime.resources import Allocation, ResourcePool, Worker
from repro.runtime.dot import export_dot, render_dot
from repro.runtime.tracing import TraceAnalysis, TraceRecorder, export_prv
from repro.runtime.stats import TaskStats, compute_stats, render_stats

__all__ = [
    "RuntimeConfig",
    "COMPSsRuntime",
    "current_runtime",
    "Future",
    "is_future",
    "RetryPolicy",
    "FaultAction",
    "TaskFailedError",
    "TaskDefinition",
    "TaskInvocation",
    "TaskState",
    "TaskGraph",
    "Allocation",
    "ResourcePool",
    "Worker",
    "export_dot",
    "render_dot",
    "TraceAnalysis",
    "TraceRecorder",
    "export_prv",
    "TaskStats",
    "compute_stats",
    "render_stats",
]
