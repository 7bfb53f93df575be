"""The COMPSs-equivalent task runtime.

Builds the dynamic dependency graph from ``@task`` calls, schedules tasks
over resource-constrained workers, executes them (really, on threads or
worker processes; or virtually, on a simulated cluster), retries failures, and
records Extrae-style traces.
"""

from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "config": ("RuntimeConfig",),
    "runtime": ("COMPSsRuntime", "current_runtime"),
    "future": ("Future", "is_future"),
    "fault": ("RetryPolicy", "FaultAction", "TaskFailedError"),
    "task_definition": ("TaskDefinition", "TaskInvocation", "TaskState"),
    "graph": ("TaskGraph",),
    "resources": ("Allocation", "ResourcePool", "Worker"),
    "dot": ("export_dot", "render_dot"),
    "tracing": ("TraceAnalysis", "TraceRecorder", "export_prv"),
    "stats": ("TaskStats", "compute_stats", "render_stats"),
})

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
