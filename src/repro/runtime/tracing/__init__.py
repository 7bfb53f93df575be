"""Tracing: Extrae-style recording, Paraver-style export, analysis.

"When tracing is set (this is done using a simple flag), PyCOMPSs
generates a set of traces that help in application analysis … Paraver is
a powerful tool that provides detailed quantitative analysis" (paper §5).
The recorder captures per-core task intervals; the analysis module
recomputes everything the paper reads off its Paraver screenshots
(Figs. 4–6), and the exporter writes a Paraver-like ``.prv`` text file.
"""

from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "extrae": ("TraceRecorder", "TaskRecord"),
    "analysis": ("TraceAnalysis",),
    "paraver": ("export_prv",),
})

__all__ = [
    "TraceRecorder",
    "TaskRecord",
    "TraceAnalysis",
    "export_prv",
]
