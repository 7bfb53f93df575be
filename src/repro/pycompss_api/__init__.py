"""User-facing PyCOMPSs-compatible API.

This mirrors the surface the paper's Listing 2 uses::

    from repro.pycompss_api.task import task
    from repro.pycompss_api.api import compss_wait_on
    from repro.pycompss_api.constraint import constraint

    @constraint(processors=[{"ProcessorType": "CPU", "ComputingUnits": 1},
                            {"ProcessorType": "GPU", "ComputingUnits": 1}])
    @task(returns=int)
    def experiment(config):
        ...

Key semantic from the paper (§3, *Programmability*): "in the absence of
PyCOMPSs, the program executes sequentially … and all PyCOMPSs directions
are ignored."  When no runtime has been started, ``@task`` functions run
inline and ``compss_wait_on`` is the identity.
"""

# These three names are also their submodules' names: a direct import of
# the submodule would bind the module over a lazy name, so they bind here
# (all three modules import nothing heavy).
from repro.pycompss_api.task import task
from repro.pycompss_api.constraint import constraint
from repro.pycompss_api.implement import implement, binary, mpi, ompss, multinode
from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "parameter": (
        "IN", "OUT", "INOUT", "FILE_IN", "FILE_OUT", "FILE_INOUT", "Direction",
    ),
    "task_group": ("TaskGroup", "compss_barrier_group"),
    "api": (
        "compss_start", "compss_stop", "compss_wait_on", "compss_barrier",
        "compss_open", "compss_delete_object", "COMPSs",
    ),
})

__all__ = [
    "task",
    "constraint",
    "implement",
    "binary",
    "mpi",
    "ompss",
    "multinode",
    "IN",
    "OUT",
    "INOUT",
    "FILE_IN",
    "FILE_OUT",
    "FILE_INOUT",
    "Direction",
    "compss_start",
    "compss_stop",
    "compss_wait_on",
    "compss_barrier",
    "compss_barrier_group",
    "TaskGroup",
    "compss_open",
    "compss_delete_object",
    "COMPSs",
]
