"""Discrete-event cluster simulator.

The paper evaluates on MareNostrum 4 (48-core CPU nodes), MinoTauro
(2 × K80 GPU nodes) and the CTE POWER9 cluster (4 × V100 nodes).  Those
machines are not available here, so this subpackage simulates them: a
virtual-time event engine (:mod:`repro.simcluster.events`), hardware
descriptions and presets (:mod:`~repro.simcluster.node`,
:mod:`~repro.simcluster.machines`), interconnect and storage models
(:mod:`~repro.simcluster.network`, :mod:`~repro.simcluster.storage`), a
training-task cost model calibrated to the durations the paper reports
(:mod:`~repro.simcluster.costmodel`), and failure injection
(:mod:`~repro.simcluster.failures`).

The substitution preserves the paper's observable behaviour because every
figure in the evaluation is a *scheduling* phenomenon — which task runs on
which core/node, when, and for how long — and those are fully determined by
the resource model + cost model + scheduler, all of which we implement.
"""

from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "events": ("DiscreteEventSimulator", "EventHandle"),
    "node": ("NodeSpec", "ProcessorKind"),
    "machines": (
        "ClusterSpec", "mare_nostrum4", "minotauro", "cte_power9",
        "local_machine", "heterogeneous",
    ),
    "network": ("NetworkModel",),
    "storage": ("StorageModel", "SharedParallelFilesystem", "LocalDiskStaging"),
    "costmodel": (
        "DatasetProfile", "MNIST_LIKE", "CIFAR10_LIKE", "TrainingCostModel",
    ),
    "failures": ("FailureInjector", "FailurePlan", "NodeFailure"),
})

__all__ = [
    "DiscreteEventSimulator",
    "EventHandle",
    "NodeSpec",
    "ProcessorKind",
    "ClusterSpec",
    "mare_nostrum4",
    "minotauro",
    "cte_power9",
    "local_machine",
    "heterogeneous",
    "NetworkModel",
    "StorageModel",
    "SharedParallelFilesystem",
    "LocalDiskStaging",
    "DatasetProfile",
    "MNIST_LIKE",
    "CIFAR10_LIKE",
    "TrainingCostModel",
    "FailureInjector",
    "FailurePlan",
    "NodeFailure",
]
