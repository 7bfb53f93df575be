"""Storage models: shared parallel filesystem vs per-node staging.

The paper notes (§4) that when a Parallel File System such as IBM GPFS is
available, all tasks read/write it directly; otherwise COMPSs copies the
data a task needs to the node that runs it.  The two models here let the
simulated executor charge the appropriate staging cost.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.simcluster.network import NetworkModel
from repro.util.validation import check_non_negative, check_positive


class StorageModel(abc.ABC):
    """Abstract staging-cost model for task input data."""

    #: Whether :meth:`staging_time` depends on its arguments alone, with
    #: no memory of earlier stagings; the simulated executor then asks
    #: once per node for a task whose config names no dataset.
    stateless = False

    @abc.abstractmethod
    def staging_time(self, size_mb: float, node: str) -> float:
        """Seconds to make ``size_mb`` of input available on ``node``."""

    @abc.abstractmethod
    def register_write(self, size_mb: float, node: str) -> float:
        """Record ``node`` producing ``size_mb`` of output; returns write cost."""

    def describe(self) -> str:
        """Human-readable model name."""
        return type(self).__name__


@dataclass
class SharedParallelFilesystem(StorageModel):
    """GPFS-like PFS: every node sees the data; cost is read bandwidth.

    Attributes
    ----------
    read_bandwidth_mbps / write_bandwidth_mbps:
        Aggregate per-client streaming bandwidth.
    """

    read_bandwidth_mbps: float = 4000.0
    write_bandwidth_mbps: float = 2500.0

    stateless = True

    def __post_init__(self) -> None:
        check_positive("read_bandwidth_mbps", self.read_bandwidth_mbps)
        check_positive("write_bandwidth_mbps", self.write_bandwidth_mbps)

    def staging_time(self, size_mb: float, node: str) -> float:
        check_non_negative("size_mb", size_mb)
        return size_mb / self.read_bandwidth_mbps

    def register_write(self, size_mb: float, node: str) -> float:
        check_non_negative("size_mb", size_mb)
        return size_mb / self.write_bandwidth_mbps


@dataclass
class LocalDiskStaging(StorageModel):
    """No PFS: data is copied over the network to the executing node once.

    Repeated accesses on the same node are free (the runtime reuses the
    local copy, mirroring COMPSs object reuse, paper §2.2).
    """

    network: NetworkModel = field(default_factory=NetworkModel)
    source_node: str = "master"

    def __post_init__(self) -> None:
        self._resident: Dict[str, Set[str]] = {}

    def staging_time(self, size_mb: float, node: str) -> float:
        check_non_negative("size_mb", size_mb)
        key = f"{size_mb:.6f}"
        nodes = self._resident.setdefault(key, {self.source_node})
        if node in nodes:
            return 0.0
        nodes.add(node)
        return self.network.transfer_time(size_mb, self.source_node, node)

    def register_write(self, size_mb: float, node: str) -> float:
        check_non_negative("size_mb", size_mb)
        # Output stays node-local; zero immediate cost.
        key = f"{size_mb:.6f}"
        self._resident.setdefault(key, set()).add(node)
        return 0.0

    def reset(self) -> None:
        """Forget all staged copies (used between simulated runs)."""
        self._resident.clear()
