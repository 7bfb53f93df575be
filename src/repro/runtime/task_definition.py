"""Task metadata: the static definition and per-call invocations."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.pycompss_api.constraint import ResourceConstraint
from repro.pycompss_api.parameter import ParameterSpec, normalize_param


class TaskKind(str, enum.Enum):
    """How the task body executes (paper §3's decorator family)."""

    PYTHON = "python"
    BINARY = "binary"
    MPI = "mpi"
    OMPSS = "ompss"


class TaskState(str, enum.Enum):
    """Lifecycle of a task invocation."""

    SUBMITTED = "submitted"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class TaskDefinition:
    """Static description created by ``@task`` (one per decorated function).

    Mutable fields (``constraint``, ``implementations``…) are filled in by
    the stacking decorators (``@constraint``, ``@implement``, …).
    """

    func: Callable
    name: str
    returns: Optional[object] = None
    n_returns: int = 1
    param_specs: Dict[str, ParameterSpec] = field(default_factory=dict)
    priority: bool = False
    constraint: ResourceConstraint = field(default_factory=ResourceConstraint)
    kind: TaskKind = TaskKind.PYTHON
    kind_details: Dict[str, Any] = field(default_factory=dict)
    #: Alternative implementations registered with ``@implement``; the
    #: scheduler picks whichever fits the chosen node.
    implementations: List["TaskDefinition"] = field(default_factory=list)
    #: Simulator hint: size (MB) of this task's result object.  The
    #: simulated executor charges a network transfer when a consumer runs
    #: on a different node than the producer (paper §3: the runtime is
    #: "transferring the data when needed").
    output_size_mb: float = 0.0
    #: Declared deterministic-and-pure: same arguments, same result, no
    #: side effects — the opt-in that lets the cross-trial
    #: :class:`~repro.runtime.reuse.ReuseCache` memoise this task's
    #: outputs under a namespace-free content key.  False by default;
    #: ordinary tasks keep at-most-study-scoped identities.
    cacheable: bool = False

    def spec_for(self, param_name: str) -> ParameterSpec:
        """Direction spec for ``param_name`` (default: IN)."""
        from repro.pycompss_api.parameter import IN

        return self.param_specs.get(param_name, IN)

    def add_param_specs(self, specs: Dict[str, object]) -> None:
        """Normalise and record user-supplied direction hints."""
        for key, value in specs.items():
            self.param_specs[key] = normalize_param(value)

    def all_candidates(self) -> List["TaskDefinition"]:
        """This definition plus any ``@implement`` alternatives.

        Cached (and revalidated against ``implementations``, which
        stacked decorators extend before first use): the list is rebuilt
        once per decorator application instead of once per placement
        probe.  Callers treat the list as read-only.
        """
        cached = getattr(self, "_candidates_cache", None)
        if cached is not None and cached[0] == len(self.implementations):
            return cached[1]
        candidates = [self, *self.implementations]
        self._candidates_cache = (len(self.implementations), candidates)
        return candidates

    def constraint_class(self) -> Tuple:
        """Hashable placement-equivalence key over all candidate constraints.

        Two tasks with equal constraint classes are interchangeable for
        *feasibility*: at any pool state, either both can be placed or
        neither can (which node is chosen may still differ, e.g. under
        locality preferences).  The dispatch fast path keeps one ready
        queue per class and probes only queue heads.

        The key is cached; the cache revalidates against the (mutable)
        ``constraint``/``implementations`` fields so stacked decorators
        applied before first use are picked up.
        """
        token = (id(self.constraint), len(self.implementations))
        cached = getattr(self, "_constraint_class_cache", None)
        if cached is not None and cached[0] == token:
            return cached[1]
        key = tuple(c.constraint.class_key for c in self.all_candidates())
        self._constraint_class_cache = (token, key)
        return key


_invocation_ids = itertools.count(1)


def reset_invocation_counter() -> None:
    """Restart task numbering (test isolation; graphs start at task 1)."""
    global _invocation_ids
    _invocation_ids = itertools.count(1)


#: The ``kwargs`` of every invocation submitted without keyword
#: arguments: one shared dict instead of one per task.  Never mutated.
_NO_KWARGS: Dict[str, Any] = {}


class TaskInvocation:
    """One call of a task function — a node in the dependency graph.

    A ``__slots__`` class with a hand-written ``__init__`` rather than a
    dataclass: one instance is created per submission, and the generated
    16-field ctor was a measurable slice of the hot path at 100k+ tasks.
    For the same reason a task carries no container it does not use:
    ``attempt_history`` and ``failed_nodes`` start as the shared empty
    tuple and become lists on their first write.  Read them as sequences
    and write them only through :meth:`add_history` and
    :meth:`add_failed_node`.  A call without keyword arguments
    shares one empty ``kwargs`` dict.

    ``attempt_history`` keeps one human-readable line per failed attempt
    ("attempt 1 on n1: RuntimeError(...) -> retry_same_node"); joined
    into the :class:`~repro.runtime.fault.TaskFailedError` message.
    ``failed_nodes`` are the nodes a resubmission avoids.  ``task_key``
    is the deterministic cross-process id (name + param digest +
    occurrence) assigned by the checkpoint subsystem when journaling is
    on; stable across driver restarts, unlike ``task_id``.  ``study`` is
    the id of the study session that submitted the task (``""`` outside
    service mode); it routes journaling to the study's namespaced
    journal and gives the dispatch engine its fair-share dimension.
    """

    __slots__ = (
        "definition", "args", "kwargs", "task_id", "state", "attempts",
        "failed_nodes", "attempt_history", "result", "error", "start_time",
        "end_time", "node", "task_key", "study", "content_key",
    )

    def __init__(
        self,
        definition: TaskDefinition,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        task_id: Optional[int] = None,
        state: TaskState = TaskState.SUBMITTED,
    ):
        self.definition = definition
        self.args = args
        self.kwargs = kwargs or _NO_KWARGS
        self.task_id = next(_invocation_ids) if task_id is None else task_id
        self.state = state
        self.attempts = 0
        self.failed_nodes: Sequence[str] = ()
        self.attempt_history: Sequence[str] = ()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.node: Optional[str] = None
        self.task_key: Optional[str] = None
        self.study: str = ""
        #: Namespace-free reuse-cache identity (cacheable tasks only);
        #: assigned by TaskKeyer.content_key_for on the submit path.
        self.content_key: Optional[str] = None

    def add_history(self, line: str) -> None:
        """Append one line to ``attempt_history``."""
        if self.attempt_history:
            self.attempt_history.append(line)
        else:
            self.attempt_history = [line]

    def add_failed_node(self, node: str) -> None:
        """Record ``node`` as one a resubmission should avoid."""
        if self.failed_nodes:
            self.failed_nodes.append(node)
        else:
            self.failed_nodes = [node]

    @property
    def label(self) -> str:
        """Stable human-readable id, e.g. ``experiment-7``."""
        return f"{self.definition.name}-{self.task_id}"

    def __hash__(self) -> int:
        return hash(self.task_id)

    def __repr__(self) -> str:
        return f"<TaskInvocation {self.label} {self.state.value}>"
