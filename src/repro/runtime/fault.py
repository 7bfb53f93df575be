"""Fault-tolerance policy (paper §3/§4).

"If a task fails for whatever reason (such as node failure), the runtime
tries to start the same task in the same node, if it fails again, it's
restarted in another node. … The failure of a task does not affect the
other tasks unless there are some dependencies."

:class:`RetryPolicy` encodes that two-stage behaviour with configurable
budgets, and :func:`decide_failure` is the one decision every executor
takes after a failed attempt.  On top of the paper's scheme the policy
carries an exponential-backoff schedule with deterministic seeded jitter:
the wait before attempt *k* is a pure function of
``(task_label, k, backoff_seed)``, so retry timing is bit-reproducible
regardless of execution order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.runtime.task_definition import TaskInvocation
from repro.util.seeding import rng_from
from repro.util.validation import check_in_range, check_non_negative


class FaultAction(str, enum.Enum):
    """What to do after a failed attempt."""

    RETRY_SAME_NODE = "retry_same_node"
    RESUBMIT_OTHER_NODE = "resubmit_other_node"
    GIVE_UP = "give_up"


@dataclass(frozen=True)
class RetryPolicy:
    """Two-stage retry: same node first, then other nodes.

    Attributes
    ----------
    same_node_retries:
        Extra attempts on the original node after the first failure.
    resubmissions:
        Additional attempts on *different* nodes after same-node retries
        are exhausted.
    backoff_base_s:
        Wait before the first retry (seconds; 0 disables backoff waits,
        reproducing the paper's immediate-retry behaviour).
    backoff_multiplier:
        Exponential growth factor between consecutive retries.
    backoff_max_s:
        Cap on any single backoff wait.
    backoff_jitter:
        Fractional jitter in ``[0, 1)``: the wait is scaled by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter]``.
    backoff_seed:
        Seed for the jitter draw.  The draw is keyed by
        ``(task_label, attempt)`` so it is independent of call order.
    """

    same_node_retries: int = 1
    resubmissions: int = 1
    backoff_base_s: float = 0.0
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 60.0
    backoff_jitter: float = 0.1
    backoff_seed: int = 0

    def __post_init__(self) -> None:
        check_non_negative("same_node_retries", self.same_node_retries)
        check_non_negative("resubmissions", self.resubmissions)
        check_non_negative("backoff_base_s", self.backoff_base_s)
        check_non_negative("backoff_max_s", self.backoff_max_s)
        check_in_range("backoff_jitter", self.backoff_jitter, 0.0, 1.0)
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts allowed (first try + retries + resubmissions)."""
        return 1 + self.same_node_retries + self.resubmissions

    def decide(self, task: TaskInvocation) -> FaultAction:
        """Choose the next action given ``task.attempts`` failures so far."""
        failures = task.attempts
        if failures <= 0:
            raise ValueError("decide() called with no recorded failure")
        if failures <= self.same_node_retries:
            return FaultAction.RETRY_SAME_NODE
        if failures < self.max_attempts:
            return FaultAction.RESUBMIT_OTHER_NODE
        return FaultAction.GIVE_UP

    def backoff_delay(self, task_label: str, failures: int) -> float:
        """Seconds to wait before retrying after ``failures`` failures.

        Deterministic: the same ``(task_label, failures, backoff_seed)``
        always yields the same delay, in any call order.
        """
        check_non_negative("failures", failures)
        if self.backoff_base_s <= 0.0 or failures <= 0:
            return 0.0
        delay = min(
            self.backoff_base_s * self.backoff_multiplier ** (failures - 1),
            self.backoff_max_s,
        )
        if self.backoff_jitter > 0.0:
            rng = rng_from(
                self.backoff_seed, f"backoff/{task_label}/{failures}"
            )
            delay *= 1.0 + self.backoff_jitter * (2.0 * rng.random() - 1.0)
        return float(delay)


class TaskTimeoutError(RuntimeError):
    """A task attempt exceeded its deadline (``task_timeout_s``).

    Raised *internally* by the executors to convert a hung attempt into a
    retryable failure; it surfaces to the user (inside
    :class:`TaskFailedError`) only when the retry budget is exhausted.
    """


class WorkerCrashError(RuntimeError):
    """A task attempt died with its worker process.

    Raised by the worker-process backend when the OS process hosting
    a task body disappears mid-attempt — segfault, OOM-kill, ``os._exit``,
    ``sys.exit``, or an external ``SIGKILL``.  Like
    :class:`TaskTimeoutError` it is *retryable*: the executor feeds it
    through the :class:`RetryPolicy`, so the task re-runs on a fresh
    worker and only surfaces (inside :class:`TaskFailedError`) once the
    budget is exhausted.  The crash never takes the pool down: the dead
    worker is replaced and every other slot keeps running.
    """

    def __init__(self, task_label: str, detail: str = ""):
        message = f"worker crashed while running {task_label}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.task_label = task_label
        self.detail = detail


class PoisonTaskError(RuntimeError):
    """A task was quarantined after killing too many workers.

    A body that deterministically crashes its host (a poison task) would
    otherwise burn the whole retry budget killing worker after worker.
    Once a task kills ``poison_threshold`` *consecutive* workers the
    supervised pool blacklists it and raises this **terminal** error:
    the retry policy is bypassed (straight to GIVE_UP) and the task
    fails immediately, while the rest of the study keeps running.
    """

    def __init__(self, task_label: str, worker_deaths: int, threshold: int):
        super().__init__(
            f"task {task_label} killed {worker_deaths} consecutive workers "
            f"(poison threshold {threshold}); blacklisted — no further retries"
        )
        self.task_label = task_label
        self.worker_deaths = worker_deaths
        self.threshold = threshold


class UnsatisfiableError(RuntimeError):
    """No node can currently host a task — a structured condition.

    ``permanent=True`` means the constraint fits no node in the cluster
    even when idle (a sizing error): it surfaces to the user at once.
    ``permanent=False`` means capable nodes exist but every one is dead
    or draining (*starvation*): the dispatch engine holds the task and
    arms the starvation watchdog instead of failing, so an elastic
    rejoin can still save it.
    """

    def __init__(
        self,
        message: str,
        task_label: str,
        constraint: str,
        permanent: bool,
    ):
        super().__init__(message)
        self.task_label = task_label
        self.constraint = constraint
        self.permanent = permanent


class ResourceStarvationError(RuntimeError):
    """A task's constraint class lost every candidate node.

    Raised by the starvation watchdog when all nodes that could host a
    task are dead or draining and none rejoined within
    ``starvation_timeout_s``.  A GPU task whose last GPU node was
    preempted, say, fails with this **terminal** error instead of
    hanging the study forever; the HPO layer treats it like any other
    task failure (fail-soft per trial via ``max_trial_retries``).
    """

    def __init__(self, task_label: str, constraint: str, waited_s: float):
        super().__init__(
            f"task {task_label} starved: no live node can host its "
            f"constraint ({constraint}) and none rejoined within "
            f"{waited_s:g} s (starvation_timeout_s)"
        )
        self.task_label = task_label
        self.constraint = constraint
        self.waited_s = waited_s


class UpstreamFailureError(RuntimeError):
    """A task was cancelled because a task it depends on failed terminally.

    "The failure of a task does not affect the other tasks unless there
    are some dependencies" — when a producer exhausts its retry budget
    (or starves), its transitive consumers can never become ready.
    Failing them eagerly with this error turns a would-be infinite wait
    into an immediate, attributable study failure.
    """

    def __init__(self, task_label: str, upstream_label: str, cause: BaseException):
        super().__init__(
            f"task {task_label} cancelled: upstream task "
            f"{upstream_label} failed terminally ({cause!r})"
        )
        self.task_label = task_label
        self.upstream_label = upstream_label
        self.upstream_cause = cause


class StudyAbandonedError(RuntimeError):
    """A task was cancelled because its whole study was terminated.

    Raised into the unfinished tasks of a study that the service layer
    abandons — failed-trial budget exhausted, cancelled by the tenant, or
    shed under memory pressure.  Terminal (never retried): the study is
    gone, so its in-flight work is worthless.  Other studies sharing the
    runtime are unaffected — that is the fault-isolation contract.
    """

    def __init__(self, task_label: str, study: str, reason: str = ""):
        message = f"task {task_label} cancelled: study {study!r} terminated"
        if reason:
            message += f" ({reason})"
        super().__init__(message)
        self.task_label = task_label
        self.study = study
        self.reason = reason


class TaskFailedError(RuntimeError):
    """Raised to the user when a task exhausts its retry budget.

    The message carries the per-attempt action history and the original
    exception is chained (``raise … from cause`` in the executors) so the
    user's traceback shows the root failure.
    """

    def __init__(self, task: TaskInvocation, cause: BaseException):
        history = "; ".join(task.attempt_history)
        message = (
            f"task {task.label} failed after {task.attempts} attempts "
            f"(nodes tried: {task.failed_nodes or ['?']}): {cause!r}"
        )
        if history:
            message += f" [history: {history}]"
        super().__init__(message)
        self.task = task
        self.cause = cause
        self.__cause__ = cause


def decide_failure(
    retry_policy: RetryPolicy,
    task: TaskInvocation,
    exc: BaseException,
    node: str,
    node_lost: bool = False,
) -> Tuple[FaultAction, float, str]:
    """What follows a failed attempt: ``(action, backoff delay, history line)``.

    ``task.attempts`` already counts the failed attempt on ``node``.  A
    :class:`PoisonTaskError` is terminal whatever the budget says, and an
    attempt whose node is gone (``node_lost``) cannot retry in place, so
    its same-node retry becomes a resubmission.  Pure: the same inputs
    always give the same answer, in real and in virtual time alike.
    """
    if isinstance(exc, PoisonTaskError):
        action = FaultAction.GIVE_UP
    else:
        action = retry_policy.decide(task)
        if node_lost and action is FaultAction.RETRY_SAME_NODE:
            action = FaultAction.RESUBMIT_OTHER_NODE
    delay = (
        0.0 if action is FaultAction.GIVE_UP
        else retry_policy.backoff_delay(task.label, task.attempts)
    )
    line = f"attempt {task.attempts} on {node}: {exc!r} -> {action.value}"
    return action, delay, line
