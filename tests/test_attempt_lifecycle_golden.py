"""The attempt lifecycle is pinned, not assumed: three simulated chaos runs
must replay byte-for-byte, whichever code path decides retries, backoff,
timeouts, speculation and starvation.

Each digest below was recorded at the commit before the executors shared
one attempt lifecycle (aa72afa); ``chaos_study`` was re-recorded when a
failed attempt whose retry backs off (or gives up) started handing its
freed slot to queued work at once, which moves two placements there.
A digest covers

* every :class:`~repro.runtime.resilience.ResilienceLog` event as
  ``(time, kind, task_label, node, detail)``;
* every task as ``(label, attempts, attempt_history, node)``;
* the failure injector's ``injected_failures`` / ``injected_hangs`` —
  moving a ``should_fail`` / ``should_hang`` query to another moment of an
  attempt changes these lists even when the timeline does not move.

A mismatch prints the new digest; re-record only for an intended change
to the simulated lifecycle, and say why in the commit.
"""

import hashlib

import pytest

from repro.pycompss_api import compss_wait_on
from repro.runtime.fault import TaskFailedError
from repro.runtime.runtime import COMPSsRuntime
from repro.simcluster.failures import ChurnPlan, FailureInjector
from repro.simcluster.machines import heterogeneous

from tests.test_runtime_churn import definition, run_study, sim_runtime
from tests.test_runtime_resilience import run_chaos_study


GOLDEN = {
    "chaos_study": (
        "4a3c0b78190e541db1f06f38c2df668c"
        "1874b0a5c5e2a0e7298dbcd2e511e460"
    ),
    "churn_seed11": (
        "6714dd1288be6a0ae1873e959f043006"
        "7fcdc0e99f12cfaec705cf46df48e860"
    ),
    "gpu_starvation": (
        "26242ab3cd97dd695a57bb0cab557431"
        "00649dd0c0a0e450cbb3d7b521b551ee"
    ),
}


@pytest.fixture
def runtimes(monkeypatch):
    """Every runtime started while the fixture is active, in start order."""
    started = []
    original = COMPSsRuntime.start

    def start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(COMPSsRuntime, "start", start)
    return started


def lifecycle_digest(runtimes) -> str:
    rows = []
    for rt in runtimes:
        injector = rt.failure_injector
        rows.append((
            [(e.time, e.kind, e.task_label, e.node, e.detail)
             for e in rt.resilience.events],
            [(t.label, t.attempts, list(t.attempt_history), t.node)
             for t in rt.graph.tasks()],
            list(injector.injected_failures) if injector else None,
            list(injector.injected_hangs) if injector else None,
        ))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def gpu_starvation():
    """The only GPU node dies: the GPU task is reaped after the starvation
    timeout and its consumer is cancelled, while a CPU task completes."""
    rt = sim_runtime(
        heterogeneous(cpu_nodes=2, gpu_nodes=1), duration=100.0,
        failure_injector=FailureInjector(
            churn=ChurnPlan().storm(10.0, "gpu-0001")
        ),
        starvation_timeout_s=120.0,
    )
    try:
        cpu_fut = rt.submit(definition("warmup", cpu=4), (0,), {})
        gpu_fut = rt.submit(definition("train", cpu=4, gpu=1), (1,), {})
        plot_fut = rt.submit(definition("plot", cpu=4), (gpu_fut,), {})
        assert compss_wait_on(cpu_fut) == 0
        with pytest.raises(TaskFailedError):
            compss_wait_on(plot_fut)
    finally:
        rt.stop(wait=False)


SCENARIOS = {
    "chaos_study": run_chaos_study,
    "churn_seed11": lambda: run_study(11, churn_on=True),
    "gpu_starvation": gpu_starvation,
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_lifecycle_is_byte_identical_to_the_recorded_one(name, runtimes):
    SCENARIOS[name]()
    assert runtimes, "the scenario started no runtime"
    assert lifecycle_digest(runtimes) == GOLDEN[name]
