"""Chaos tests for the supervised worker-process pool (``backend="workers"``).

Every scenario here would take the whole driver down (or leak a wedged
thread forever) on the thread backend: segfaults, ``os._exit``, external
``SIGKILL`` mid-task, and genuinely hung bodies.  The supervised pool
must contain each one — the dead worker is replaced, the attempt retries
on a fresh worker through the normal fault policy, and the study keeps
running.

Cross-process attempt state uses marker files in ``tmp_path``: a
"crash once" body checks for its marker, crashes and leaves it on the
first attempt, and succeeds on any later attempt — in whichever worker
process that attempt lands.
"""

import ctypes
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.hpo import GridSearch, PyCOMPSsRunner, fast_mock_objective, parse_search_space
from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import (
    PoisonTaskError,
    RetryPolicy,
    TaskFailedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime.runtime import COMPSsRuntime
from repro.simcluster.machines import local_machine


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


def _wait_exited(pid: int, timeout: float = 5.0) -> None:
    """Wait until ``pid`` (a child of this process) is a zombie or gone."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return
        if stat.rsplit(")", 1)[1].split()[0] in ("Z", "X"):
            return
        time.sleep(0.01)
    raise AssertionError(f"pid {pid} still running after {timeout}s")


def _segfault() -> None:
    """Dereference NULL: the OS kills the process with SIGSEGV."""
    ctypes.string_at(0)


# ----------------------------------------------------------------------
# Task bodies (module-level so they transport to worker processes)
# ----------------------------------------------------------------------
@task(returns=int)
def add_one(x):
    return x + 1


@task(returns=int)
def segfault_once(marker, x):
    if not os.path.exists(marker):
        Path(marker).write_text("crashed")
        _segfault()
    return x * 2


@task(returns=int)
def exit_once(marker, x):
    if not os.path.exists(marker):
        Path(marker).write_text("crashed")
        os._exit(1)
    return x * 3


@task(returns=int)
def sys_exit_once(marker, x):
    if not os.path.exists(marker):
        Path(marker).write_text("crashed")
        sys.exit(2)
    return x * 5


@task(returns=int)
def hang_once(marker, x):
    if not os.path.exists(marker):
        Path(marker).write_text("hung")
        time.sleep(600)
    return x * 7


@task(returns=int)
def always_segfault(x):
    _segfault()
    return x  # pragma: no cover


@task(returns=int)
def always_hang(x):
    time.sleep(600)
    return x  # pragma: no cover


@task(returns=int)
def slow_identity(x):
    time.sleep(0.8)
    return x


@task(returns=int)
def record_pid(x):
    return os.getpid()


# ----------------------------------------------------------------------
# Crash containment
# ----------------------------------------------------------------------
class TestCrashContainment:
    def test_segfault_is_contained_and_retried(self, tmp_path):
        marker = str(tmp_path / "seg")
        with COMPSs(cluster=local_machine(4), backend="workers") as rt:
            assert compss_wait_on(segfault_once(marker, 21)) == 42
            # The pool survived: unrelated work still runs.
            assert compss_wait_on(add_one(1)) == 2
            counts = rt.resilience.counts()
            assert counts.get("worker_crash", 0) >= 1

    def test_os_exit_is_contained(self, tmp_path):
        marker = str(tmp_path / "exit")
        with COMPSs(cluster=local_machine(4), backend="workers") as rt:
            assert compss_wait_on(exit_once(marker, 4)) == 12
            assert rt.resilience.counts().get("worker_crash", 0) >= 1

    def test_sys_exit_kills_worker_not_driver(self, tmp_path):
        marker = str(tmp_path / "sysexit")
        with COMPSs(cluster=local_machine(4), backend="workers") as rt:
            assert compss_wait_on(sys_exit_once(marker, 4)) == 20
            assert rt.resilience.counts().get("worker_crash", 0) >= 1

    def test_external_sigkill_mid_task_retries(self):
        with COMPSs(cluster=local_machine(2), backend="workers") as rt:
            fut = slow_identity(9)
            executor = rt.executor
            deadline = time.time() + 5.0
            victim = None
            while time.time() < deadline and victim is None:
                busy = [w for w in executor.pool_status() if w["state"] == "busy"]
                if busy:
                    victim = busy[0]["pid"]
                time.sleep(0.02)
            assert victim is not None, "task never reached a worker"
            os.kill(victim, signal.SIGKILL)
            assert compss_wait_on(fut) == 9
            assert rt.resilience.counts().get("worker_crash", 0) >= 1

    def test_idle_worker_death_found_at_next_claim(self):
        cfg = RuntimeConfig(
            cluster=local_machine(2), backend="workers", max_parallel=1,
        )
        with COMPSs(cfg) as rt:
            assert compss_wait_on([add_one(i) for i in range(3)]) == [1, 2, 3]
            [victim] = rt.executor.worker_pids()
            os.kill(victim, signal.SIGKILL)
            _wait_exited(victim)
            assert compss_wait_on(add_one(10)) == 11
            crashes = rt.resilience.of_kind("worker_crash")
            assert len(crashes) == 1
            assert "idle worker died" in crashes[0].detail
            assert victim not in rt.executor.worker_pids()

    def test_crash_error_is_retryable_not_instant_failure(self, tmp_path):
        # With retries disabled the crash must surface as the cause.
        marker = str(tmp_path / "nocov")
        cfg = RuntimeConfig(
            cluster=local_machine(2), backend="workers",
            retry_policy=RetryPolicy(same_node_retries=0, resubmissions=0),
        )
        with COMPSs(cfg):
            with pytest.raises(TaskFailedError) as info:
                compss_wait_on(segfault_once(marker, 1))
            assert isinstance(info.value.cause, WorkerCrashError)


# ----------------------------------------------------------------------
# Hard-kill deadlines
# ----------------------------------------------------------------------
class TestHardKillTimeouts:
    def test_hung_body_hard_killed_within_deadline(self, tmp_path):
        marker = str(tmp_path / "hang")
        t0 = time.time()
        with COMPSs(
            cluster=local_machine(4), backend="workers", task_timeout_s=0.5
        ) as rt:
            assert compss_wait_on(hang_once(marker, 6)) == 42
            elapsed = time.time() - t0
            # One hung attempt killed at the 0.5 s deadline + retry +
            # supervision grace; nowhere near the body's 600 s sleep.
            assert elapsed < 10.0
            counts = rt.resilience.counts()
            assert counts.get("worker_killed", 0) >= 1
            assert counts.get("timeout", 0) >= 1

    def test_timeout_surfaces_after_budget_exhausted(self):
        with COMPSs(
            cluster=local_machine(2), backend="workers", task_timeout_s=0.3,
        ):
            with pytest.raises(TaskFailedError) as info:
                compss_wait_on(always_hang(1))
            assert isinstance(info.value.cause, TaskTimeoutError)


# ----------------------------------------------------------------------
# Poison-task quarantine
# ----------------------------------------------------------------------
class TestPoisonQuarantine:
    def test_poison_task_blacklisted_before_budget_exhausted(self):
        # A huge retry budget: without quarantine this would kill nine
        # workers; the threshold must cut it off at two.
        cfg = RuntimeConfig(
            cluster=local_machine(4), backend="workers",
            poison_threshold=2,
            retry_policy=RetryPolicy(same_node_retries=4, resubmissions=4),
        )
        with COMPSs(cfg) as rt:
            with pytest.raises(TaskFailedError) as info:
                compss_wait_on(always_segfault(1))
            assert isinstance(info.value.cause, PoisonTaskError)
            counts = rt.resilience.counts()
            assert counts.get("poison_task", 0) == 1
            # Exactly poison_threshold workers died for this task.
            assert counts.get("worker_crash", 0) == 2
            assert rt.executor.poisoned_tasks() == [info.value.task.label]
            # The rest of the study keeps running.
            assert compss_wait_on(add_one(10)) == 11


# ----------------------------------------------------------------------
# Worker recycling
# ----------------------------------------------------------------------
class TestRecycling:
    def test_workers_recycled_after_quota(self):
        cfg = RuntimeConfig(
            cluster=local_machine(2), backend="workers",
            max_parallel=2, max_tasks_per_worker=2,
        )
        with COMPSs(cfg) as rt:
            pids = compss_wait_on([record_pid(i) for i in range(10)])
            counts = rt.resilience.counts()
            # 10 tasks on 2-task workers: at least 3 retirements.
            assert counts.get("worker_recycled", 0) >= 3
            assert counts.get("worker_crash", 0) == 0
            # Recycling actually rotated processes.
            assert len(set(pids)) >= 3


# ----------------------------------------------------------------------
# Shutdown hygiene
# ----------------------------------------------------------------------
class TestShutdown:
    def test_no_leaked_processes_after_clean_run(self):
        with COMPSs(cluster=local_machine(4), backend="workers") as rt:
            assert compss_wait_on([add_one(i) for i in range(8)]) == list(
                range(1, 9)
            )
            pids = rt.executor.worker_pids()
            assert len(pids) == 4
        deadline = time.time() + 5.0
        while time.time() < deadline and any(_pid_alive(p) for p in pids):
            time.sleep(0.05)
        assert not any(_pid_alive(p) for p in pids)

    def test_slot_threads_are_the_only_pool_threads(self):
        before = set(threading.enumerate())
        with COMPSs(cluster=local_machine(4), backend="workers") as rt:
            assert compss_wait_on([add_one(i) for i in range(16)]) == list(
                range(1, 17)
            )
            assert len(rt.executor.worker_pids()) == 4
            names = sorted(
                t.name for t in set(threading.enumerate()) - before
            )
        assert names, "no slot thread ran"
        assert all(name.startswith("repro-worker") for name in names), names

    def test_no_leaked_processes_after_chaos(self, tmp_path):
        marker = str(tmp_path / "chaos")
        with COMPSs(
            cluster=local_machine(4), backend="workers", task_timeout_s=1.0
        ) as rt:
            assert compss_wait_on(segfault_once(marker, 5)) == 10
            pids = rt.executor.worker_pids()
        deadline = time.time() + 5.0
        while time.time() < deadline and any(_pid_alive(p) for p in pids):
            time.sleep(0.05)
        assert not any(_pid_alive(p) for p in pids)


# ----------------------------------------------------------------------
# Study-level acceptance: chaos mid-study changes nothing
# ----------------------------------------------------------------------
def _space():
    return parse_search_space(
        {"optimizer": ["Adam", "SGD"], "num_epochs": [2, 4], "batch_size": [32]}
    )


def slow_mock_objective(config):
    """Deterministic mock slowed down enough to SIGKILL a busy worker."""
    time.sleep(0.15)
    return fast_mock_objective(config)


def _run_study(inject_kill: bool):
    cfg = RuntimeConfig(cluster=local_machine(4), backend="workers")
    rt = COMPSsRuntime(cfg).start()
    killer = None
    killed = []
    try:
        if inject_kill:
            executor = rt.executor

            def _kill_one_busy_worker():
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    busy = [
                        w for w in executor.pool_status()
                        if w["state"] == "busy"
                    ]
                    if busy:
                        os.kill(busy[0]["pid"], signal.SIGKILL)
                        killed.append(busy[0]["pid"])
                        return
                    time.sleep(0.005)

            killer = threading.Thread(target=_kill_one_busy_worker)
            killer.start()
        study = PyCOMPSsRunner(
            GridSearch(_space()), objective=slow_mock_objective
        ).run()
    finally:
        if killer is not None:
            killer.join(timeout=10.0)
        rt.stop()
    return study, killed


class TestChaosStudy:
    def test_sigkill_mid_study_same_best_config(self):
        baseline, _ = _run_study(inject_kill=False)
        chaotic, killed = _run_study(inject_kill=True)
        assert killed, "injector never found a busy worker to kill"
        assert len(chaotic.completed()) == len(baseline.completed())
        assert (
            chaotic.best_trial().describe_config()
            == baseline.best_trial().describe_config()
        )
        # The kill is visible in the surfaced study metadata.
        assert (
            chaotic.metadata["resilience_events"].get("worker_crash", 0) >= 1
        )


# ----------------------------------------------------------------------
# Config / CLI plumbing
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RuntimeConfig(backend="fibers")

    def test_bad_poison_threshold_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(poison_threshold=0)

    def test_bad_max_tasks_per_worker_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(max_tasks_per_worker=-1)

    def test_workers_backend_accepted(self):
        cfg = RuntimeConfig(backend="workers", max_tasks_per_worker=5)
        assert cfg.backend == "workers"
        assert cfg.max_tasks_per_worker == 5


class TestCliFlags:
    def test_bad_backend_flag_rejected(self, tmp_path):
        from repro.cli import build_parser
        from repro.hpo.config_file import write_config_file

        config = write_config_file(
            {"optimizer": ["Adam"], "num_epochs": [2], "batch_size": [32]},
            tmp_path / "config.json",
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", str(config), "--backend", "greenlets"]
            )


# ----------------------------------------------------------------------
# Analysis surfacing
# ----------------------------------------------------------------------
class TestAnalysisSurfacing:
    def test_worker_churn_in_analysis(self, tmp_path):
        marker = str(tmp_path / "churn")
        with COMPSs(cluster=local_machine(2), backend="workers") as rt:
            assert compss_wait_on(exit_once(marker, 1)) == 3
            analysis = rt.analysis()
            churn = analysis.worker_churn()
            assert churn["crashes"] >= 1
            assert churn["poisoned_tasks"] == 0
            assert "worker_crash" in analysis.resilience_counts()
