"""Cooperative preemption: context protocol, controller, dispatch pause.

Unit layer of the preemptible-trials feature — no daemon, no real
training.  The crash-consistency contract under test: a torn suspend
spill reads as *missing* (cold restart), never as a wrong restore.
"""

from __future__ import annotations

import threading

import pytest

from repro.hpo import PyCOMPSsRunner, parse_search_space
from repro.hpo.objective import preemptible_mock_objective
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.preemption import (
    PREEMPT_CONFIG_KEY,
    PreemptContext,
    PreemptionController,
    clear_local_flags,
    strip_preempt,
)
from repro.runtime.resilience import ResilienceLog
from repro.runtime.runtime import COMPSsRuntime
from repro.simcluster.machines import local_machine


@pytest.fixture(autouse=True)
def _clean_flags():
    clear_local_flags()
    yield
    clear_local_flags()


class FakeInvocation:
    def __init__(self, label="exp", node="n0", study=""):
        self.label = label
        self.node = node
        self.study = study


# ----------------------------------------------------------------------
# PreemptContext
# ----------------------------------------------------------------------
class TestPreemptContext:
    def test_spec_roundtrip_through_config(self, tmp_path):
        ctx = PreemptContext("trial-a", tmp_path / "spill", every=3)
        config = {"lr": 0.1, PREEMPT_CONFIG_KEY: ctx.spec()}
        back = PreemptContext.from_config(config)
        assert back is not None
        assert back.key == "trial-a"
        assert back.directory == tmp_path / "spill"
        assert back.every == 3
        assert strip_preempt(config) == {"lr": 0.1}

    def test_from_config_tolerates_garbage(self, tmp_path):
        assert PreemptContext.from_config(None) is None
        assert PreemptContext.from_config({"lr": 1}) is None
        assert PreemptContext.from_config({PREEMPT_CONFIG_KEY: "huh"}) is None
        assert (
            PreemptContext.from_config({PREEMPT_CONFIG_KEY: {"every": 1}})
            is None
        )

    def test_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            PreemptContext("k", tmp_path, every=0)

    def test_flag_file_is_cross_process_truth(self, tmp_path):
        ctx = PreemptContext("k1", tmp_path)
        assert not ctx.should_suspend()
        # Another process (or the controller) touches the flag file.
        tmp_path.mkdir(exist_ok=True)
        ctx.flag_path.touch()
        assert ctx.should_suspend()
        ctx.clear()
        assert not ctx.should_suspend()

    def test_spill_load_roundtrip_and_supersede(self, tmp_path):
        ctx = PreemptContext("k2", tmp_path)
        assert ctx.load() is None
        ctx.spill({"epoch": 2, "weights": [1.0, 2.0]})
        assert ctx.load() == {"epoch": 2, "weights": [1.0, 2.0]}
        ctx.spill({"epoch": 5})  # later spill supersedes
        assert ctx.load() == {"epoch": 5}

    def test_torn_spill_reads_as_missing_never_wrong(self, tmp_path):
        """Corrupt == missing: a truncated spill must load as None and be
        removed, not restore garbage."""
        ctx = PreemptContext("k3", tmp_path)
        ctx.spill({"epoch": 4})
        pkl = tmp_path / "k3.pkl"
        pkl.write_bytes(pkl.read_bytes()[:-3])  # tear the payload
        assert ctx.load() is None
        assert ctx.load() is None  # removed: stays missing, idempotent

    def test_sidecarless_first_spill_is_complete(self, tmp_path):
        """A first spill is one self-verifying file with no sidecar: it
        loads whole, and a stray ``.sum`` left by an older version
        changes nothing."""
        ctx = PreemptContext("k4", tmp_path)
        ctx.spill({"epoch": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k4.pkl"]
        assert ctx.load() == {"epoch": 1}
        (tmp_path / "k4.sum").write_text("not-a-digest")
        assert ctx.load() == {"epoch": 1}

    def test_superseding_spill_killed_mid_write_reads_as_missing(
        self, tmp_path
    ):
        """A superseding spill torn in place — its payload behind the
        previous spill's digest header — must read as missing (cold
        restart), never as either half-state.  (Killed before its
        rename, it leaves the previous spill, which then loads; the
        crash-state enumeration covers that.)"""
        ctx = PreemptContext("k5", tmp_path)
        pkl = tmp_path / "k5.pkl"
        ctx.spill({"epoch": 1})
        old_header = pkl.read_bytes().split(b"\n", 1)[0]
        ctx.spill({"epoch": 4})
        new_payload = pkl.read_bytes().split(b"\n", 1)[1]
        pkl.write_bytes(old_header + b"\n" + new_payload)
        assert ctx.load() is None
        assert ctx.load() is None  # removed: stays missing


# ----------------------------------------------------------------------
# PreemptionController
# ----------------------------------------------------------------------
class TestPreemptionController:
    def make(self, tmp_path, **kw):
        log = ResilienceLog()
        ctl = PreemptionController(log=log, **kw)
        ctx = PreemptContext("t0", tmp_path / "spill")
        ctl.register(ctx, FakeInvocation(study="s1"))
        return ctl, ctx, log

    def test_suspend_sets_both_flag_transports(self, tmp_path):
        ctl, ctx, log = self.make(tmp_path)
        assert ctl.suspend_trial("t0", reason="test")
        assert ctl.is_suspended("t0")
        assert ctx.should_suspend()
        assert ctx.flag_path.exists()
        kinds = [e.kind for e in log.events]
        assert kinds == [rsl.TRIAL_SUSPENDED]
        assert "reason=test" in log.events[0].detail

    def test_suspend_unknown_key_refused(self, tmp_path):
        ctl, _, _ = self.make(tmp_path)
        assert not ctl.suspend_trial("nope")

    def test_suspend_idempotent_while_flagged(self, tmp_path):
        ctl, _, log = self.make(tmp_path)
        assert ctl.suspend_trial("t0")
        assert ctl.suspend_trial("t0")  # True, but no second event
        assert len(log.events) == 1
        assert ctl.suspended_count() == 1

    def test_max_suspended_cap_refuses(self, tmp_path):
        ctl, _, _ = self.make(tmp_path, max_suspended=1)
        ctl.register(
            PreemptContext("t1", tmp_path / "spill"), FakeInvocation()
        )
        assert ctl.suspend_trial("t0")
        assert not ctl.suspend_trial("t1")
        assert ctl.stats()["suspends_refused"] == 1

    def test_resume_clears_flags_and_allows_resuspend(self, tmp_path):
        ctl, ctx, _ = self.make(tmp_path)
        ctl.suspend_trial("t0")
        ctl.resume_trial("t0")
        assert not ctl.is_suspended("t0")
        assert not ctx.should_suspend()
        assert not ctx.flag_path.exists()
        assert ctl.suspend_trial("t0")  # can suspend again later

    def test_study_and_node_fanout(self, tmp_path):
        ctl = PreemptionController()
        ctl.register(
            PreemptContext("a", tmp_path), FakeInvocation(study="s1", node="n1")
        )
        ctl.register(
            PreemptContext("b", tmp_path), FakeInvocation(study="s1", node="n2")
        )
        ctl.register(
            PreemptContext("c", tmp_path), FakeInvocation(study="s2", node="n1")
        )
        assert ctl.suspend_study("s1") == 2
        assert ctl.is_suspended("a") and ctl.is_suspended("b")
        assert not ctl.is_suspended("c")
        assert ctl.suspend_node("n1") == 1  # "a" already suspended
        assert ctl.is_suspended("c")

    def test_unregister_drops_flag_state(self, tmp_path):
        ctl, _, _ = self.make(tmp_path)
        ctl.suspend_trial("t0")
        ctl.unregister("t0")
        assert ctl.suspended_count() == 0
        assert not ctl.suspend_trial("t0")

    def test_thread_safety_smoke(self, tmp_path):
        ctl = PreemptionController()
        for i in range(32):
            ctl.register(PreemptContext(f"k{i}", tmp_path), FakeInvocation())
        errors = []

        def churn(base):
            try:
                for i in range(base, 32, 4):
                    ctl.suspend_trial(f"k{i}")
                    ctl.resume_trial(f"k{i}")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(b,)) for b in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert ctl.suspended_count() == 0


# ----------------------------------------------------------------------
# Runtime wiring: controller lives on the runtime, drains suspend warm
# ----------------------------------------------------------------------
class TestRuntimeWiring:
    def test_runtime_owns_controller_with_configured_cap(self):
        cfg = RuntimeConfig(cluster=local_machine(2), max_suspended_trials=7)
        rt = COMPSsRuntime(cfg).start()
        try:
            assert rt.preemption.max_suspended == 7
        finally:
            rt.stop(wait=False)

    def test_no_checkpoint_dir_disables_preemption(self):
        rt = COMPSsRuntime(RuntimeConfig(cluster=local_machine(2))).start()
        try:
            assert rt.sessions.preempt_spill_dir() is None
        finally:
            rt.stop(wait=False)

    def test_spill_dir_beside_checkpoint_outputs(self, tmp_path):
        cfg = RuntimeConfig(
            cluster=local_machine(2), checkpoint_dir=tmp_path / "ckpt"
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            spill = rt.sessions.preempt_spill_dir()
            assert spill is not None
            assert spill.parent == (tmp_path / "ckpt")
            assert spill.name == "preempt"
        finally:
            rt.stop(wait=False)

    def test_drain_node_suspends_resident_trials(self, tmp_path):
        """drain_node flags registered trials on that node for warm
        suspension instead of letting the deadline recompute them."""
        cfg = RuntimeConfig(
            cluster=local_machine(2), checkpoint_dir=tmp_path / "ckpt"
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            node = next(iter(rt.pool.workers))
            ctx = PreemptContext("res-0", rt.sessions.preempt_spill_dir())
            rt.preemption.register(ctx, FakeInvocation(node=node))
            rt.drain_node(node, deadline_s=30.0)
            assert rt.preemption.is_suspended("res-0")
            events = {e.kind for e in rt.resilience.events}
            assert rsl.TRIAL_SUSPENDED in events
            assert rsl.NODE_DRAINING in events
        finally:
            rt.stop(wait=False)


# ----------------------------------------------------------------------
# Dispatch lane pause (suspend support)
# ----------------------------------------------------------------------
class TestDispatchPause:
    def test_pause_blocks_placement_resume_restores(self, tmp_path):
        cfg = RuntimeConfig(cluster=local_machine(2))
        rt = COMPSsRuntime(cfg).start()
        try:
            rt.dispatcher.register_study("s1")
            assert rt.pause_study_dispatch("s1")
            shares = rt.dispatcher.study_shares()
            assert shares["s1"]["paused"] is True
            assert rt.resume_study_dispatch("s1")
            assert rt.dispatcher.study_shares()["s1"]["paused"] is False
            assert not rt.pause_study_dispatch("ghost")
        finally:
            rt.stop(wait=False)

    def test_paused_study_places_nothing(self):
        """Queued tasks of a paused study stay queued; resume releases
        them (counted via the paused_skips stat)."""
        from repro.pycompss_api.constraint import ResourceConstraint
        from repro.runtime.task_definition import TaskDefinition

        cfg = RuntimeConfig(cluster=local_machine(2))
        rt = COMPSsRuntime(cfg).start()
        try:
            session = rt.sessions.open("pausable")
            rt.pause_study_dispatch("pausable")
            definition = TaskDefinition(
                func=lambda x: x + 1, name="inc", returns=int, n_returns=1,
                constraint=ResourceConstraint(cpu_units=1),
            )
            with rt.sessions.scope(session):
                fut = rt.submit(definition, (1,), {})
            import time as _time

            deadline = _time.monotonic() + 0.5
            while _time.monotonic() < deadline:
                if rt.dispatcher.stats.paused_skips:
                    break
                _time.sleep(0.01)
            assert rt.dispatcher.stats.paused_skips > 0
            assert rt.dispatcher.pending() == 1
            rt.resume_study_dispatch("pausable")
            with rt.sessions.scope(session):
                assert rt.wait_on(fut) == 2
        finally:
            rt.stop(wait=False)


# ----------------------------------------------------------------------
# Happy-path warm resume through the runner (mock objective)
# ----------------------------------------------------------------------
class TestRunnerSuspendResume:
    def test_suspended_trial_resumes_warm_zero_epochs_lost(self, tmp_path):
        """Flag every trial once mid-flight: each suspends at its next
        checkpoint epoch, resubmits, resumes from the spilled cursor with
        zero re-executed epochs, and the study's answer matches an
        undisturbed run."""
        space = {"optimizer": ["SGD", "Adam"], "num_epochs": [6],
                 "batch_size": [16], "epoch_sleep_s": [0.01]}

        def run(suspend: bool, root):
            cfg = RuntimeConfig(
                cluster=local_machine(2), checkpoint_dir=root / "ckpt"
            )
            kicked = set()
            runner = PyCOMPSsRunner(
                "grid", space=parse_search_space(space),
                objective=preemptible_mock_objective,
                study_name="warm", runtime_config=cfg,
            )
            if suspend:
                orig_submit = runner._submit_trial

                def submit_and_kick(runtime, trial, resume_epoch=None):
                    fut = orig_submit(runtime, trial, resume_epoch=resume_epoch)
                    key = runner._preempt_key(trial)
                    if key not in kicked:
                        kicked.add(key)
                        threading.Timer(
                            0.02, runtime.preemption.suspend_trial, (key,)
                        ).start()
                    return fut

                runner._submit_trial = submit_and_kick
            return runner.run()

        calm = run(False, tmp_path / "calm")
        churned = run(True, tmp_path / "churned")
        assert (
            churned.best_trial().val_accuracy
            == calm.best_trial().val_accuracy
        )
        stats = churned.metadata["preemption"]
        assert stats["suspended"] >= 1
        assert stats["resumed"] == stats["suspended"]
        assert stats["spills"] >= stats["suspended"]
        assert stats["epochs_lost"] == 0  # warm resume: nothing re-run
        for trial in churned.completed():
            assert trial.result.epochs_run == 6
        assert "preemption" not in calm.metadata
