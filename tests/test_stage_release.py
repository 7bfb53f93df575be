"""Consumed stage states leave driver memory; the reuse cache holds them.

With the reuse cache on (and ``verify_outputs`` / ``stream_completed``
off) a published cacheable value is dropped from the driver once every
task that consumes it is DONE: the task record stays, its futures hold
a :class:`~repro.runtime.future.HeldByCache` stand-in, and every later
read goes back through the cache's verified read.

* release — a cold staged grid with real training, on both local
  backends, ends with no array bytes held by consumed ``stage_train`` /
  ``stage_prepare`` outputs, every stage future still resolves through
  ``compss_wait_on`` to its published entry, and ``reuse.stats()``
  counts the releases;
* degrade paths — a released node whose entry was evicted, corrupted or
  quarantined is recomputed through lineage when a late sibling joins
  it; nothing is released with the cache off or integrity on; a drain
  spill reloads a released value instead of writing a stand-in;
* seeded chaos — corruption and a lost publication hit released stages
  that a one-trial-at-a-time study reads late: same answer as the
  cache-off run, zero unverified reads, bit-identical reruns.
"""

import pickle

import numpy as np
import pytest

from repro.hpo import PyCOMPSsRunner
from repro.hpo.space import SearchSpace
from repro.hpo.stages import StagePlan, executed_epochs, reset_epoch_counter
from repro.pycompss_api.api import compss_wait_on
from repro.runtime.config import RuntimeConfig
from repro.runtime.future import Future, HeldByCache, slot_futures, substitute
from repro.runtime.graph import TaskGraph
from repro.runtime.resilience import CACHE_CORRUPT, LINEAGE_RECOVERY
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition, TaskInvocation
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine

#: A small real-training grid: two chains, 1- and 2-epoch budgets, so
#: every chain has a block a sibling joins and every block a consumer.
TRAIN_SPACE = {
    "optimizer": ["SGD", "Adam"], "num_epochs": [1, 2],
    "n_train": [200], "n_test": [50], "batch_size": [32],
}
MOCK_SPACE = {"optimizer": ["SGD", "Adam", "RMSprop"], "num_epochs": [4, 8, 12]}
CONSUMED = ("stage_prepare", "stage_train")


def array_bytes(obj, seen=None):
    """Bytes of every numpy array reachable through dicts/lists/tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, seen) for v in obj)
    return 0


def held_bytes(runtime):
    """Array bytes the driver holds for consumed stage outputs."""
    total = 0
    for t in runtime.graph.tasks():
        if t.definition.name in CONSUMED:
            total += array_bytes(t.result)
            total += sum(array_bytes(f._value) for f in slot_futures(t.outputs))
    return total


def run_grid(space, plan=None, study_name="s", batch_size=None):
    return PyCOMPSsRunner(
        "grid", space=SearchSpace.from_dict(space),
        stage_plan=plan or StagePlan(block_epochs=4),
        study_name=study_name, batch_size=batch_size,
    ).run()


def accuracies(study):
    return {t.trial_id: t.val_accuracy for t in study.completed()}


# ----------------------------------------------------------------------
# Release
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["threads", "workers"])
def test_consumed_stage_states_leave_the_driver(tmp_path, backend):
    config = RuntimeConfig(
        cluster=local_machine(2), backend=backend, reuse_cache=True,
        cache_dir=str(tmp_path / "cache"),
    )
    with COMPSsRuntime(config) as rt:
        study = run_grid(
            TRAIN_SPACE, StagePlan(block_epochs=1, objective="train")
        )
        assert len(study.completed()) == 4
        consumed = [
            t for t in rt.graph.tasks() if t.definition.name in CONSUMED
        ]
        assert consumed and all(rt.graph.successors(t) for t in consumed)
        # Nothing consumed is held: the records stay, the values do not.
        assert held_bytes(rt) == 0
        assert all(rt.release.is_released(t) for t in consumed)
        assert all(t.start_time is not None for t in consumed)
        stats = rt.reuse.stats()
        assert stats["released"] >= len(consumed)
        assert stats["hits"] == 0 and stats["unverified_hits"] == 0
        # Every stage future still reads back as its published entry.
        reloaded = stats["reloaded"]
        for t in rt.graph.tasks():
            value = compss_wait_on(t.outputs)
            entry = rt.reuse.store.load_verified(t.content_key)
            assert pickle.dumps(value) == pickle.dumps(entry), t.label
        stats = rt.reuse.stats()
        assert stats["reloaded"] - reloaded == len(consumed)
        assert stats["hits"] == 0  # reloads are not cache hits


def test_multi_return_values_reload_slot_by_slot(tmp_path):
    from repro.pycompss_api.task import task

    @task(returns=2, cacheable=True)
    def split(x):
        return x, -x

    @task(returns=1)
    def add(a, b):
        return a + b

    config = RuntimeConfig(
        cluster=local_machine(2), reuse_cache=True,
        cache_dir=str(tmp_path / "cache"),
    )
    with COMPSsRuntime(config) as rt:
        a, b = split(21)
        assert compss_wait_on(add(a, b)) == 0
        assert rt.release.is_released(a.invocation)
        assert type(a._value) is HeldByCache
        # Read in place, as a list, and through wait_on.
        assert a.result() == 21 and b.result() == -21
        assert compss_wait_on([a, b]) == [21, -21]
        assert rt.reuse.stats()["released"] == 1


@pytest.mark.parametrize("reads_before_release", [0, 1, 2])
def test_a_release_racing_a_list_read_never_yields_the_stand_in(
    monkeypatch, reads_before_release
):
    """A completion on another thread releases the value while
    ``substitute`` reads a list of futures: whatever it saw, it returns
    the value, never the stand-in."""
    def noop():
        return None

    value = {"weights": [1.0, 2.0]}
    fut = Future(TaskInvocation(TaskDefinition(func=noop, name="t"), (), {}))
    held = HeldByCache(lambda task: value)
    reads = []

    def slot(self):
        reads.append(None)
        return value if len(reads) <= reads_before_release else held

    monkeypatch.setattr(Future, "_value", property(slot))
    assert substitute([fut]) == [value]


def test_graph_hands_a_consumed_task_to_the_policy_once():
    def noop():
        return None

    definition = TaskDefinition(func=noop, name="t")
    g = TaskGraph()
    consumed = []
    g.on_consumed = consumed.append
    producer = TaskInvocation(definition, (), {})
    c1 = TaskInvocation(definition, (), {})
    c2 = TaskInvocation(definition, (), {})
    g.add_task(producer, [])
    g.add_task(c1, [producer])
    g.add_task(c2, [producer])
    g.mark_done(producer)
    g.mark_done(c1)
    assert consumed == []  # c2 still reads it
    g.mark_done(c2)
    assert consumed == [producer]
    # A DONE consumer that re-runs reads its input again: it counts as
    # unfinished until it completes once more.
    g.invalidate([c1])
    g.mark_done(c1)
    assert consumed == [producer, producer]
    assert g.n_tasks == 3  # the records stay


# ----------------------------------------------------------------------
# Degrade paths
# ----------------------------------------------------------------------
def _damage(rt, key, how):
    if how == "evict":
        rt.reuse.store.remove(key)
    elif how == "corrupt":
        assert rt.reuse.corrupt_entry(key)
    else:
        rt.reuse._quarantine(key, rt.reuse.poison_threshold)


def _late_sibling_run(tmp_path, reuse, how=None, locked_reads=None):
    """A 4-epoch trial, then a late 8-epoch sibling in the same study
    session: it joins the first trial's (released) nodes and reads the
    [0, 4) block to train [4, 8).  ``locked_reads`` collects, per
    reload, whether the runtime lock was held."""
    config = RuntimeConfig(
        cluster=local_machine(2), reuse_cache=reuse,
        cache_dir=str(tmp_path / "cache") if reuse else None,
    )
    space = {"optimizer": ["SGD"], "num_epochs": [4]}
    with COMPSsRuntime(config) as rt:
        run_grid(space, study_name="first")
        block = None
        if reuse:
            block = next(
                t for t in rt.graph.tasks() if t.definition.name == "stage_train"
            )
            assert rt.release.is_released(block)
            if how is not None:
                _damage(rt, block.content_key, how)
            if locked_reads is not None:
                load = rt.release.load

                def probed_load(task):
                    locked_reads.append(rt.lock._is_owned())
                    return load(task)

                rt.release.load = probed_load
        reset_epoch_counter()
        late = run_grid(dict(space, num_epochs=[8]), study_name="late")
        epochs = executed_epochs()
        reset_epoch_counter()
        events = rt.resilience.counts()
        stats = rt.reuse.stats() if reuse else None
    return late, epochs, events, stats


@pytest.mark.parametrize("how", ["evict", "corrupt", "quarantine"])
def test_late_sibling_recomputes_a_released_node_whose_entry_is_gone(
    tmp_path, how
):
    late_off, epochs_off, _, _ = _late_sibling_run(tmp_path / "off", False)
    late, epochs, events, stats = _late_sibling_run(tmp_path / "on", True, how)
    assert accuracies(late) == accuracies(late_off)
    assert epochs_off == 8  # no reuse: the late trial trains both blocks
    # The [0, 4) block re-ran through lineage (its prepare input was
    # reloaded, verified), then [4, 8) trained on it.
    assert epochs == 8
    assert events[LINEAGE_RECOVERY] == 1
    assert stats["unverified_hits"] == 0
    assert stats["reloaded"] >= 1
    # Rot met by a reload is counted and logged like rot met by a hit.
    if how == "corrupt":
        assert stats["corrupt"] == events[CACHE_CORRUPT] == 1
    else:
        assert stats["corrupt"] == 0


def test_late_sibling_reloads_an_intact_released_node(tmp_path):
    late_off, _, _, _ = _late_sibling_run(tmp_path / "off", False)
    locked_reads = []
    late, epochs, events, stats = _late_sibling_run(
        tmp_path / "on", True, locked_reads=locked_reads
    )
    assert accuracies(late) == accuracies(late_off)
    assert epochs == 4  # only [4, 8): the shared block was reloaded
    assert LINEAGE_RECOVERY not in events
    assert stats["reloaded"] >= 1 and stats["hits"] == 0
    # The verified reads ran before the runtime lock was taken.
    assert locked_reads and not any(locked_reads)


@pytest.mark.parametrize(
    "config_kw",
    [{"reuse_cache": False}, {"reuse_cache": True, "verify_outputs": True}],
    ids=["cache-off", "verify-outputs"],
)
def test_nothing_is_released_without_the_cache_or_with_integrity(
    tmp_path, config_kw
):
    config = RuntimeConfig(
        cluster=local_machine(2), cache_dir=str(tmp_path / "cache"),
        **config_kw,
    )
    with COMPSsRuntime(config) as rt:
        study = run_grid(MOCK_SPACE)
        assert len(study.completed()) == 9
        assert rt.release is None
        for t in rt.graph.tasks():
            assert isinstance(t.result, dict), t.label
            for fut in slot_futures(t.outputs):
                assert fut._value is t.result
        if rt.reuse is not None:
            assert rt.reuse.stats()["released"] == 0


@pytest.mark.parametrize("evicted", [False, True], ids=["intact", "evicted"])
def test_drain_spill_never_writes_a_released_value_as_a_stand_in(
    tmp_path, evicted
):
    config = RuntimeConfig(
        cluster=local_machine(2), reuse_cache=True,
        cache_dir=str(tmp_path / "cache"),
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=None,
    )
    with COMPSsRuntime(config) as rt:
        run_grid(MOCK_SPACE)
        released = [t for t in rt.graph.tasks() if rt.release.is_released(t)]
        assert released
        if evicted:
            for t in released:
                rt.reuse.store.remove(t.content_key)
        store = rt.sessions.solo.checkpoint_store
        assert not any(store.has(t.task_key) for t in rt.graph.tasks())
        node = released[0].node
        rt.drain_node(node)
        for t in released:
            if evicted:
                # Nothing to read it back from: not spilled (its next
                # reader recomputes it), and never spilled as None.
                assert not store.has(t.task_key)
            else:
                spilled = store.load_verified(t.task_key)
                assert spilled == rt.reuse.store.load_verified(t.content_key)
                assert isinstance(spilled, dict)
        # Values the driver still held were spilled as they were.
        for t in rt.graph.tasks():
            if not rt.release.is_released(t):
                assert store.load_verified(t.task_key) == t.result


# ----------------------------------------------------------------------
# Seeded chaos: released stages read late under cache chaos
# ----------------------------------------------------------------------
def _late_reader_study(root, reuse, seed):
    """One trial at a time: each trial's nodes are released before the
    next trial joins and reads them, so every shared block is read late."""
    injector = None
    if reuse:
        plan = (
            FailurePlan()
            .corrupt_cache_entry("stage_train-2")
            .lose_cache_publish("stage_train-6")
        )
        injector = FailureInjector(plan=plan, seed=seed, cache_corrupt_prob=0.2)
    config = RuntimeConfig(
        cluster=local_machine(2), reuse_cache=reuse,
        cache_dir=str(root / "cache") if reuse else None,
        failure_injector=injector,
    )
    reset_epoch_counter()
    with COMPSsRuntime(config) as rt:
        study = run_grid(MOCK_SPACE, batch_size=1)
        events = rt.resilience.counts()
        stats = rt.reuse.stats() if reuse else {}
    epochs = executed_epochs()
    reset_epoch_counter()
    return study, epochs, events, stats, injector


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_released_stages_read_late_under_cache_chaos(tmp_path, seed):
    baseline, epochs_off, _, _, _ = _late_reader_study(
        tmp_path / "off", False, seed
    )
    study, epochs, events, stats, injector = _late_reader_study(
        tmp_path / "on", True, seed
    )
    assert accuracies(study) == accuracies(baseline)
    assert study.best_trial().config == baseline.best_trial().config
    assert stats["unverified_hits"] == 0
    # The scripted rot sits under a released block its siblings read
    # late, so at least that block re-ran through lineage.
    assert "stage_train-2" in injector.injected_cache_corruptions
    assert injector.injected_lost_publications == ["stage_train-6"]
    assert events[LINEAGE_RECOVERY] >= 1
    assert stats["released"] > 0 and stats["reloaded"] > 0
    # Reuse still trained fewer epochs than the cache-off grid.
    assert 36 + events[LINEAGE_RECOVERY] * 4 >= epochs
    assert epochs < epochs_off

    # Same seed, same cache chaos, same late reads: bit-identical.
    again, epochs2, events2, stats2, _ = _late_reader_study(
        tmp_path / "again", True, seed
    )
    assert accuracies(again) == accuracies(study)
    assert (epochs2, events2) == (epochs, events)
    for key in ("hits", "misses", "joined", "corrupt", "released", "reloaded"):
        assert stats2[key] == stats[key], key
