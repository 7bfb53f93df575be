"""Cross-trial reuse cache: unit, integration and chaos acceptance.

Covers the tentpole contract of the content-addressed stage cache:

* unit — verified hits (corrupt == miss, never a wrong restore),
  quarantine after repeated failures, first-wins publication of
  concurrent misses, LRU eviction that spares the publishing key,
  atomic publication (torn temps invisible), offline ``scan`` / ``gc``
  (which reap the lease files older versions left behind);
* integration — an epochs-varying grid submitted all at once trains
  exactly its stage tree (identical stages joined at submit) while
  producing the identical answers to the cache-off
  baseline and a serial loop; failed shared blocks, kill + resume,
  task groups and streaming keep their guarantees through the join;
  the disk-hit path is covered by one sequential streaming study and
  by second studies over a populated cache;
* chaos acceptance — 3 seeds x (10 % stochastic corruption + a lost
  publication), a scripted corruption met by the next study, and
  daemon tenants racing identical stages still match the cache-off
  best config, with zero unverified reads and bit-identical same-seed
  reruns.
"""

import os
import threading
import time

import pytest

from repro.hpo import PyCOMPSsRunner
from repro.hpo.space import Categorical, SearchSpace
from repro.hpo.stages import (
    StagePlan,
    executed_epochs,
    reset_epoch_counter,
    split_config,
    stage_final_mock,
    stage_prepare,
    stage_train_mock,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.reuse import MISS, ReuseCache
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine

SPACE = {"optimizer": ["SGD", "Adam", "RMSprop"], "num_epochs": [4, 8, 12]}


def make_cache(tmp_path, **kw):
    return ReuseCache(tmp_path / "cache", **kw)


# ----------------------------------------------------------------------
# Unit: verified hits and quarantine
# ----------------------------------------------------------------------
class TestVerifiedHits:
    def test_roundtrip_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.acquire("k1") is MISS
        assert cache.publish("k1", {"epoch": 4})
        assert cache.acquire("k1") == {"epoch": 4}
        s = cache.stats()
        assert (s["hits"], s["misses"], s["published"]) == (1, 1, 1)
        assert s["unverified_hits"] == 0

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        cache.publish("k", None)
        assert cache.acquire("k") is None

    def test_corrupt_entry_is_a_miss_not_a_wrong_value(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        cache.publish("k", list(range(100)))
        assert cache.corrupt_entry("k")
        assert cache.acquire("k") is MISS
        s = cache.stats()
        assert s["corrupt"] == 1
        assert s["unverified_hits"] == 0
        # The poisoned bytes were dropped; a clean republish hits again.
        cache.publish("k", list(range(100)))
        assert cache.acquire("k") == list(range(100))

    def test_quarantine_after_poison_threshold(self, tmp_path):
        cache = make_cache(tmp_path, poison_threshold=2)
        for _ in range(2):
            cache.acquire("bad")
            cache.publish("bad", "v")
            cache.corrupt_entry("bad")
            assert cache.acquire("bad") is MISS
        assert cache.is_quarantined("bad")
        assert cache.stats()["quarantined"] == 1
        # Quarantined keys refuse publication and always miss.
        assert not cache.publish("bad", "v")
        assert cache.acquire("bad") is MISS
        # Quarantine markers persist across cache instances (restart).
        again = make_cache(tmp_path, poison_threshold=2)
        assert again.is_quarantined("bad")

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("t")
        cache.publish("t", {"x": 1})
        path = cache.store._path("t")
        path.write_bytes(path.read_bytes()[:3])
        assert cache.acquire("t") is MISS
        assert cache.stats()["unverified_hits"] == 0

    def test_integrity_manager_accounts_verifications(self, tmp_path):
        from repro.runtime.integrity import MODE_LOCAL, IntegrityManager

        integrity = IntegrityManager(MODE_LOCAL)
        cache = make_cache(tmp_path, integrity=integrity)
        cache.acquire("k")
        cache.publish("k", 1)
        cache.acquire("k")
        cache.corrupt_entry("k")
        cache.acquire("k")
        stats = integrity.stats()
        assert stats["cache_verified"] == 1
        assert stats["cache_corrupt"] == 1


# ----------------------------------------------------------------------
# Unit: concurrent writers
# ----------------------------------------------------------------------
class TestConcurrentWriters:
    def test_two_concurrent_misses_both_compute_first_publish_wins(
        self, tmp_path
    ):
        first = make_cache(tmp_path)
        second = make_cache(tmp_path)
        # Two (process-like) cache instances miss the same key: neither
        # blocks, both compute.
        assert first.acquire("k") is MISS
        assert second.acquire("k") is MISS
        # Both publish — first atomic publish wins and the loser's bytes
        # are never written over it.
        assert first.publish("k", "A")
        second.publish("k", "B")
        assert second.stats()["published"] == 0
        assert first.acquire("k") == "A"

    def test_simultaneous_publishers_of_one_key_both_succeed(self, tmp_path):
        """Two threads publishing the same key at the same instant (two
        tenants sharing a stage, a spill racing its speculative backup)
        each write their own temp file: neither publish raises, and the
        entry left behind verifies."""
        cache = make_cache(tmp_path)
        value = list(range(20_000))
        rounds = 200
        barrier = threading.Barrier(2)
        errors = []

        def publisher():
            for i in range(rounds):
                try:
                    barrier.wait(timeout=30)
                    cache.publish(f"k{i}", value)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

        threads = [threading.Thread(target=publisher) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(cache.store.verify(f"k{i}") == "ok" for i in range(rounds))


# ----------------------------------------------------------------------
# Unit: eviction and atomic publication
# ----------------------------------------------------------------------
class TestEvictionAndAtomicity:
    def test_lru_eviction_under_max_bytes(self, tmp_path):
        cache = make_cache(tmp_path, max_bytes=2000)
        payload = os.urandom(600)  # ~600 B entry + sidecar
        for i in range(4):
            key = f"k{i}"
            cache.acquire(key)
            cache.publish(key, payload + bytes([i]))
            time.sleep(0.01)  # distinct atimes for LRU order
        s = cache.stats()
        assert s["evicted"] >= 1
        assert s["bytes"] <= 2000
        # Oldest entry went first; the newest survives.
        assert cache.acquire("k3") == payload + bytes([3])

    def test_eviction_spares_the_key_its_publish_triggered(self, tmp_path):
        cache = make_cache(tmp_path, max_bytes=1500)
        payload = os.urandom(600)
        cache.acquire("seed")
        cache.publish("seed", payload)
        # Blow past the ceiling on its own: "seed" is evicted, the key
        # whose publish triggered the pass survives even though the
        # cache is still over its ceiling.
        cache.acquire("big")
        assert cache.publish("big", payload * 3)
        assert not cache.store.has("seed")
        assert cache.acquire("big") == payload * 3
        assert cache.stats()["evicted"] == 1

    def test_torn_temp_files_are_invisible_to_readers(self, tmp_path):
        cache = make_cache(tmp_path)
        # A SIGKILLed publisher leaves a .tmp the atomic-rename protocol
        # never exposes: readers miss, gc reaps.
        (tmp_path / "cache" / "torn.pkl.tmp").write_bytes(b"partial")
        assert cache.acquire("torn") is MISS
        report = ReuseCache.gc(tmp_path / "cache")
        assert report["leftovers"] == 1
        assert not (tmp_path / "cache" / "torn.pkl.tmp").exists()

    def test_unpicklable_value_degrades_to_skip(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        assert cache.publish("k", lambda: None) is False
        assert cache.stats()["publish_skipped"] == 1


# ----------------------------------------------------------------------
# Unit: offline scan and gc
# ----------------------------------------------------------------------
class TestScanAndGc:
    def test_scan_reports_entries_corrupt_and_leases(self, tmp_path):
        cache = make_cache(tmp_path)
        for key in ("a", "b"):
            cache.acquire(key)
            cache.publish(key, key * 10)
        # A lease file an older version left next to an intact entry.
        (tmp_path / "cache" / "b.lease").write_text("{}")
        # Rot one entry behind the cache's back.
        path = cache.store._path("a")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        report = ReuseCache.scan(tmp_path / "cache")
        assert report["entries"] == 2
        assert report["corrupt"] == 1
        assert report["leftovers"] == 1
        assert ReuseCache.scan(tmp_path / "nope") is None
        # Scanning never blocks on the lease: the entry still hits.
        assert cache.acquire("b") == "b" * 10

    def test_gc_reaps_older_versions_lease_files(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        cache.publish("k", "v")
        # What an older version left behind: a fresh lease next to the
        # entry, a lease with no entry, a takeover temp, and a digest
        # sidecar with its temp.
        leftovers = [
            tmp_path / "cache" / name
            for name in (
                "k.lease", "gone.lease", "k.takeover-1-2", "k.sum", "k.sumtmp",
            )
        ]
        for path in leftovers:
            path.write_text("{}")
        assert make_cache(tmp_path).acquire("k") == "v"  # never blocks
        assert make_cache(tmp_path).acquire("gone") is MISS
        report = ReuseCache.gc(tmp_path / "cache")
        assert report["leftovers"] == 5
        assert not any(path.exists() for path in leftovers)
        assert cache.acquire("k") == "v"  # intact entries untouched

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.acquire("k")
        cache.publish("k", "v")
        cache.corrupt_entry("k")
        report = ReuseCache.gc(tmp_path / "cache", dry_run=True)
        assert report["corrupt"] == 1
        assert report["dry_run"] is True
        assert cache.store._path("k").exists()
        # The real sweep then reaps it.
        report = ReuseCache.gc(tmp_path / "cache")
        assert report["corrupt"] == 1
        assert not cache.store._path("k").exists()


# ----------------------------------------------------------------------
# Unit: stage decomposition determinism
# ----------------------------------------------------------------------
class TestStages:
    def test_split_config_strips_control_keys(self):
        prep, params, epochs = split_config(
            {"optimizer": "SGD", "num_epochs": 8, "dataset": "mnist",
             "target_accuracy": 0.9, "batch_size": 64}
        )
        assert prep == {"dataset": "mnist"}
        assert params == {"optimizer": "SGD", "batch_size": 64}
        assert epochs == 8

    def test_mock_curve_is_prefix_stable(self):
        # The whole point: the 4-epoch prefix computed under an 8-epoch
        # trial must equal the 4-epoch trial's full run.
        params = {"optimizer": "Adam", "batch_size": 32}
        state = stage_prepare({})
        s4 = stage_train_mock(state, params, 0, 4)
        s8 = stage_train_mock(s4, params, 4, 8)
        alone = stage_train_mock(stage_prepare({}), params, 0, 4)
        assert s4 == alone
        assert s8["curve"][:4] == s4["curve"]
        final4 = stage_final_mock(s4, params)
        assert final4["val_accuracy"] == s4["curve"][-1]
        assert final4["staged"] is True

    def test_out_of_order_chain_is_rejected(self):
        state = stage_prepare({})
        with pytest.raises(ValueError, match="out of order"):
            stage_train_mock(state, {}, 4, 8)

    def test_plan_blocks_cover_budget_with_partial_tail(self):
        plan = StagePlan(block_epochs=4)
        assert plan.blocks(10) == [(0, 4), (4, 8), (8, 10)]
        assert plan.blocks(4) == [(0, 4)]
        with pytest.raises(ValueError):
            StagePlan(block_epochs=0)
        with pytest.raises(ValueError):
            StagePlan(objective="nope")


# ----------------------------------------------------------------------
# Integration: staged grid with reuse on vs off
# ----------------------------------------------------------------------
WIDE_SPACE = dict(SPACE, batch_size=[32, 64, 128])


def staged_study(tmp_path, name, reuse, seed=0, injector=None,
                 space=None, plan=None, batch_size=None, **config_kw):
    """One staged grid study, all trials submitted at once by default."""
    config = RuntimeConfig(
        cluster=local_machine(4),
        reuse_cache=reuse,
        cache_dir=str(tmp_path / "cache") if reuse else None,
        failure_injector=injector,
        **config_kw,
    )
    runner = PyCOMPSsRunner(
        "grid",
        space=SearchSpace.from_dict(space or SPACE),
        runtime_config=config,
        stage_plan=plan or StagePlan(block_epochs=4),
        study_name=name,
        batch_size=batch_size,
    )
    return runner.run()


def best_of(study):
    best = study.best_trial()
    return best.config, best.val_accuracy


def accuracies(study):
    return {t.trial_id: t.val_accuracy for t in study.completed()}


def serial_reference(space):
    """The grid's answers from a plain loop over the stage bodies."""
    out = {}
    for i, config in enumerate(SearchSpace.from_dict(space).grid(), 1):
        prep, params, epochs = split_config(config)
        state = stage_prepare(prep)
        for start, stop in StagePlan(block_epochs=4).blocks(epochs):
            state = stage_train_mock(state, params, start, stop)
        out[i] = stage_final_mock(state, params)["val_accuracy"]
    reset_epoch_counter()
    return out


class TestStagedGridReuse:
    @pytest.mark.parametrize(
        "space, monolithic, tree", [(SPACE, 72, 36), (WIDE_SPACE, 216, 108)]
    )
    def test_all_at_once_grid_trains_every_tree_node_once(
        self, tmp_path, space, monolithic, tree
    ):
        reset_epoch_counter()
        baseline = staged_study(tmp_path / "off", "off", reuse=False,
                                space=space)
        assert executed_epochs() == monolithic
        reset_epoch_counter()
        cached = staged_study(tmp_path / "on", "on", reuse=True, space=space)
        # Per (everything-but-epochs) chain only the 12-epoch budget
        # trains; the 4- and 8-epoch siblings joined its blocks.
        assert executed_epochs() == tree
        reset_epoch_counter()

        # Same study, same results — reuse changes cost, never answers.
        assert best_of(cached) == best_of(baseline)
        assert accuracies(cached) == accuracies(baseline)
        assert accuracies(cached) == serial_reference(space)
        reuse = cached.metadata["reuse"]
        assert reuse["hits"] == 0  # nothing on disk to hit: all joins
        # Every submission either computed its stage or joined one.
        n_trials = len(cached.trials)
        submitted = sum(
            2 + t.config["num_epochs"] // 4 for t in cached.trials
        )
        assert reuse["misses"] == reuse["published"]
        assert reuse["misses"] + reuse["joined"] == submitted
        assert reuse["joined"] >= n_trials  # at least each shared prepare
        assert reuse["unverified_hits"] == 0

    def test_prefix_reuse_cuts_redundant_epochs(self, tmp_path):
        """The disk-hit path: a sequential study whose finished nodes
        are freed (``stream_completed``) has nothing in flight to join,
        so each later trial resolves its prefix from verified entries."""
        reset_epoch_counter()
        baseline = staged_study(tmp_path / "off", "off", reuse=False)
        epochs_off = executed_epochs()
        reset_epoch_counter()
        cached = staged_study(tmp_path / "on", "on", reuse=True,
                              batch_size=1, stream_completed=True)
        epochs_on = executed_epochs()
        reset_epoch_counter()

        assert best_of(cached) == best_of(baseline)
        assert accuracies(cached) == accuracies(baseline)
        assert (epochs_off, epochs_on) == (72, 36)
        reuse = cached.metadata["reuse"]
        assert reuse["hits"] > 0
        assert reuse["unverified_hits"] == 0

    def test_second_process_rides_the_populated_cache(self, tmp_path):
        first = staged_study(tmp_path, "warm", reuse=True)
        reset_epoch_counter()
        again = staged_study(tmp_path, "ride", reuse=True)
        assert executed_epochs() == 0  # fully cache-resolved
        reset_epoch_counter()
        reuse = again.metadata["reuse"]
        assert reuse["misses"] == 0
        # One verified disk hit per distinct stage; siblings join it.
        assert reuse["hits"] == first.metadata["reuse"]["published"] == 19
        assert reuse["unverified_hits"] == 0
        assert accuracies(again) == accuracies(first)

    def test_staged_duration_sums_the_trials_own_chain(self, tmp_path):
        sleep_s = 0.01
        study = staged_study(
            tmp_path, "timed", reuse=True,
            space={"optimizer": ["SGD"], "num_epochs": [4, 8],
                   "epoch_sleep_s": [sleep_s]},
        )
        reset_epoch_counter()
        short, long = study.completed()
        # The shared [0, 4) block counts for both trials that consume it.
        assert short.result.duration_s >= 4 * sleep_s
        assert long.result.duration_s >= 8 * sleep_s
        assert long.result.duration_s > short.result.duration_s

    def test_failed_shared_block_is_retried_once_for_all_dependants(
        self, tmp_path
    ):
        from repro.runtime.fault import RetryPolicy

        # stage_train-2 is the [0, 4) block all three trials share.  Its
        # first attempt hangs until the deadline fails it, so the block
        # dies only after every sibling has joined it; a failure injected
        # at attempt start could beat the later submissions, which would
        # then build a fresh block of their own and need no retry.
        plan = FailurePlan().hang_task("stage_train-2", 0)
        reset_epoch_counter()
        study = staged_study(
            tmp_path, "retry", reuse=True,
            space={"optimizer": ["SGD"], "num_epochs": [4, 8, 12]},
            injector=FailureInjector(plan=plan, seed=1),
            retry_policy=RetryPolicy(same_node_retries=0, resubmissions=0),
            task_timeout_s=1.0,
            max_trial_retries=1,
        )
        # The dead block took every dependant with it; each trial spent
        # its one retry, the first rebuilt the block, the others joined.
        assert study.metadata["resilience_events"]["trial_retry"] == 3
        assert len(study.completed()) == 3
        assert executed_epochs() == 12
        reset_epoch_counter()
        assert accuracies(study) == serial_reference(
            {"optimizer": ["SGD"], "num_epochs": [4, 8, 12]}
        )

    def test_joined_submission_is_awaited_by_its_task_group(self, tmp_path):
        from repro.pycompss_api.task import task
        from repro.pycompss_api.task_group import (
            TaskGroup, compss_barrier_group, reset_groups,
        )
        from repro.runtime.runtime import COMPSsRuntime

        @task(returns=1, cacheable=True)
        def slow_square(x):
            time.sleep(0.2)
            return x * x

        reset_groups()
        config = RuntimeConfig(
            cluster=local_machine(2), reuse_cache=True,
            cache_dir=str(tmp_path / "cache"),
        )
        with COMPSsRuntime(config) as runtime:
            first = slow_square(7)
            with TaskGroup("joined") as group:
                second = slow_square(7)
            assert second is first  # no second task was created
            assert group.tasks == [first.invocation]
            compss_barrier_group("joined")
            assert first.done and first.result() == 49
            assert runtime.reuse.stats()["joined"] == 1
            assert runtime.analysis().reuse()["joined"] == 1
        reset_groups()

    def test_concurrent_submitters_of_one_key_all_get_the_value(
        self, tmp_path
    ):
        import sys
        import threading

        from repro.pycompss_api.task import task
        from repro.runtime.runtime import COMPSsRuntime

        @task(returns=1, cacheable=True)
        def square(x):
            return x * x

        config = RuntimeConfig(
            cluster=local_machine(4), reuse_cache=True,
            cache_dir=str(tmp_path / "cache"),
        )
        threads, rounds, keys = 8, 25, 5
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with COMPSsRuntime(config) as runtime:
                def hammer():
                    for i in range(rounds):
                        x = i % keys
                        if runtime.wait_on(square(x)) != x * x:
                            wrong.append(x)

                workers = [threading.Thread(target=hammer)
                           for _ in range(threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                assert not any(w.is_alive() for w in workers)
                stats = runtime.reuse.stats()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        # Racing first submitters may both compute (safe duplication),
        # but no submission is lost or counted twice.
        assert (stats["joined"] + stats["misses"] + stats["hits"]
                == threads * rounds)
        assert stats["joined"] >= threads * rounds - threads * keys
        assert stats["unverified_hits"] == 0

    def test_streaming_study_leaves_no_join_entries(self, tmp_path):
        from repro.runtime.runtime import COMPSsRuntime

        config = RuntimeConfig(
            cluster=local_machine(4), reuse_cache=True,
            cache_dir=str(tmp_path / "cache"), stream_completed=True,
        )
        reset_epoch_counter()
        # A sibling joins a block only while that block is live: the
        # sleep keeps each block in flight for 0.2 s, far longer than
        # the submit loop takes to reach the next sibling, so the join
        # does not hinge on the pool thread losing a race to it.
        space = dict(SPACE, epoch_sleep_s=[0.05])
        with COMPSsRuntime(config) as runtime:
            study = PyCOMPSsRunner(
                "grid", space=SearchSpace.from_dict(space),
                stage_plan=StagePlan(block_epochs=4), study_name="waves",
                batch_size=3,  # one optimizer's {4, 8, 12} per wave
            ).run()
            assert len(study.completed()) == 9
            assert study.metadata["reuse"]["joined"] > 0
            # Every node was freed with its last consumer, and took its
            # join entry along: nothing pins a result past its use.
            assert runtime.graph.freed_tasks > 0
            assert [list(s.joins) for s in runtime.sessions.by_id.values()] == [[]]
        assert executed_epochs() == 36
        reset_epoch_counter()

    def test_target_accuracy_warned_and_ignored(self, tmp_path):
        config = RuntimeConfig(cluster=local_machine(2))
        runner = PyCOMPSsRunner(
            "grid",
            space=SearchSpace.from_dict(
                {"optimizer": ["SGD"], "num_epochs": [4]}
            ),
            runtime_config=config,
            stage_plan=StagePlan(block_epochs=4),
            study_name="warn",
        )
        runner.target_accuracy = 0.5  # would stop instantly if honoured
        study = runner.run()
        assert len(study.completed()) == 1


RESUME_DRIVER = """\
import os, sys
from pathlib import Path

from repro.hpo import PyCOMPSsRunner
from repro.hpo.runner import StudyCallback
from repro.hpo.space import SearchSpace
from repro.hpo.stages import StagePlan
from repro.runtime.config import RuntimeConfig
from repro.simcluster.machines import local_machine

workdir, die_after = Path(sys.argv[1]), int(sys.argv[2])


class DieAfter(StudyCallback):
    # A deterministic crash point: no flush, no cleanup.
    def on_trial_complete(self, study, trial):
        if die_after and len(study.completed()) >= die_after:
            os._exit(9)


study = PyCOMPSsRunner(
    "grid",
    space=SearchSpace.from_dict({
        "optimizer": ["SGD", "Adam", "RMSprop"], "num_epochs": [4, 8, 12],
        "epoch_sleep_s": [0.02],
    }),
    runtime_config=RuntimeConfig(
        cluster=local_machine(2), checkpoint_dir=str(workdir),
        reuse_cache=True,
    ),
    stage_plan=StagePlan(block_epochs=4),
    callbacks=[DieAfter()],
    resume_from=str(workdir) if (workdir / "journal.jsonl").exists() else None,
    study_name="staged-crash",
).run()
print(len(study.completed()), study.best_trial().config["optimizer"])
"""


def test_killed_staged_study_resumes_without_rerunning_a_task_key(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    from repro.runtime import checkpoint as ckpt

    driver = tmp_path / "driver.py"
    driver.write_text(RESUME_DRIVER)
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def run(die_after):
        return subprocess.run(
            [sys.executable, str(driver), str(tmp_path / "ckpt"),
             str(die_after)],
            env=env, capture_output=True, text=True, timeout=120,
        )

    assert run(die_after=2).returncode == 9
    done = run(die_after=0)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["9", "Adam"]

    records, _ = ckpt.WriteAheadJournal.replay(
        tmp_path / "ckpt" / ckpt.JOURNAL_FILE
    )
    sessions = []
    for r in records:
        if r["rec"] == ckpt.SESSION:
            sessions.append([])
        elif r["rec"] == ckpt.COMPLETED and not (
            r.get("restored") or r.get("cached")
        ):
            sessions[-1].append(r["key"])
    first, second = sessions
    assert first and second  # died mid-study; the rest ran after resume
    executed = first + second
    assert len(executed) == len(set(executed))  # no key ran twice
    # 1 prepare + (3 blocks + 3 finals) x 3 optimizers: every tree node
    # exactly once across the two processes.
    assert len(executed) == 19


# ----------------------------------------------------------------------
# Chaos acceptance
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_chaos_matches_cache_off_with_zero_unverified_reads(
        self, tmp_path, seed
    ):
        """10 % corruption + a lost publication never change the answer."""
        baseline = staged_study(tmp_path / "off", "off", reuse=False,
                                seed=seed)
        reset_epoch_counter()

        def chaos_injector():
            plan = FailurePlan().lose_cache_publish("stage_prepare-1")
            return FailureInjector(
                plan=plan, seed=seed, cache_corrupt_prob=0.10
            )

        def chaotic_pair(root):
            # The writer joins in flight and never reads its own
            # entries; the rider over the same cache_dir is where the
            # rotten ones and the lost publication are met.
            writer = staged_study(root, "on", reuse=True, seed=seed,
                                  injector=chaos_injector())
            rider = staged_study(root, "ride", reuse=True, seed=seed,
                                 injector=chaos_injector())
            reset_epoch_counter()
            return writer, rider

        chaotic, rider = chaotic_pair(tmp_path / "on")
        for study in (chaotic, rider):
            assert best_of(study) == best_of(baseline)
            assert accuracies(study) == accuracies(baseline)
            assert study.metadata["reuse"]["unverified_hits"] == 0
        assert chaotic.metadata["reuse"]["joined"] > 0
        assert rider.metadata["reuse"]["hits"] > 0

        # Bit-identical same-seed rerun: same chaos draws, same stats
        # that matter, same study payload.
        rerun, rerider = chaotic_pair(tmp_path / "rerun")
        assert accuracies(rerun) == accuracies(chaotic)
        assert best_of(rerun) == best_of(chaotic)
        assert accuracies(rerider) == accuracies(rider)
        for key in ("hits", "misses", "joined", "corrupt"):
            assert (rerider.metadata["reuse"][key]
                    == rider.metadata["reuse"][key]), key

    def test_scripted_corruption_is_detected_and_survived(self, tmp_path):
        plan = (
            FailurePlan()
            .corrupt_cache_entry("stage_train-2")
            .lose_cache_publish("stage_prepare-1")
        )
        injector = FailureInjector(plan=plan, seed=3)
        study = staged_study(tmp_path, "scripted", reuse=True,
                             injector=injector)
        baseline = staged_study(tmp_path / "off", "off", reuse=False)
        assert best_of(study) == best_of(baseline)
        assert injector.injected_cache_corruptions == ["stage_train-2"]
        assert injector.injected_lost_publications == ["stage_prepare-1"]
        reuse = study.metadata["reuse"]
        assert reuse["joined"] > 0
        assert reuse["unverified_hits"] == 0
        # In-study siblings joined the live node, so the rot sits unread
        # on disk and the prepare stage has no entry.  The next study
        # over the same cache_dir meets both: it misses the prepare
        # stage and recomputes it, and it detects the corrupt block at
        # its hit and retrains exactly that block.
        reset_epoch_counter()
        rider = staged_study(tmp_path, "rider", reuse=True)
        assert executed_epochs() == 4
        reset_epoch_counter()
        assert best_of(rider) == best_of(baseline)
        assert accuracies(rider) == accuracies(baseline)
        reuse = rider.metadata["reuse"]
        assert reuse["corrupt"] == 1
        assert reuse["hits"] > 0
        assert reuse["unverified_hits"] == 0

    def test_concurrent_tenants_race_identical_stages(self, tmp_path):
        """Two daemon tenants, same space: shared cache, same answers."""
        import repro.service.protocol as proto
        from repro.service.client import ServiceClient
        from repro.service.daemon import HPOService

        service = HPOService(
            tmp_path / "svc",
            runtime_config=RuntimeConfig(
                cluster=local_machine(4), reuse_cache=True
            ),
            heartbeat_s=0.05,
        ).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        space = {"optimizer": ["SGD", "Adam"], "num_epochs": [4, 8]}

        def submit(sid, tenant):
            client.submit(
                proto.StudyRequest(
                    study_id=sid, tenant=tenant, space=space,
                    stage_epochs=4, objective="fast_mock",
                ),
                wait_admission=False,
            )

        try:
            submit("tA", "a")
            submit("tB", "b")
            service.run_until_idle(max_wait_s=120)
            raced = service.runtime.reuse.stats()
            # A third tenant after the race: everything it needs is
            # published, so it resolves from verified disk entries.
            submit("tC", "c")
            service.run_until_idle(max_wait_s=120)
            reuse_stats = service.runtime.reuse.stats()
            assert not any(  # dropped at study close
                s.joins for s in service.runtime.sessions.by_id.values()
            )
        finally:
            service.shutdown()

        results = {}
        for sid in ("tA", "tB", "tC"):
            state = client.status(sid)
            assert state["status"] == proto.COMPLETED
            results[sid] = (
                state["best"]["config"],
                {t["trial_id"]: t["result"]["val_accuracy"]
                 for t in client.result(sid)["trials"]},
            )
        # Identical studies, identical answers — racing the cache never
        # leaks one tenant's chaos into another's results.
        assert results["tA"] == results["tB"] == results["tC"]
        assert reuse_stats["unverified_hits"] == 0
        # Each racing tenant joined its own siblings; the join map is
        # per study, so across tenants sharing stayed on the disk path.
        assert raced["joined"] > 0
        # tC: 1 prepare + (2 blocks + 2 finals) x 2 optimizers, all hits.
        assert reuse_stats["hits"] - raced["hits"] == 9
        assert reuse_stats["misses"] == raced["misses"]
        assert (tmp_path / "svc" / "reuse-cache").is_dir()


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestReuseCli:
    def test_recover_and_gc_report_cache_state(self, tmp_path, capsys):
        from repro.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"optimizer": ["SGD", "Adam"], "num_epochs": [4, 8]}'
        )
        ckpt = tmp_path / "ckpt"
        cache = tmp_path / "cache"
        assert main([
            "run", str(cfg), "--mock-objective", "--stage-epochs", "4",
            "--reuse-cache", "--cache-dir", str(cache),
            "--checkpoint-dir", str(ckpt), "--out-dir", str(tmp_path / "out"),
        ]) == 0
        # 9 stages computed, 5 submissions joined: prepare x3, and the
        # [0, 4) block once per optimizer.
        assert "9 misses (0% hit rate), 5 joined" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "out" / "study.json")]) == 0
        assert "'joined': 5" in capsys.readouterr().out

        assert main([
            "recover", str(ckpt), "--cache-dir", str(cache)
        ]) == 0
        out = capsys.readouterr().out
        assert "reuse cache:" in out

        stale = cache / "dead.lease"
        stale.write_text("{}")
        assert main(["gc", str(ckpt), "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "1 leftover temp/lease file(s)" in out
        assert not stale.exists()

    def test_run_reuse_without_cache_home_is_a_friendly_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optimizer": ["SGD"]}')
        assert main(["run", str(cfg), "--mock-objective",
                     "--reuse-cache"]) == 2
        assert "--cache-dir" in capsys.readouterr().err
