"""Asynchronous successive halving: unit behaviour + churn acceptance.

The unit half pins the scheduler mechanics (rung ladder, barrier-free
promotion cadence, promotions-first serving, NaN handling).  The
acceptance half is the robustness contract: a churn-heavy run — every
base trial suspended once mid-flight — must find the same best config as
an undisturbed run, and same-seed reruns must be bit-identical.
"""

from __future__ import annotations

import pytest

from repro.hpo import PyCOMPSsRunner, parse_search_space
from repro.hpo.algorithms import get_algorithm
from repro.hpo.algorithms.asha import ASHA_ID_KEY, AsyncASHA
from repro.hpo.objective import preemptible_mock_objective
from repro.hpo.trial import Trial, TrialResult, TrialStatus
from repro.runtime.config import RuntimeConfig
from repro.runtime.preemption import _flag_locally, clear_local_flags
from repro.simcluster.machines import local_machine


@pytest.fixture(autouse=True)
def _clean_flags():
    clear_local_flags()
    yield
    clear_local_flags()


def space():
    return parse_search_space(
        {
            "optimizer": ["SGD", "Adam", "RMSprop"],
            "learning_rate": [0.1, 0.01, 0.001],
            "batch_size": [16, 32, 64],
        }
    )


def make_asha(**kwargs):
    defaults = dict(n_trials=9, min_epochs=1, max_epochs=9, eta=3, seed=0)
    defaults.update(kwargs)
    return AsyncASHA(space(), **defaults)


def told(algo, config, acc, trial_id=0):
    trial = Trial(trial_id=trial_id, config=dict(config))
    trial.result = TrialResult(val_accuracy=acc)
    trial.status = TrialStatus.COMPLETED
    algo.tell(trial)


class TestRungLadder:
    def test_geometric_ladder_capped_at_max(self):
        assert make_asha(min_epochs=1, max_epochs=27).rungs == [1, 3, 9, 27]
        assert make_asha(min_epochs=2, max_epochs=20).rungs == [2, 6, 18, 20]
        assert make_asha(min_epochs=5, max_epochs=5).rungs == [5]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_asha(eta=1)
        with pytest.raises(ValueError):
            make_asha(min_epochs=10, max_epochs=5)
        with pytest.raises(ValueError):
            make_asha(n_trials=0)

    def test_registered_by_name(self):
        algo = get_algorithm("asha", space(), n_trials=3)
        assert isinstance(algo, AsyncASHA)


class TestPromotionCadence:
    def test_samples_carry_lineage_and_bottom_rung(self):
        algo = make_asha()
        batch = algo.ask()
        assert len(batch) == 9
        assert {c[ASHA_ID_KEY] for c in batch} == {f"c{i}" for i in range(9)}
        assert all(c["num_epochs"] == 1 for c in batch)

    def test_promotes_without_waiting_for_the_rung(self):
        """eta results in → one promotion out, while 6 peers still fly."""
        algo = make_asha()
        batch = algo.ask()
        for i, acc in enumerate([0.3, 0.9, 0.6]):
            told(algo, batch[i], acc, trial_id=i)
        promos = algo.ask()
        assert len(promos) == 1
        assert promos[0][ASHA_ID_KEY] == batch[1][ASHA_ID_KEY]  # the 0.9
        assert promos[0]["num_epochs"] == 3  # next rung's budget
        events = algo.pop_events()
        assert len(events) == 1
        assert events[0]["from_rung"] == 0 and events[0]["to_rung"] == 1
        assert algo.pop_events() == []  # drained

    def test_promotions_served_before_fresh_samples(self):
        algo = make_asha(n_trials=27)
        batch = algo.ask(3)
        for i, acc in enumerate([0.1, 0.2, 0.8]):
            told(algo, batch[i], acc, trial_id=i)
        nxt = algo.ask(2)
        assert nxt[0][ASHA_ID_KEY] == batch[2][ASHA_ID_KEY]  # promotion first
        assert nxt[0]["num_epochs"] == 3
        assert nxt[1]["num_epochs"] == 1  # then a fresh bottom-rung sample

    def test_nan_result_never_promoted(self):
        algo = make_asha()
        batch = algo.ask()
        told(algo, batch[0], float("nan"), trial_id=0)
        told(algo, batch[1], 0.5, trial_id=1)
        told(algo, batch[2], 0.4, trial_id=2)
        promos = algo.ask()
        assert len(promos) == 1
        assert promos[0][ASHA_ID_KEY] == batch[1][ASHA_ID_KEY]

    def test_top_rung_only_collects(self):
        algo = make_asha(min_epochs=9, max_epochs=9)
        batch = algo.ask()
        for i in range(9):
            told(algo, batch[i], 0.1 * i, trial_id=i)
        assert algo.ask() == []
        assert algo.pop_events() == []
        assert algo.is_exhausted

    def test_exhaustion_waits_for_inflight_and_promotions(self):
        algo = make_asha(n_trials=3)
        batch = algo.ask()
        assert not algo.is_exhausted  # in flight
        for i, acc in enumerate([0.3, 0.6, 0.9]):
            told(algo, batch[i], acc, trial_id=i)
        assert not algo.is_exhausted  # a promotion is queued
        promo = algo.ask()
        assert len(promo) == 1
        assert not algo.is_exhausted  # the promotion is in flight
        told(algo, promo[0], 0.95, trial_id=3)
        assert algo.is_exhausted


# ----------------------------------------------------------------------
# Acceptance: churn-heavy AsyncASHA == churn-free AsyncASHA, per seed
# ----------------------------------------------------------------------
class TestChurnAcceptance:
    def run_asha(self, root, seed, churn):
        runner = PyCOMPSsRunner(
            "asha",
            space=space(),
            objective=preemptible_mock_objective,
            study_name=f"asha-{seed}",
            algorithm_kwargs=dict(
                n_trials=9, min_epochs=2, max_epochs=18, eta=3, seed=seed
            ),
            runtime_config=RuntimeConfig(
                cluster=local_machine(4), checkpoint_dir=root / "ckpt"
            ),
        )
        if churn:
            orig = runner._submit_trial
            kicked = set()

            def wrapped(runtime, trial, resume_epoch=None):
                key = runner._preempt_key(trial)
                if key not in kicked:
                    kicked.add(key)
                    # Deterministic churn: flag *before* the task starts,
                    # so the trial always suspends at its first
                    # checkpoint epoch (flagging after submit races the
                    # first epoch and makes the schedule timing-shaped).
                    _flag_locally(key)
                return orig(runtime, trial, resume_epoch=resume_epoch)

            runner._submit_trial = wrapped
        return runner.run()

    @staticmethod
    def transcript(study):
        return [
            (t.config[ASHA_ID_KEY], t.config["num_epochs"],
             t.config["optimizer"], t.val_accuracy)
            for t in study.completed()
        ]

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_churned_run_finds_the_calm_answer(self, tmp_path, seed):
        calm = self.run_asha(tmp_path / "calm", seed, churn=False)
        churned = self.run_asha(tmp_path / "churned", seed, churn=True)

        # Same winner, same winning score — suspensions may reorder work
        # but must not change what the search concludes.
        assert (
            churned.best_trial().val_accuracy == calm.best_trial().val_accuracy
        )
        assert (
            churned.best_trial().config["optimizer"]
            == calm.best_trial().config["optimizer"]
        )
        assert len(churned.completed()) == len(calm.completed())
        # Every base lineage suspended exactly once, resumed warm.
        stats = churned.metadata["preemption"]
        assert stats["suspended"] == 9
        assert stats["resumed"] == 9
        assert stats["epochs_lost"] == 0
        assert stats["rung_promotions"] == calm.metadata["preemption"][
            "rung_promotions"
        ] > 0

        # Bit-identical same-seed rerun of the *churned* schedule.
        rerun = self.run_asha(tmp_path / "rerun", seed, churn=True)
        assert self.transcript(rerun) == self.transcript(churned)
