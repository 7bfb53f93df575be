"""Gaussian-process Bayesian optimisation (Snoek et al., 2012 — paper §2.1).

"Bayesian optimisation … essentially builds a surrogate model to
approximate the ideal trained model by using different hyperparameters."
Implementation: a GP with an RBF kernel over the unit-hypercube embedding
of the space, expected-improvement acquisition maximised over random
candidates, and a constant-liar strategy so batches of parallel
suggestions stay diverse (pending points are imputed with the current
mean).  Pure numpy/scipy; scipy is imported by the functions that call
it, so ``import repro.hpo`` (every CLI start, every worker) does not pay
for ``scipy.stats`` on behalf of an algorithm the study may never use.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.hpo.algorithms.base import SearchAlgorithm
from repro.hpo.space import SearchSpace
from repro.hpo.trial import Trial
from repro.util.seeding import rng_from
from repro.util.validation import check_positive


def rbf_kernel(a: np.ndarray, b: np.ndarray, length_scale: float) -> np.ndarray:
    """Squared-exponential kernel matrix between row sets ``a`` and ``b``."""
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.exp(-0.5 * np.maximum(sq, 0.0) / length_scale**2)


class GaussianProcess:
    """Minimal GP regressor with fixed RBF kernel and noise jitter."""

    def __init__(self, length_scale: float = 0.3, noise: float = 1e-4):
        check_positive("length_scale", length_scale)
        check_positive("noise", noise)
        self.length_scale = float(length_scale)
        self.noise = float(noise)
        self._x: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit on observations (y standardised internally)."""
        from scipy import linalg

        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes x={x.shape}, y={y.shape}")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        yz = (y - self._y_mean) / self._y_std
        k = rbf_kernel(x, x, self.length_scale)
        k[np.diag_indices_from(k)] += self.noise
        self._chol = linalg.cholesky(k, lower=True)
        self._alpha = linalg.cho_solve((self._chol, True), yz)
        self._x = x
        return self

    def predict(self, x: np.ndarray):
        """Posterior mean and std at rows of ``x`` (original y units)."""
        from scipy import linalg

        if self._x is None:
            raise RuntimeError("predict() before fit()")
        ks = rbf_kernel(x, self._x, self.length_scale)
        mean_z = ks @ self._alpha
        v = linalg.solve_triangular(self._chol, ks.T, lower=True)
        var_z = np.maximum(1.0 - np.sum(v**2, axis=0), 1e-12)
        mean = mean_z * self._y_std + self._y_mean
        std = np.sqrt(var_z) * self._y_std
        return mean, std


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI for maximisation: E[max(f − best − ξ, 0)]."""
    from scipy.stats import norm

    std = np.maximum(std, 1e-12)
    z = (mean - best - xi) / std
    return (mean - best - xi) * norm.cdf(z) + std * norm.pdf(z)


class BayesianOptimization(SearchAlgorithm):
    """GP-EI Bayesian optimisation maximising validation accuracy.

    Parameters
    ----------
    n_trials:
        Total configuration budget.
    n_init:
        Random configurations before the GP takes over.
    n_candidates:
        Random candidates over which EI is maximised per suggestion.
    seed:
        Determinism seed.
    """

    def __init__(
        self,
        space: SearchSpace,
        n_trials: int = 20,
        n_init: int = 5,
        n_candidates: int = 256,
        seed: int = 0,
        length_scale: float = 0.3,
    ):
        super().__init__(space)
        check_positive("n_trials", n_trials)
        check_positive("n_init", n_init)
        check_positive("n_candidates", n_candidates)
        self.n_trials = int(n_trials)
        self.n_init = min(int(n_init), self.n_trials)
        self.n_candidates = int(n_candidates)
        self.length_scale = length_scale
        self._rng = rng_from(seed, "bayesian-opt")
        self._suggested = 0
        self._pending_points: List[np.ndarray] = []

    # ------------------------------------------------------------------
    def _observations(self):
        xs, ys = [], []
        for t in self.observed:
            if t.result is not None and np.isfinite(t.val_accuracy):
                xs.append(self.space.to_unit_vector(t.config))
                ys.append(t.val_accuracy)
        return np.array(xs), np.array(ys)

    def _suggest_one(self, xs: np.ndarray, ys: np.ndarray) -> Dict[str, Any]:
        # Constant liar: pretend pending points observed the current mean,
        # which pushes EI away from already-chosen batch points.
        if self._pending_points:
            lie = float(ys.mean())
            xs = np.vstack([xs, np.array(self._pending_points)])
            ys = np.concatenate([ys, np.full(len(self._pending_points), lie)])
        gp = GaussianProcess(length_scale=self.length_scale).fit(xs, ys)
        cand = self._rng.random((self.n_candidates, len(self.space)))
        mean, std = gp.predict(cand)
        ei = expected_improvement(mean, std, best=float(ys.max()))
        u = cand[int(np.argmax(ei))]
        self._pending_points.append(u)
        return self.space.from_unit_vector(u)

    def ask(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        remaining = self.n_trials - self._suggested
        n = remaining if n is None else min(n, remaining)
        batch: List[Dict[str, Any]] = []
        for _ in range(max(0, n)):
            xs, ys = self._observations()
            if self._suggested < self.n_init or len(xs) < 2:
                config = self.space.sample(self._rng)
                self._pending_points.append(self.space.to_unit_vector(config))
            else:
                config = self._suggest_one(xs, ys)
            batch.append(config)
            self._suggested += 1
        return batch

    def tell(self, trial: Trial) -> None:
        super().tell(trial)
        # Retire the pending point closest to this trial's embedding.
        if self._pending_points:
            u = self.space.to_unit_vector(trial.config)
            dists = [float(np.linalg.norm(p - u)) for p in self._pending_points]
            self._pending_points.pop(int(np.argmin(dists)))

    @property
    def is_exhausted(self) -> bool:
        return self._suggested >= self.n_trials
