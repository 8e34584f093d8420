"""Incremental (rank-1) GP updates must match batch refits.

The campaign layer streams observations through
:meth:`~repro.methods.gp.GaussianProcess.observe`; these tests pin the
contract that makes that safe: an observe chain is numerically equivalent
to one ``fit`` on the concatenated data — posterior means/stds to 1e-8
and, crucially for decision parity, the same acquisition argmax — and it
never pays an O(n³) refactorization.  A whole BO campaign's surrogate
work is then fixed by its refit schedule alone.
"""

import numpy as np
import pytest

import repro.methods.gp as gp_mod
from repro.labsci import QuantumDotLandscape
from repro.methods import BayesianOptimizer, GaussianProcess, Matern52, RBF
from repro.methods.bayesopt import REFIT_EVERY
from repro.methods.gp import AMPLITUDE_GRID, LENGTHSCALE_GRID
from repro.methods.kernels import _Stationary


def _make_problem(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    d = int(rng.integers(1, 6))
    X = rng.random((n, d))
    y = np.sin(4 * X[:, 0]) + 0.3 * rng.standard_normal(n)
    Xq = rng.random((256, d))
    return X, y, Xq


@pytest.mark.parametrize("seed", range(20))
def test_observe_chain_matches_batch_fit(seed):
    X, y, Xq = _make_problem(seed)
    kernel = RBF(lengthscale=0.3) if seed % 2 else Matern52(lengthscale=0.3)

    batch = GaussianProcess(kernel, noise=0.05).fit(X, y)
    inc = GaussianProcess(kernel, noise=0.05)
    for x, v in zip(X, y):
        inc.observe(x, v)

    mean_b, std_b = batch.predict(Xq)
    mean_i, std_i = inc.predict(Xq)
    np.testing.assert_allclose(mean_i, mean_b, atol=1e-8)
    np.testing.assert_allclose(std_i, std_b, atol=1e-8)
    # The decision a campaign would make is identical.
    assert int(np.argmax(mean_i + std_i)) == int(np.argmax(mean_b + std_b))
    assert inc.n_incremental_updates == len(y) - 1


def test_observe_chain_never_refactorizes(monkeypatch):
    """The O(n²) promise: no cho_factor calls while streaming points."""
    rng = np.random.default_rng(3)
    X = rng.random((30, 4))
    y = np.sin(3 * X[:, 0])
    gp = GaussianProcess(RBF(lengthscale=0.3), noise=0.05).fit(X[:20], y[:20])

    real = gp_mod.cho_factor
    calls = []

    def counting(K, *a, **kw):
        calls.append(K.shape)
        return real(K, *a, **kw)

    monkeypatch.setattr(gp_mod, "cho_factor", counting)
    for i in range(20, 30):
        gp.observe(X[i], y[i])
    assert calls == []
    assert gp.n_incremental_updates == 10
    assert gp.n_observations == 30


def test_observe_duplicate_point_falls_back_to_fit():
    """A degenerate append refactors instead of poisoning the factor."""
    rng = np.random.default_rng(0)
    X = rng.random((10, 2))
    y = rng.standard_normal(10)
    gp = GaussianProcess(RBF(lengthscale=0.3), noise=1e-6).fit(X, y)
    before = gp.n_factorizations
    gp.observe(X[0], y[0])  # exact duplicate: rank-1 update would be singular
    assert gp.n_factorizations == before + 1
    assert gp.n_observations == 11
    mean, std = gp.predict(X)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))


def test_campaign_surrogate_work_follows_refit_schedule(monkeypatch):
    """Over a BO campaign (budget 64, then 150; 280-candidate pools):

    - each grid search factors every (lengthscale, amplitude) candidate
      once and computes one distance matrix per lengthscale;
    - every other GP ask streams the last tell in as a rank-1 update;
    - ``predict`` never builds a query-by-query kernel matrix.
    """
    counts = {"grids": 0, "sqdist": 0}
    kernel_calls = []
    real_grid = GaussianProcess.fit_hyperparameters
    real_sqdist = gp_mod._sqdist
    real_kernel = _Stationary.__call__

    def grid(self, *args, **kwargs):
        counts["grids"] += 1
        return real_grid(self, *args, **kwargs)

    def sqdist(*args, **kwargs):
        counts["sqdist"] += 1
        return real_sqdist(*args, **kwargs)

    def kernel(self, a, b):
        kernel_calls.append((len(np.atleast_2d(a)), len(np.atleast_2d(b))))
        return real_kernel(self, a, b)

    monkeypatch.setattr(GaussianProcess, "fit_hyperparameters", grid)
    monkeypatch.setattr(gp_mod, "_sqdist", sqdist)
    monkeypatch.setattr(_Stationary, "__call__", kernel)

    land = QuantumDotLandscape(seed=2)
    pool = 280
    opt = BayesianOptimizer(land.space, np.random.default_rng(0),
                            n_candidates=pool)
    for budget, done in ((64, 0), (150, 64)):
        for _ in range(budget - done):
            p = opt.ask()
            opt.tell(p, land.objective_value(p))
        gp_asks = budget - opt.n_init
        grids = 1 + (gp_asks - 1) // REFIT_EVERY
        assert counts["grids"] == grids
        assert opt.gp.n_factorizations == (
            len(LENGTHSCALE_GRID) * len(AMPLITUDE_GRID) * grids)
        assert counts["sqdist"] == len(LENGTHSCALE_GRID) * grids
        assert opt.gp.n_incremental_updates == gp_asks - grids
    assert max(min(shape) for shape in kernel_calls) < pool
