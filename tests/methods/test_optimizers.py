"""Tests for acquisition functions, baselines, BO, and nested BO."""

import numpy as np
import pytest

from repro.labsci import (ContinuousDim, DiscreteDim, ParameterSpace,
                          QuantumDotLandscape, SyntheticLandscape)
from repro.methods import (BayesianOptimizer, GridSearch, LatinHypercube,
                           NestedBayesianOptimizer, RandomSearch,
                           expected_improvement, probability_of_improvement,
                           upper_confidence_bound)
from repro.methods.acquisition import score_candidates
from repro.methods.gp import GaussianProcess
from repro.methods.kernels import RBF


@pytest.fixture
def cont_space():
    return ParameterSpace([ContinuousDim("x", 0.0, 1.0),
                           ContinuousDim("y", 0.0, 1.0)])


@pytest.fixture
def mixed_space():
    return ParameterSpace([
        DiscreteDim("chem", ("a", "b", "c", "d")),
        ContinuousDim("x", 0.0, 1.0),
        ContinuousDim("y", 0.0, 1.0),
    ])


def optimize(opt, landscape, budget):
    for _ in range(budget):
        p = opt.ask()
        opt.tell(p, landscape.objective_value(p))
    return opt.best[0]


# -- acquisition functions ------------------------------------------------------

def test_ei_zero_when_certain_and_worse():
    ei = expected_improvement(np.array([0.1]), np.array([1e-12]), best=0.5)
    assert ei[0] == pytest.approx(0.0, abs=1e-9)


def test_ei_positive_when_uncertain():
    ei = expected_improvement(np.array([0.1]), np.array([0.3]), best=0.5)
    assert ei[0] > 0


def test_ei_monotone_in_mean():
    std = np.array([0.1, 0.1])
    ei = expected_improvement(np.array([0.4, 0.6]), std, best=0.5)
    assert ei[1] > ei[0]


def test_ucb_tradeoff():
    assert upper_confidence_bound(np.array([0.5]),
                                  np.array([0.2]))[0] == pytest.approx(0.9)


def test_pi_bounded():
    pi = probability_of_improvement(np.array([0.0, 10.0]),
                                    np.array([0.1, 0.1]), best=0.5)
    assert 0.0 <= pi[0] < 0.01
    assert pi[1] > 0.99


def test_acquisitions_bit_identical_to_scipy_stats_norm():
    from scipy.stats import norm

    from repro.methods.acquisition import STD_FLOOR, XI
    best = 0.0
    zs = np.concatenate([np.linspace(-40.0, 40.0, 161), [-0.0]])
    stds = np.array([0.0, STD_FLOOR, 1e-6, 0.1, 1.0, 10.0])
    z, std = (a.ravel() for a in np.meshgrid(zs, stds))
    mean = best + XI + z * np.maximum(std, STD_FLOOR)
    rng = np.random.default_rng(0)
    mean = np.concatenate([mean, rng.normal(0.0, 1.0, 2000)])
    std = np.concatenate([std, np.abs(rng.normal(0.0, 1.0, 2000))])

    floored = np.maximum(std, STD_FLOOR)
    ref_z = (mean - best - XI) / floored
    assert np.any(ref_z == 0.0)
    assert ref_z.min() <= -40.0 + 1e-9 and ref_z.max() >= 40.0 - 1e-9
    ref_ei = (mean - best - XI) * norm.cdf(ref_z) + floored * norm.pdf(ref_z)
    assert np.array_equal(expected_improvement(mean, std, best), ref_ei)
    assert np.array_equal(probability_of_improvement(mean, std, best),
                          norm.cdf(ref_z))


def test_score_candidates_dispatch():
    rng = np.random.default_rng(0)
    X = rng.random((20, 2))
    y = X[:, 0]
    gp = GaussianProcess(RBF(0.3), noise=0.05).fit(X, y)
    Xc = rng.random((15, 2))
    for name in ("ei", "ucb", "pi", "thompson"):
        scores = score_candidates(name, gp, Xc, best=0.8, rng=rng)
        assert scores.shape == (15,)
    with pytest.raises(ValueError):
        score_candidates("magic", gp, Xc, best=0.8, rng=rng)


# -- baselines -------------------------------------------------------------------

def test_random_search_valid_and_tracks_best(cont_space):
    land = SyntheticLandscape(cont_space, seed=1)
    rs = RandomSearch(cont_space, np.random.default_rng(0))
    best = optimize(rs, land, 50)
    assert rs.n_observed == 50
    assert best == max(v for _, v in rs.history)
    traj = rs.best_trajectory()
    assert traj == sorted(traj)  # monotone non-decreasing


def test_grid_search_covers_grid(mixed_space):
    gs = GridSearch(mixed_space, points_per_dim=3)
    assert gs.grid_size == 4 * 3 * 3
    seen = {tuple(sorted(gs.ask().items())) for _ in range(gs.grid_size)}
    assert len(seen) == gs.grid_size
    # wraps around deterministically
    again = gs.ask()
    assert tuple(sorted(again.items())) in seen


def test_grid_search_validation(mixed_space):
    with pytest.raises(ValueError):
        GridSearch(mixed_space, points_per_dim=1)


def test_latin_hypercube_stratifies(cont_space):
    lhs = LatinHypercube(cont_space, np.random.default_rng(0))
    xs = sorted(lhs.ask()["x"] for _ in range(16))
    # one sample per stratum of width 1/16
    strata = {int(v * 16) for v in xs}
    assert len(strata) == 16


def test_latin_hypercube_discrete_balanced(mixed_space):
    lhs = LatinHypercube(mixed_space, np.random.default_rng(0))
    from collections import Counter
    counts = Counter(lhs.ask()["chem"] for _ in range(16))
    assert set(counts) == {"a", "b", "c", "d"}
    assert max(counts.values()) == 4


# -- Bayesian optimization ----------------------------------------------------------

def test_bo_beats_random_on_smooth_landscape(cont_space):
    budget = 40
    results = {}
    for name, make in [
        ("bo", lambda rng: BayesianOptimizer(cont_space, rng, n_init=8)),
        ("rs", lambda rng: RandomSearch(cont_space, rng)),
    ]:
        scores = []
        for seed in range(4):
            land = SyntheticLandscape(cont_space, seed=17, n_peaks=3)
            opt = make(np.random.default_rng(seed))
            scores.append(optimize(opt, land, budget))
        results[name] = float(np.mean(scores))
    assert results["bo"] >= results["rs"]


def test_bo_respects_space(cont_space):
    bo = BayesianOptimizer(cont_space, np.random.default_rng(0), n_init=4)
    land = SyntheticLandscape(cont_space, seed=3)
    for _ in range(20):
        p = bo.ask()
        assert cont_space.contains(p)
        bo.tell(p, land.objective_value(p))


def test_bo_absorb_external_observations(cont_space):
    land = SyntheticLandscape(cont_space, seed=9)
    donor = RandomSearch(cont_space, np.random.default_rng(1))
    for _ in range(30):
        p = donor.ask()
        donor.tell(p, land.objective_value(p))
    bo = BayesianOptimizer(cont_space, np.random.default_rng(2), n_init=8)
    for p, v in donor.history:
        bo.absorb(p, v)
    # External knowledge means the surrogate is active from ask #1.
    p = bo.ask()
    assert cont_space.contains(p)
    assert bo.n_observed == 0  # absorbed data is not "ours"


def test_bo_acquisition_variants_run(cont_space):
    land = SyntheticLandscape(cont_space, seed=5)
    for acq in ("ei", "ucb", "pi", "thompson"):
        bo = BayesianOptimizer(cont_space, np.random.default_rng(0),
                               acquisition=acq, n_init=4, n_candidates=64)
        optimize(bo, land, 12)
        assert bo.best is not None


def test_bo_posterior_at(cont_space):
    land = SyntheticLandscape(cont_space, seed=5)
    bo = BayesianOptimizer(cont_space, np.random.default_rng(0), n_init=4)
    mean, std = bo.posterior_at({"x": 0.5, "y": 0.5})
    assert std == float("inf")  # no data yet
    optimize(bo, land, 15)
    mean, std = bo.posterior_at({"x": 0.5, "y": 0.5})
    assert np.isfinite(mean) and np.isfinite(std)


# -- nested BO -------------------------------------------------------------------------

def test_nested_requires_discrete(cont_space):
    with pytest.raises(ValueError):
        NestedBayesianOptimizer(cont_space, np.random.default_rng(0))


def test_nested_explores_then_concentrates(mixed_space):
    land = SyntheticLandscape(mixed_space, seed=21, n_peaks=3)
    nbo = NestedBayesianOptimizer(mixed_space, np.random.default_rng(0),
                                  arm_subset=8)
    optimize(nbo, land, 60)
    assert nbo.n_arms_visited >= 2  # explored several chemistries
    summary = nbo.arm_summary()
    pulls = {k: p for k, p, _ in summary}
    best_arm = summary[0][0]
    # the best chemistry got the most attention
    assert pulls[best_arm] == max(pulls.values())


def test_nested_tracks_history_and_best(mixed_space):
    land = SyntheticLandscape(mixed_space, seed=2)
    nbo = NestedBayesianOptimizer(mixed_space, np.random.default_rng(1))
    best = optimize(nbo, land, 30)
    assert nbo.n_observed == 30
    assert best == max(v for _, v in nbo.history)


def test_nested_absorb_routes_to_arm(mixed_space):
    nbo = NestedBayesianOptimizer(mixed_space, np.random.default_rng(0))
    nbo.absorb({"chem": "b", "x": 0.5, "y": 0.5}, 0.9)
    arm = nbo._arms[("b",)]
    assert arm.best_value == 0.9
    assert arm.pulls == 0  # donations are not pulls


def test_nested_on_quantum_dot_scale(qd_landscape):
    # Smoke test on the real 10^13 space: it must run and improve.
    nbo = NestedBayesianOptimizer(qd_landscape.space,
                                  np.random.default_rng(3), arm_subset=16)
    traj = []
    for _ in range(40):
        p = nbo.ask()
        v = qd_landscape.objective_value(p)
        nbo.tell(p, v)
        traj.append(nbo.best[0])
    assert traj[-1] >= traj[5]


# -- std == 0 regression (posterior collapses at observed points) ---------------

def test_ei_finite_at_exact_zero_std():
    ei = expected_improvement(np.array([0.1, 0.5, 0.9]),
                              np.array([0.0, 0.0, 0.0]), best=0.5)
    assert np.all(np.isfinite(ei))
    # At/below the incumbent with zero uncertainty: no improvement.
    assert ei[0] == pytest.approx(0.0, abs=1e-9)
    assert ei[1] == pytest.approx(0.0, abs=1e-9)
    # Certainly better: EI collapses to the mean gap.
    assert ei[2] == pytest.approx(0.9 - 0.5 - 0.01, abs=1e-6)


def test_pi_finite_at_exact_zero_std():
    pi = probability_of_improvement(np.array([0.1, 0.9]),
                                    np.array([0.0, 0.0]), best=0.5)
    assert np.all(np.isfinite(pi))
    assert pi[0] == pytest.approx(0.0, abs=1e-9)
    assert pi[1] == pytest.approx(1.0, abs=1e-9)


def test_score_candidates_finite_on_observed_points():
    """Scoring the training points themselves must not produce NaN/inf."""
    X = np.array([[0.1, 0.2], [0.8, 0.9], [0.4, 0.5]])
    y = np.array([0.3, 0.7, 0.5])
    gp = GaussianProcess(kernel=RBF(lengthscale=0.3), noise=1e-6).fit(X, y)
    rng = np.random.default_rng(0)
    for name in ("ei", "ucb", "pi"):
        scores = score_candidates(name, gp, X, best=0.7, rng=rng)
        assert np.all(np.isfinite(scores)), name


# -- batched ask determinism ----------------------------------------------------

def _run_campaign(seed):
    from repro.scale import decision_hash
    land = SyntheticLandscape(
        ParameterSpace([DiscreteDim("chem", ("a", "b", "c")),
                        ContinuousDim("x", 0.0, 1.0),
                        ContinuousDim("y", 0.0, 1.0)]), seed=5)
    opt = BayesianOptimizer(land.space, np.random.default_rng(seed),
                            n_init=4, n_candidates=64)
    decisions = []
    for _ in range(16):
        p = opt.ask()
        v = land.objective_value(p)
        opt.tell(p, v)
        decisions.append((p, v))
    return decision_hash(decisions)


def test_ask_decision_hash_stable_across_same_seed_worlds():
    """Two same-seed campaigns in one process make identical decisions."""
    assert _run_campaign(42) == _run_campaign(42)
    assert _run_campaign(42) != _run_campaign(43)


def test_perturb_batch_stays_in_bounds(mixed_space):
    opt = BayesianOptimizer(mixed_space, np.random.default_rng(1),
                            n_candidates=32)
    incumbent = {"chem": "b", "x": 0.01, "y": 0.99}
    raw = opt._perturb_batch(incumbent)
    n_copies = len(opt._JITTER_SCALES) * opt._JITTER_COPIES
    assert raw.shape == (n_copies, len(mixed_space))
    for p in mixed_space.decode_batch(raw):
        mixed_space.validate(p)
        assert p["chem"] == "b"  # discrete coordinates never jittered


def test_ask_calls_do_not_grow_with_pool_size(call_counts):
    """The ask path is batched end to end: one ask makes the same Python
    and C calls whatever the candidate pool size.  A per-candidate
    ``sample``/``encode`` loop would add calls with every candidate."""
    def twelfth_ask(n_candidates):
        land = QuantumDotLandscape(seed=2)
        opt = BayesianOptimizer(land.space, np.random.default_rng(0),
                                n_candidates=n_candidates)
        for _ in range(11):  # 8 random, then GP asks on a live surrogate
            p = opt.ask()
            opt.tell(p, land.objective_value(p))
        return call_counts(opt.ask)

    assert twelfth_ask(128) == twelfth_ask(512) == twelfth_ask(2048)
