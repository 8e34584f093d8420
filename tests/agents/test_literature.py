"""Tests for the literature-review knowledge source."""

import numpy as np
import pytest

from repro.agents.literature import LiteratureAgent, SyntheticLiterature
from repro.labsci import ContinuousDim, ParameterSpace, SyntheticLandscape
from repro.methods import BayesianOptimizer


@pytest.fixture
def space():
    return ParameterSpace([ContinuousDim("x", 0.0, 1.0),
                           ContinuousDim("y", 0.0, 1.0)])


@pytest.fixture
def land(space):
    return SyntheticLandscape(space, seed=13, n_peaks=3)


def test_publication_bias_skews_corpus(land):
    rng = np.random.default_rng(0)
    lit = SyntheticLiterature(land, rng, n_papers=30)
    published_truths = [p.true_value for p in lit.corpus]
    random_truths = [land.objective_value(land.space.sample(rng))
                     for _ in range(300)]
    # The published record is a strictly rosier sample of reality.
    assert np.mean(published_truths) > np.median(random_truths)


def test_optimism_bias_inflates_reports(land):
    rng = np.random.default_rng(1)
    honest = SyntheticLiterature(land, rng, optimism_bias=0.0, noise=0.01)
    hyped = SyntheticLiterature(land, np.random.default_rng(1),
                                optimism_bias=0.5, noise=0.01)
    assert abs(honest.mean_inflation()) < 0.05
    assert hyped.mean_inflation() > 0.05


def test_search_orders_by_reported_value(land):
    lit = SyntheticLiterature(land, np.random.default_rng(2), n_papers=20)
    hits = lit.search(top_k=5)
    values = [p.reported_value for p in hits]
    assert values == sorted(values, reverse=True)
    assert len(hits) == 5


def test_review_seeds_optimizer_and_costs_time(sim, land):
    lit = SyntheticLiterature(land, np.random.default_rng(3), n_papers=20)
    agent = LiteratureAgent(sim, lit)
    bo = BayesianOptimizer(land.space, np.random.default_rng(4), n_init=6)
    out = {}

    def proc():
        out["absorbed"] = yield from agent.review_into(bo, top_k=8)

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(8 * 300.0)
    assert len(out["absorbed"]) == 8
    assert len(bo._external) == 8
    assert bo.n_observed == 0  # literature is not our data


def test_review_skips_out_of_envelope_recipes(sim, land):
    lit = SyntheticLiterature(land, np.random.default_rng(5), n_papers=30)
    # A modern SDL restricted to x <= 0.3: old high-x recipes unusable.
    clipped = ParameterSpace([ContinuousDim("x", 0.0, 0.3),
                              ContinuousDim("y", 0.0, 1.0)])
    bo = BayesianOptimizer(clipped, np.random.default_rng(6))
    agent = LiteratureAgent(sim, lit)
    out = {}

    def proc():
        out["absorbed"] = yield from agent.review_into(bo, top_k=30)

    sim.process(proc())
    sim.run()
    assert len(out["absorbed"]) < 30
    for paper in out["absorbed"]:
        assert paper.params_dict()["x"] <= 0.3


def test_honest_literature_accelerates_campaign(sim, land):
    """A seeded surrogate's *first own experiment* already exploits the
    record, where an unseeded campaign is still sampling at random."""
    bo = BayesianOptimizer(land.space, np.random.default_rng(7), n_init=6)
    lit = SyntheticLiterature(land, np.random.default_rng(8), n_papers=30,
                              optimism_bias=0.0, noise=0.02)
    agent = LiteratureAgent(sim, lit)
    done = {}

    def proc():
        done["x"] = yield from agent.review_into(bo, top_k=10)

    sim.process(proc())
    sim.run()
    first_proposal = bo.ask()
    first_value = land.objective_value(first_proposal)
    rng = np.random.default_rng(11)
    random_values = [land.objective_value(land.space.sample(rng))
                     for _ in range(300)]
    # The literature-informed first shot beats the random 75th percentile.
    assert first_value > float(np.percentile(random_values, 75))


def test_hyped_literature_misleads_without_discount(sim, land):
    """The §3.1 failure mode: inflated claims pull the surrogate off
    reality; a skeptical discount restores sanity."""
    oracle, oracle_params = land.best_estimate(n_random=4000)

    def seeded_posterior_error(discount: float) -> float:
        bo = BayesianOptimizer(land.space, np.random.default_rng(9),
                               n_init=4)
        lit = SyntheticLiterature(land, np.random.default_rng(10),
                                  n_papers=30, optimism_bias=0.8,
                                  noise=0.02)
        agent = LiteratureAgent(sim, lit, discount=discount)
        done = {}

        def proc():
            done["x"] = yield from agent.review_into(bo, top_k=10)

        sim.process(proc())
        sim.run()
        # How wrong is the seeded surrogate about the best known recipe?
        mean, _ = bo.posterior_at(oracle_params)
        truth = land.objective_value(oracle_params)
        return abs(mean - truth)

    err_credulous = seeded_posterior_error(discount=1.0)
    err_skeptical = seeded_posterior_error(discount=1.0 / 1.8)
    assert err_skeptical < err_credulous
