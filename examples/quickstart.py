#!/usr/bin/env python
"""Quickstart: one autonomous laboratory running a closed-loop campaign.

Builds a single AISLE lab site (fluidic reactor + PL spectrometer behind a
vendor protocol and the HAL, digital twin, LLM-orchestrated planner with
Bayesian optimization, verification stack) and runs a quantum-dot
discovery campaign, then prints what happened.

Run:  python examples/quickstart.py
"""

from repro import Testbed
from repro.core import CampaignSpec
from repro.labsci import QuantumDotLandscape


def main() -> None:
    # The testbed builder wires the whole stack; one lab is enough here.
    built = (Testbed(seed=42)
             .site("site-0")
             .with_landscape(QuantumDotLandscape(seed=7))
             .with_instruments(vendor="kelvin-sci")  # dialect hidden by HAL
             .with_planner(mode="hierarchical")   # LLM orchestrates, BO asks
             .with_verification()
             .build())
    lab = built.lab("site-0")

    spec = CampaignSpec(name="qd-quickstart", objective_key="plqy",
                        max_experiments=60)
    result = built.run(spec, site="site-0")

    print("=== campaign summary ===")
    for key, value in result.report().summary().items():
        print(f"  {key:>16}: {value}")
    print(f"\nbest recipe found (PLQY={result.best_value:.3f}):")
    for name, value in sorted(result.best_params.items()):
        print(f"  {name:>16}: {value if isinstance(value, str) else round(value, 3)}")
    hours = result.duration / 3600.0
    print(f"\n{result.n_experiments} experiments in {hours:.2f} simulated "
          f"hours ({result.n_experiments / hours:.1f} experiments/hour)")
    print(f"reagent consumed: {lab.synthesis.reagent_used_mL:.1f} mL")
    best_traj = result.best_trajectory()
    print(f"best-so-far trajectory (every 10th): "
          f"{[round(v, 3) for v in best_traj[::10]]}")


if __name__ == "__main__":
    main()
