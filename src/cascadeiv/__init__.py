"""Multi-treatment IV with slot-expansion policy effects for rationed systems.

The package has four working layers plus a CLI:

- ``estimator``: first stage, reduced form, just-identified 2SLS, Wald
  ratios, cluster-robust and cluster-bootstrap inference.
- ``cascade``: the slot-expansion algebra — direct solves, the round-by-
  round series, spectral gating, decompositions, heterogeneity, and block
  aggregation.
- ``mechanism``/``market``: a ranked-queue admission simulator with lottery
  tie-breaking plus a fixed-supply market variant, both with brute-force
  supply-expansion oracles that the 2SLS coefficients can be checked
  against.
- ``synth``: synthetic population generation with controllable
  substitution and heterogeneity.
"""

from .data import Dataset
from .estimator import (
    BootstrapResult,
    EstimateSet,
    FirstStage,
    cluster_bootstrap,
    cluster_robust_se,
    estimate_all,
    fit_2sls,
    fit_first_stage,
    fit_reduced_form,
    wald_ratios,
)
from .cascade import (
    BlockSpec,
    CascadeSolution,
    VacancyMatrix,
    block_weights,
    cascade_decomposition,
    cascade_solve,
    conditional_entrant_by_group,
    conditional_entrant_effect,
    group_outcome_decomposition,
    neumann_solve,
    spectral_radius,
    three_program_beta2,
)
from .mechanism import (
    AllocationResult,
    MechanismConfig,
    OracleResult,
    Population,
    balance_check,
    luck_variable,
    run_clearing,
    simulate_and_oracles,
    simulate_run,
    slot_expansion_oracle,
    slot_expansion_oracles,
)
from .market import MarketConfig, market_oracle
from .synth import SynthConfig, generate_population, scenario_three_program
from .fixtures import fixture_checks

__version__ = "0.1.0"
