"""Numerical toolkit for disturbed dynamical systems, Lyapunov function
verification and converse Lyapunov constructions.

The package simulates abstract disturbed systems, runs executable checks of
the defining system axioms, empirically classifies stability notions
(forward completeness, robustness of the equilibrium, attractivity, UGAS),
verifies coercive and non-coercive Lyapunov candidates along trajectories,
and assembles converse Lyapunov functions of max and integral type.
"""

from .comparison import (
    KLSurface,
    SontagFitError,
    TabulatedMonotone,
    gk_threshold,
    identity_table,
    kl_from_alpha,
    lipschitz_minorant,
    power_table,
    sontag_factorize,
)
from .systems import (
    AxiomReport,
    DisturbanceSet,
    DisturbanceSignal,
    EscapeError,
    HomogeneityReport,
    LipschitzHint,
    SystemModel,
    Trajectory,
    check_axioms,
    check_homogeneity,
    flow,
    flow_batch,
)
from .models import (
    BlockOperatorModel,
    SwitchedLinearModel,
    blowup_construction,
    build_blowup_example,
    build_l2_block_model,
    build_linear,
    build_scalar_example,
    build_switched_linear,
    build_ugatt_example,
    evolve,
    model_from_descriptor,
)
from .lyapunov import (
    DecayReport,
    LyapunovCandidate,
    coercivity_profile,
    dini_derivative,
    verify_decay,
    verify_integral_bound,
)
from .probes import (
    ProbeReport,
    classify_rep,
    classify_rfc,
    decompose_sigma_chi,
    estimate_mu,
    estimate_switched_bound,
    probe_attractivity,
)
from .converse import (
    ConstructedLyapunov,
    ConverseConfig,
    assemble_w,
    construct_vk_integral,
    construct_vk_max,
    estimate_flow_lipschitz,
)
from .cli import ExperimentConfig, run

__version__ = "0.1.0"
