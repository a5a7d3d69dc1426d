"""Exact quantum predictions and Monte Carlo local-hidden-variable
simulations for small bipartite systems."""

from .bell import ChshResult, ChshSettings, chsh_value, correlation_matrix, example_chsh_settings, horodecki_m, optimal_settings
from .filters import (
    FilterOutcome,
    LocalFilter,
    PopescuResult,
    apply_filters,
    hidden_nonlocality_scan,
    hirsch_filters,
    popescu_protocol,
)
from .lhv import (
    HirschModel,
    simulate_barrett,
    simulate_epr_one_bit,
    simulate_gd_w2x2,
    simulate_hirsch_projective,
    simulate_povm_lift,
    simulate_werner,
    simplex_integral_mc,
)
from .mc import JointTable, McEstimate
from .measure import Povm, ProjectiveMeasurement, born_table, obs_from_bloch, povm_refine
from .qmat import flip, hermitian_eig, is_density, partial_trace, partial_transpose, tensor
from .states import (
    DensityMatrix,
    barrett_state,
    flip_witness,
    lift_state,
    rho_e,
    rho_g,
    rho_g_prime,
    singlet,
    twirl,
    werner2x2,
    werner_local,
    werner_phi,
)

__version__ = "0.1.0"
