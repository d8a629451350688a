"""contmon: simulation toolkit for continuously monitored open quantum systems.

Subpackages by concern:

* :mod:`contmon.core_ops` - dense operator algebra, canonical operators, the
  dissipation and measurement superoperators, state validation.
* :mod:`contmon.master_equation` - unconditional Lindblad dynamics, exponential
  propagator, squeezed-thermal baths and coherent driving.
* :mod:`contmon.jump` - photodetection trajectories (SME, SSE, linear, Kraus,
  feedback).
* :mod:`contmon.diffusive` - homodyne/heterodyne trajectories, Kraus-map
  stepping, linear trajectories, homodyne feedback, generalized baths.
* :mod:`contmon.gaussian` - Gaussian moment dynamics, Riccati/Lyapunov steady
  states, LQG and Markovian feedback gains, the OPO benchmark.
* :mod:`contmon.ensemble` - seeded parallel Monte Carlo with deterministic
  reduction.
* :mod:`contmon.config` / :mod:`contmon.presets` / :mod:`contmon.cli` - the
  declarative scenario layer and command-line entry point.
"""

__version__ = "0.1.0"

from .core_ops import (
    build_standard_ops,
    dissipator,
    expectation,
    measurement_superop,
    validate_state,
)
from .master_equation import (
    VACUUM,
    BathSpec,
    OpenSystemModel,
    coherent_drive_hamiltonian,
    generalized_bath_me_rhs,
    integrate_me,
    liouvillian_apply,
    liouvillian_matrix,
    me_expectations,
    steady_state,
)
from .jump import (
    WeightedState,
    jump_probability,
    linear_jump_step,
)
from .diffusive import (
    feedback_me_rhs,
    generalized_bath_homodyne_step,
    heterodyne_sme_step,
    homodyne_feedback_step,
    homodyne_kraus_step,
    homodyne_sme_step,
    lindblad_form_rhs,
    linear_homodyne_step,
    squeezed_vacuum_jump_operator,
)
from .gaussian import (
    GaussianModel,
    GaussianState,
    closed_loop_unconditional,
    conditional_step,
    excess_noise_ss,
    hurwitz_report,
    lqg_gain,
    lyapunov_solve,
    markovian_gain,
    opo_model,
    opo_reference,
    riccati_steady_state,
    unconditional_moment_rhs,
)
from .ensemble import (
    EnsembleSpec,
    EnsembleStats,
    Scenario,
    compare_to_me,
    run_ensemble,
    trajectory_rng,
)
