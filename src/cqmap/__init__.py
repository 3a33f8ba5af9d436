"""cqmap: mapping Ising master-equation dynamics onto stoquastic Hamiltonians
and back, with spectral-gap and annealing tooling on top."""

from .anneal import (
    AnnealResult,
    ComparisonReport,
    Schedule,
    compare_runs,
    make_schedule,
    run_qa,
    run_sa,
)
from .dynamics import (
    DynamicsReport,
    GeneratorMatrix,
    GeneratorProvider,
    Trajectory,
    build_generator,
    constant_provider,
    integrate_master,
    relaxation_time,
    verify_dynamics,
)
from .errors import (
    ConvergenceError,
    CqmapError,
    DegenerateGroundStateError,
    IllConditionedLogError,
    IntegrationError,
    MappingPreconditionError,
    NonStoquasticError,
    NumericalError,
    ReducibleOperatorError,
    ResourceLimitError,
    ValidationError,
)
from .mapping import (
    GroundState,
    QtoCResult,
    QuantumHamiltonian,
    RoundTripReport,
    classical_to_quantum,
    ground_state,
    heat_bath_chain_closed_form,
    quantum_to_classical,
    roundtrip_check,
    transverse_field_hamiltonian,
)
from .model import (
    ClassicalHamiltonian,
    InteractionProfile,
    ProbabilityVector,
    build_model,
    chain,
    energy_table,
    gibbs_distribution,
    grid,
    interaction_profile,
    load_model,
    walsh_transform,
)
from .spectral import (
    ScalingFit,
    SpectrumResult,
    SweepRow,
    dense_spectrum,
    extreme_eigenpairs,
    fit_scaling,
    gap_scaling_sweep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
