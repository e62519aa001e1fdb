"""Statevector emulation and analysis tools for imaginary-time quantum algorithms."""

from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    NumericalError,
    PoolError,
    QitekitError,
    ResourceError,
)
from .pauli import (
    OperatorPool,
    PauliString,
    PhasedPauli,
    commutes,
    enumerate_pool,
    multiply,
    odd_y_count,
)
from .statevector import (
    StateVector,
    apply_pauli,
    apply_pauli_sum,
    apply_term_exp,
    expectation,
    expectation_sum,
    fidelity,
    from_amplitudes,
    inner_product,
    measure_collapse,
    neel_state,
    plus_state,
    product_state,
    reduced_density_matrix,
    singlet_dimer_state,
    zero_state,
)
from .hamiltonians import (
    Hamiltonian,
    LocalTerm,
    energy,
    h2_bk,
    h2_from_table,
    heisenberg_1d,
    heisenberg_long_range,
    hubbard_1d_jw,
    load_h2_table,
    maxcut,
    maxcut_six_vertex_instance,
    one_qubit_field,
    tfi_1d,
    to_dense,
)
from .analysis import (
    CostQuery,
    VQE_REFERENCE_COUNTS,
    cut_values,
    exact_ground,
    exact_ite,
    exact_ite_energy,
    exact_ite_squared_norm,
    gibbs_average,
    ground_space,
    ground_space_fidelity,
    maxcut_success,
    mutual_information,
    qite_measurement_count,
    spectral,
)
from .qite import (
    QiteConfig,
    StepRecord,
    Trajectory,
    build_linear_system,
    choose_domain,
    qite_evolve,
    qite_step,
    solve_step,
)
from .qlanczos import (
    KrylovLedger,
    QLanczosResult,
    build_matrices,
    ledger_from_trajectory,
    overlap_from_norms,
    perturb_ledger,
    qlanczos_run,
    solve_gevp,
    stabilize,
)
from .qmetts import (
    MettsConfig,
    MettsResult,
    MettsSample,
    block_error,
    metts_chain,
)

__version__ = "0.1.0"
