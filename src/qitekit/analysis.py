"""Dense exact-diagonalization oracles and cost accounting.

Everything here is classical reference machinery: exact ground states,
exact imaginary-time propagation, thermal averages, entanglement
diagnostics, and closed-form measurement-count estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, NumericalError
from .hamiltonians import Hamiltonian, to_dense
from .pauli import odd_y_count
from .statevector import StateVector, reduced_density_matrix

DENSE_LIMIT = 14


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending, offset included) and eigenvector columns."""

    evals: np.ndarray
    evecs: np.ndarray


def spectral(hamiltonian: Hamiltonian, max_qubits: int = DENSE_LIMIT) -> SpectralDecomposition:
    mat = to_dense(hamiltonian, max_qubits=max_qubits)
    evals, evecs = np.linalg.eigh(mat)
    return SpectralDecomposition(evals, evecs)


def exact_ground(
    hamiltonian: Hamiltonian, max_qubits: int = DENSE_LIMIT
) -> Tuple[float, StateVector]:
    """Lowest eigenvalue and one minimizing eigenvector."""
    dec = spectral(hamiltonian, max_qubits=max_qubits)
    vec = dec.evecs[:, 0]
    return float(dec.evals[0]), StateVector(vec / np.linalg.norm(vec), hamiltonian.n_qubits)


def ground_space_fidelity(
    state: StateVector,
    hamiltonian: Hamiltonian,
    degeneracy_tol: float = 1e-10,
    max_qubits: int = DENSE_LIMIT,
) -> float:
    """Probability mass of ``state`` inside the (possibly degenerate) ground space."""
    dec = spectral(hamiltonian, max_qubits=max_qubits)
    mask = dec.evals <= dec.evals[0] + degeneracy_tol
    overlaps = dec.evecs[:, mask].conj().T @ state.amplitudes
    return float(np.sum(np.abs(overlaps) ** 2))


def exact_ite(
    state0: StateVector,
    hamiltonian: Hamiltonian,
    beta: float,
    max_qubits: int = DENSE_LIMIT,
) -> StateVector:
    """Normalized e^{-beta H} |psi0> by spectral decomposition.

    Weights are shifted by the minimum eigenvalue before exponentiation so
    large beta stays finite.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    dec = spectral(hamiltonian, max_qubits=max_qubits)
    coeffs = dec.evecs.conj().T @ state0.amplitudes
    coeffs = coeffs * np.exp(-beta * (dec.evals - dec.evals[0]))
    norm = np.linalg.norm(coeffs)
    if norm == 0 or not np.isfinite(norm):
        raise NumericalError("imaginary-time weights vanished or overflowed")
    amps = dec.evecs @ (coeffs / norm)
    return StateVector(amps, state0.n_qubits)


def exact_ite_energy(
    state0: StateVector, hamiltonian: Hamiltonian, beta: float, max_qubits: int = DENSE_LIMIT
) -> float:
    dec = spectral(hamiltonian, max_qubits=max_qubits)
    coeffs = dec.evecs.conj().T @ state0.amplitudes
    weights = np.abs(coeffs) ** 2 * np.exp(-2.0 * beta * (dec.evals - dec.evals[0]))
    total = weights.sum()
    if total == 0 or not np.isfinite(total):
        raise NumericalError("imaginary-time weights vanished or overflowed")
    return float((weights @ dec.evals) / total)


def exact_ite_squared_norm(
    state0: StateVector, hamiltonian: Hamiltonian, beta: float, max_qubits: int = DENSE_LIMIT
) -> float:
    """|| e^{-beta H} |psi0> ||^2 without eigenvalue shifting (may be huge)."""
    dec = spectral(hamiltonian, max_qubits=max_qubits)
    coeffs = dec.evecs.conj().T @ state0.amplitudes
    return float(np.sum(np.abs(coeffs) ** 2 * np.exp(-2.0 * beta * dec.evals)))


def gibbs_average(
    hamiltonian: Hamiltonian,
    beta: float,
    observable: Optional[Hamiltonian] = None,
    max_qubits: int = DENSE_LIMIT,
) -> float:
    """Tr[O e^{-beta H}] / Tr[e^{-beta H}] with O defaulting to H itself."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    dec = spectral(hamiltonian, max_qubits=max_qubits)
    weights = np.exp(-beta * (dec.evals - dec.evals[0]))
    z = weights.sum()
    if observable is None:
        return float((weights @ dec.evals) / z)
    if observable.n_qubits != hamiltonian.n_qubits:
        raise DimensionError("observable width differs from Hamiltonian")
    obs = to_dense(observable, max_qubits=max_qubits)
    diag = np.einsum("ik,ij,jk->k", dec.evecs.conj(), obs, dec.evecs).real
    return float((weights @ diag) / z)


# ---------------------------------------------------------------------------
# entanglement diagnostics


def _entropy(rho: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho)
    evals = np.clip(evals.real, 0.0, 1.0)
    nonzero = evals[evals > 1e-15]
    return float(-(nonzero * np.log(nonzero)).sum())


def mutual_information(state: StateVector, i: int, j: int) -> float:
    """I(i:j) = S(i) + S(j) - S(ij) with natural-log entropies."""
    if i == j:
        raise DimensionError("mutual information needs two distinct qubits")
    lo, hi = min(i, j), max(i, j)
    s_i = _entropy(reduced_density_matrix(state, (lo,)).matrix)
    s_j = _entropy(reduced_density_matrix(state, (hi,)).matrix)
    s_ij = _entropy(reduced_density_matrix(state, (lo, hi)).matrix)
    return s_i + s_j - s_ij


# ---------------------------------------------------------------------------
# cut statistics


def cut_values(hamiltonian: Hamiltonian) -> np.ndarray:
    """Cut size of every basis string for a maxcut Hamiltonian."""
    edges = hamiltonian.metadata.get("edges")
    if edges is None:
        raise DimensionError("Hamiltonian carries no edge metadata")
    n = hamiltonian.n_qubits
    idx = np.arange(2**n)
    cuts = np.zeros(2**n, dtype=np.int64)
    for i, j in edges:
        cuts += ((idx >> i) & 1) ^ ((idx >> j) & 1)
    return cuts


def maxcut_success(
    state: StateVector, hamiltonian: Hamiltonian, c_max: Optional[int] = None
) -> float:
    """Probability that a Z-basis sample of ``state`` realizes an optimal cut."""
    cuts = cut_values(hamiltonian)
    target = int(cuts.max()) if c_max is None else int(c_max)
    probs = np.abs(state.amplitudes) ** 2
    return float(probs[cuts == target].sum())


# ---------------------------------------------------------------------------
# measurement-cost accounting


@dataclass(frozen=True)
class CostQuery:
    """Inputs of the closed-form tomography cost for one propagation run.

    n_terms: number of Hamiltonian terms K per sweep.
    n_time_steps: number of sweeps T.
    domain_size: qubits D per reconstruction domain.
    odd_y_only: count only odd-Y pool strings instead of all 4^D.
    """

    n_terms: int
    n_time_steps: int
    domain_size: int
    odd_y_only: bool = False


def qite_measurement_count(query: CostQuery) -> int:
    """Distinct-operator measurement count (2K-1) * T * pool_size.

    A second-order sweep touches 2K-1 term instances per time step and each
    reconstruction needs one expectation per pool string.
    """
    if query.n_terms < 1 or query.n_time_steps < 1:
        raise ValueError("n_terms and n_time_steps must be positive")
    return (2 * query.n_terms - 1) * query.n_time_steps * _pool_size(query)


def _pool_size(query: CostQuery) -> int:
    """Pool strings per reconstruction: odd-Y count or all 4^D."""
    return odd_y_count(query.domain_size) if query.odd_y_only else 4**query.domain_size


#: Published reference totals for variational-eigensolver baselines, used in
#: report tables only (model family, sites) -> measurement count.
VQE_REFERENCE_COUNTS: Dict[Tuple[str, int], int] = {
    ("heisenberg_field", 4): 25600,
    ("heisenberg_field", 6): 403200,
    ("tfi", 4): 12800,
    ("tfi", 6): 69360,
}
