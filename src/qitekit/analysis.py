"""Dense exact-diagonalization oracles and cost accounting.

Everything here is classical reference machinery: exact ground states,
exact imaginary-time propagation, thermal averages, entanglement
diagnostics, and closed-form measurement-count estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DimensionError, NumericalError
from .hamiltonians import Hamiltonian, to_dense
from .pauli import odd_y_count
from .statevector import DEFAULT_MAX_QUBITS, StateVector, reduced_density_matrix


def _times(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector, without casting a real matrix to complex."""
    if np.iscomplexobj(matrix) or not np.iscomplexobj(vector):
        return matrix @ vector
    pairs = np.ascontiguousarray(vector).view(np.float64).reshape(-1, 2)
    return np.ascontiguousarray(matrix @ pairs).view(complex).reshape(-1)


def _checked(total: float) -> float:
    if total == 0 or not np.isfinite(total):
        raise NumericalError("imaginary-time weights vanished or overflowed")
    return total


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending, offset included) and eigenvector columns.

    ``evecs`` is float64 when the Hamiltonian's matrix is real (every string
    has an even number of Y letters), complex otherwise.
    """

    evals: np.ndarray
    evecs: np.ndarray

    def coefficients(self, state: StateVector, n_columns: Optional[int] = None) -> np.ndarray:
        """<v_k|psi> for the first ``n_columns`` eigenvectors (all by default)."""
        basis = self.evecs[:, :n_columns]
        basis = basis.conj().T if np.iscomplexobj(basis) else basis.T
        return _times(basis, state.amplitudes)

    def ground_fidelity(self, state: StateVector, degeneracy_tol: float) -> float:
        """Mass of ``state`` on the eigenvectors within ``degeneracy_tol`` of E0."""
        n_ground = int(np.count_nonzero(self.evals <= self.evals[0] + degeneracy_tol))
        return float(np.sum(np.abs(self.coefficients(state, n_ground)) ** 2))

    def _shifted(self, beta: float) -> np.ndarray:
        """e^{-beta (E_k - E0)}: shifted by E0 so large beta stays finite."""
        return np.exp(-beta * (self.evals - self.evals[0]))

    def ite(self, state0: StateVector, beta: float) -> StateVector:
        """Normalized e^{-beta H} |psi0>."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        coeffs = self.coefficients(state0) * self._shifted(beta)
        norm = _checked(np.linalg.norm(coeffs))
        return StateVector(_times(self.evecs, coeffs / norm), state0.n_qubits)

    def ite_energy(self, state0: StateVector, beta: float) -> float:
        """Energy of the normalized e^{-beta H} |psi0>."""
        weights = np.abs(self.coefficients(state0)) ** 2 * self._shifted(2.0 * beta)
        return float((weights @ self.evals) / _checked(weights.sum()))

    def ite_squared_norm(self, state0: StateVector, beta: float) -> float:
        """|| e^{-beta H} |psi0> ||^2 without eigenvalue shifting (may be huge)."""
        weights = np.exp(-2.0 * beta * self.evals)
        return float(np.sum(np.abs(self.coefficients(state0)) ** 2 * weights))

    def gibbs(self, beta: float, observable: Optional[np.ndarray] = None) -> float:
        """Tr[O e^{-beta H}] / Tr[e^{-beta H}] for a dense O, defaulting to H itself."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        weights = self._shifted(beta)
        if observable is None:
            return float((weights @ self.evals) / weights.sum())
        diag = np.einsum("ik,ij,jk->k", self.evecs.conj(), observable, self.evecs).real
        return float((weights @ diag) / weights.sum())


def spectral(
    hamiltonian: Hamiltonian, max_qubits: int = DEFAULT_MAX_QUBITS
) -> SpectralDecomposition:
    """Full diagonalization of H, in float64 when its matrix has no imaginary part."""
    mat = to_dense(hamiltonian, max_qubits=max_qubits)
    if not mat.imag.any():
        mat = mat.real.copy()  # drops the complex matrix before eigh
    evals, evecs = np.linalg.eigh(mat)
    return SpectralDecomposition(evals, evecs)


def exact_ground(
    hamiltonian: Hamiltonian, max_qubits: int = DEFAULT_MAX_QUBITS
) -> Tuple[float, StateVector]:
    """Lowest eigenvalue and one minimizing eigenvector."""
    dec = spectral(hamiltonian, max_qubits=max_qubits)
    vec = dec.evecs[:, 0]
    return float(dec.evals[0]), StateVector(vec / np.linalg.norm(vec), hamiltonian.n_qubits)


def ground_space_fidelity(
    state: StateVector, hamiltonian: Hamiltonian, degeneracy_tol: float = 1e-10,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> float:
    """Probability mass of ``state`` inside the (possibly degenerate) ground space."""
    return spectral(hamiltonian, max_qubits).ground_fidelity(state, degeneracy_tol)


def exact_ite(
    state0: StateVector, hamiltonian: Hamiltonian, beta: float, max_qubits: int = DEFAULT_MAX_QUBITS
) -> StateVector:
    """Normalized e^{-beta H} |psi0> by spectral decomposition."""
    return spectral(hamiltonian, max_qubits).ite(state0, beta)


def exact_ite_energy(
    state0: StateVector, hamiltonian: Hamiltonian, beta: float, max_qubits: int = DEFAULT_MAX_QUBITS
) -> float:
    return spectral(hamiltonian, max_qubits).ite_energy(state0, beta)


def exact_ite_squared_norm(
    state0: StateVector, hamiltonian: Hamiltonian, beta: float, max_qubits: int = DEFAULT_MAX_QUBITS
) -> float:
    """|| e^{-beta H} |psi0> ||^2 without eigenvalue shifting (may be huge)."""
    return spectral(hamiltonian, max_qubits).ite_squared_norm(state0, beta)


def gibbs_average(
    hamiltonian: Hamiltonian, beta: float, observable: Optional[Hamiltonian] = None,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> float:
    """Tr[O e^{-beta H}] / Tr[e^{-beta H}] with O defaulting to H itself."""
    if observable is not None and observable.n_qubits != hamiltonian.n_qubits:
        raise DimensionError("observable width differs from Hamiltonian")
    obs = None if observable is None else to_dense(observable, max_qubits=max_qubits)
    return spectral(hamiltonian, max_qubits).gibbs(beta, obs)


# ---------------------------------------------------------------------------
# entanglement diagnostics


def _entropy(rho: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho)
    evals = np.clip(evals.real, 0.0, 1.0)
    nonzero = evals[evals > 1e-15]
    return float(-(nonzero * np.log(nonzero)).sum())


def mutual_information(state: StateVector, i: int, j: int) -> float:
    """I(i:j) = S(i) + S(j) - S(ij) with natural-log entropies."""
    return _mutual_information_pairs(state, [(i, j)])[0]


def _mutual_information_pairs(state: StateVector, pairs) -> List[float]:
    """I(i:j) for each pair, computing each one-site entropy once."""
    if any(i == j for i, j in pairs):
        raise DimensionError("mutual information needs two distinct qubits")
    qubits = sorted({q for pair in pairs for q in pair})
    single = {q: _entropy(reduced_density_matrix(state, (q,)).matrix) for q in qubits}
    out = []
    for i, j in pairs:
        lo, hi = min(i, j), max(i, j)
        s_ij = _entropy(reduced_density_matrix(state, (lo, hi)).matrix)
        out.append(single[lo] + single[hi] - s_ij)
    return out


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
    if min(query.n_terms, query.n_time_steps, query.domain_size) < 1:
        raise ValueError("n_terms, n_time_steps and domain_size must be positive")
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
