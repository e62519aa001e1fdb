"""Exact oracles and cost accounting.

Everything here is classical reference machinery: exact ground states (by
Lanczos on the Hamiltonian's operator, or a dense diagonalization on small
registers), exact imaginary-time propagation and thermal averages (dense),
entanglement diagnostics, and closed-form measurement-count estimates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DimensionError, NumericalError, ResourceError
from .hamiltonians import Hamiltonian, to_dense
from .pauli import odd_y_count
from .statevector import MAX_DENSE_QUBITS, PauliOperator, StateVector, reduced_density_matrix

# The ground oracle runs Lanczos on H's operator from 2^n = _LANCZOS_MIN_DIM
# amplitudes on, and a dense eigh below: for the whole ground space (one BLAS
# thread, medians of 15) the dense eigh took 1.9-2.4 against 5.9-7.6 ms at
# n = 7, 8.2-10.7 against 7.5-10.5 ms at n = 8 and 48 against 15-16 ms at
# n = 9 on Heisenberg chains, and 2.1-3.1 against 8.8-10.2 ms, 8.6-8.9
# against 12.8-15.6 ms and 54-60 against 18-21 ms on TFI chains (h = J = 1)
_LANCZOS_MIN_DIM = 512
# a Lanczos basis holds at most this many vectors before it restarts from its
# Ritz vector, and lanczos_ground at most this many ground vectors; every
# _LANCZOS_CHECK vectors a basis tests whether its lowest Ritz pair has
# converged: a residual norm below _LANCZOS_TOL times the largest Ritz value
# magnitude
_LANCZOS_MAX_BASIS = 200
_LANCZOS_CHECK = 5
_LANCZOS_TOL = 1e-12
# peak bytes of a dense diagonalization, in units of its matrix
_DENSE_MATRICES = 5


def _times(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector, without casting a real matrix to complex."""
    if np.iscomplexobj(matrix) or not np.iscomplexobj(vector):
        return matrix @ vector
    pairs = np.ascontiguousarray(vector).view(np.float64).reshape(-1, 2)
    return np.ascontiguousarray(matrix @ pairs).view(complex).reshape(-1)


def _overlaps(columns: np.ndarray, state: StateVector) -> np.ndarray:
    """<v_k|psi> for every column v_k of ``columns``."""
    adjoint = columns.conj().T if np.iscomplexobj(columns) else columns.T
    return _times(adjoint, state.amplitudes)


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

    def coefficients(self, state: StateVector) -> np.ndarray:
        """<v_k|psi> for every eigenvector."""
        return _overlaps(self.evecs, state)

    def ground(self, degeneracy_tol: float) -> "GroundSpace":
        """E0 and the eigenvectors within ``degeneracy_tol`` of it."""
        n_ground = int(np.count_nonzero(self.evals <= self.evals[0] + degeneracy_tol))
        return GroundSpace(float(self.evals[0]), self.evecs[:, :n_ground], "dense")

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


def check_dense(hamiltonian: Hamiltonian) -> None:
    """Refuse, before allocating anything, a dense diagonalization wider than
    MAX_DENSE_QUBITS, stating the bytes it would need."""
    n = hamiltonian.n_qubits
    if n > MAX_DENSE_QUBITS:
        odd_y = any(s.y_count % 2 for t in hamiltonian.terms for _, s in t.pauli_sum)
        # the matrix, eigh's copies of it (the eigenvectors among them) and its
        # workspace: a real H peaked at 4.8 matrices on 12 and 13 qubits
        need = _DENSE_MATRICES * 4**n * (16 if odd_y else 8)
        raise ResourceError(
            f"a dense diagonalization of H on {n} qubits needs about {need / 1e9:.3g} GB "
            f"(matrix, eigenvectors and eigh workspace); the dense ceiling is "
            f"{MAX_DENSE_QUBITS} qubits"
        )


def spectral(hamiltonian: Hamiltonian) -> SpectralDecomposition:
    """Full diagonalization of H, in float64 when its matrix has no imaginary part."""
    check_dense(hamiltonian)
    evals, evecs = np.linalg.eigh(to_dense(hamiltonian))
    return SpectralDecomposition(evals, evecs)


@dataclass
class GroundSpace:
    """E0 (offset included) and an orthonormal basis of the eigenvectors of H
    within the degeneracy tolerance of it.

    ``basis`` holds the vectors as columns, or a diagonal H's ground
    basis-state indices.  ``route`` is "dense", "lanczos" or "diagonal",
    and ``matvecs`` counts the products with H that Lanczos made.
    """

    e0: float
    basis: np.ndarray
    route: str
    matvecs: int = 0

    @property
    def dim(self) -> int:
        return self.basis.size if self.basis.ndim == 1 else self.basis.shape[1]

    def fidelity(self, state: StateVector) -> float:
        """Mass of ``state`` in the ground space."""
        if self.basis.ndim == 1:
            return float(np.sum(np.abs(state.amplitudes[self.basis]) ** 2))
        return float(np.sum(np.abs(_overlaps(self.basis, state)) ** 2))


def ground_space(hamiltonian: Hamiltonian, degeneracy_tol: float = 1e-10) -> GroundSpace:
    """E0 and the ground space of H, by its cheapest exact route.

    A diagonal H reads both off its diagonal; below 2^n = _LANCZOS_MIN_DIM
    they come from ``spectral``, from there on from ``lanczos_ground``.
    """
    operator = hamiltonian.operator
    if operator.is_diagonal:
        diagonal = operator.diagonal()
        e0 = float(diagonal.min())
        return GroundSpace(e0, np.flatnonzero(diagonal <= e0 + degeneracy_tol), "diagonal")
    if 2**hamiltonian.n_qubits < _LANCZOS_MIN_DIM:
        return spectral(hamiltonian).ground(degeneracy_tol)
    return lanczos_ground(operator, degeneracy_tol)


def lanczos_ground(operator: PauliOperator, degeneracy_tol: float) -> GroundSpace:
    """E0 and the ground space of ``operator`` by Lanczos with explicit deflation.

    Each run finds the lowest Ritz pair orthogonal to the ground vectors
    found so far; the runs stop when its value exceeds E0 +
    ``degeneracy_tol``.  Each run starts from a fresh vector of the stdlib
    ``random.Random(0)``, so the result is reproducible and no caller's
    random state is drawn from.  A ground space that reaches
    _LANCZOS_MAX_BASIS vectors is refused with a ResourceError.
    """
    dim = 2**operator.n_qubits
    real = not np.iscomplexobj(operator.diagonals)
    starts = random.Random(0)
    found = np.empty((0, dim), float if real else complex)  # ground vectors as rows
    values, matvecs = [], 0
    while len(found) < dim:
        if len(found) == _LANCZOS_MAX_BASIS:
            raise ResourceError(
                f"the ground space of H on {operator.n_qubits} qubits has at least "
                f"{len(found)} dimensions; the Lanczos ground oracle stores at most "
                f"{_LANCZOS_MAX_BASIS} ground vectors"
            )
        start = _uniform(starts, dim)
        if not real:
            start = start + 1j * _uniform(starts, dim)
        theta, vector, used = _lowest_ritz(operator.apply, start, found)
        matvecs += used
        if values and theta > min(values) + degeneracy_tol:
            break
        values.append(theta)
        found = np.concatenate((found, vector[None]))
    return GroundSpace(operator.offset + min(values), found.T, "lanczos", matvecs)


def _uniform(source: random.Random, size: int) -> np.ndarray:
    """``size`` values uniform in [-1, 1), from the top 53 bits of 64-bit
    words of ``source``."""
    words = np.frombuffer(source.randbytes(8 * size), np.uint64)
    return (words >> 11) * 2.0**-52 - 1.0


def _project_out(vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``vector`` less its components along the orthonormal ``rows``: one
    classical Gram-Schmidt pass, and a second where the first cancelled more
    than 1 - 1/sqrt(2) of its norm (Daniel, Gragg, Kaufman and Stewart,
    Math. Comp. 30 (1976) 772), so it stays orthogonal to them to roundoff."""
    norm = np.linalg.norm(vector)
    for _ in range(2):
        vector = vector - np.conj(rows @ np.conj(vector)) @ rows
        projected = np.linalg.norm(vector)
        if projected > norm / math.sqrt(2.0):
            break
        norm = projected
    return vector


def _lowest_ritz(apply, start: np.ndarray, locked: np.ndarray):
    """(theta, y, matvecs): the lowest eigenpair of H - offset (``apply``) on
    the orthogonal complement of the rows of ``locked``.

    Lanczos from ``start`` with full reorthogonalization, until the Ritz
    residual falls below _LANCZOS_TOL times the largest Ritz value magnitude
    or the Krylov space closes; a full basis restarts from its Ritz vector.
    """
    dim, n_locked = start.size, len(locked)
    size = min(_LANCZOS_MAX_BASIS, dim - n_locked)
    basis = np.empty((n_locked + size, dim), locked.dtype)
    basis[:n_locked] = locked  # rows every Lanczos vector is orthogonal to
    krylov = basis[n_locked:]
    matvecs = 0
    while True:
        alphas, betas = np.zeros(size), np.zeros(size)
        vector = _project_out(start, locked)
        vector = vector / np.linalg.norm(vector)
        for j in range(size):
            krylov[j] = vector
            w = apply(vector)
            matvecs += 1
            # |H v| bounds the largest Ritz magnitude from below, so a beta
            # below _LANCZOS_TOL times it (a closed Krylov space) has converged
            small = _LANCZOS_TOL * np.linalg.norm(w)
            alphas[j] = np.vdot(vector, w).real
            w -= alphas[j] * vector
            if j:
                w -= betas[j - 1] * krylov[j - 1]
            w = _project_out(w, basis[: n_locked + j + 1])
            betas[j] = np.linalg.norm(w)
            closed = j + 1 == dim - n_locked or betas[j] <= small
            if closed or j + 1 == size or j % _LANCZOS_CHECK == _LANCZOS_CHECK - 1:
                tri = np.diag(alphas[: j + 1]) + np.diag(betas[:j], 1) + np.diag(betas[:j], -1)
                evals, evecs = np.linalg.eigh(tri)
                scale = max(abs(evals[0]), abs(evals[-1]))
                if closed or betas[j] * abs(evecs[j, 0]) <= _LANCZOS_TOL * scale:
                    ritz = evecs[:, 0] @ krylov[: j + 1]
                    return float(evals[0]), ritz / np.linalg.norm(ritz), matvecs
            vector = w / betas[j]
        start = evecs[:, 0] @ krylov


def exact_ground(hamiltonian: Hamiltonian) -> Tuple[float, StateVector]:
    """Lowest eigenvalue and one minimizing eigenvector."""
    ground = ground_space(hamiltonian)
    if ground.basis.ndim == 1:  # a diagonal H: the first ground basis state
        vec = np.zeros(2**hamiltonian.n_qubits)
        vec[ground.basis[0]] = 1.0
    else:
        vec = ground.basis[:, 0]
    return ground.e0, StateVector(vec / np.linalg.norm(vec), hamiltonian.n_qubits)


def ground_space_fidelity(
    state: StateVector, hamiltonian: Hamiltonian, degeneracy_tol: float = 1e-10
) -> float:
    """Probability mass of ``state`` inside the (possibly degenerate) ground space."""
    return ground_space(hamiltonian, degeneracy_tol).fidelity(state)


def exact_ite(state0: StateVector, hamiltonian: Hamiltonian, beta: float) -> StateVector:
    """Normalized e^{-beta H} |psi0> by spectral decomposition."""
    return spectral(hamiltonian).ite(state0, beta)


def exact_ite_energy(state0: StateVector, hamiltonian: Hamiltonian, beta: float) -> float:
    return spectral(hamiltonian).ite_energy(state0, beta)


def exact_ite_squared_norm(state0: StateVector, hamiltonian: Hamiltonian, beta: float) -> float:
    """|| e^{-beta H} |psi0> ||^2 without eigenvalue shifting (may be huge)."""
    return spectral(hamiltonian).ite_squared_norm(state0, beta)


def gibbs_average(
    hamiltonian: Hamiltonian, beta: float, observable: Optional[Hamiltonian] = None
) -> float:
    """Tr[O e^{-beta H}] / Tr[e^{-beta H}] with O defaulting to H itself."""
    if observable is not None and observable.n_qubits != hamiltonian.n_qubits:
        raise DimensionError("observable width differs from Hamiltonian")
    dec = spectral(hamiltonian)  # refuses a wide H before O is densified
    return dec.gibbs(beta, None if observable is None else to_dense(observable))


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
