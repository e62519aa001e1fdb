"""Exact oracles for the benchmark's correctness checks, independent of qitekit.

The Hamiltonians are rebuilt here from their model parameters with bit
operations on real matrices, so the program's outputs are checked against a
second implementation rather than against its own oracles.  Qubit 0 is the
least significant bit of a basis index, as in qitekit.
"""

from __future__ import annotations

import numpy as np


def heisenberg_1d(n: int, coupling: float = 1.0) -> np.ndarray:
    """coupling * sum_i S_i . S_{i+1} on an open chain, S = sigma / 2."""
    idx = np.arange(2**n)
    mat = np.zeros((2**n, 2**n))
    for i in range(n - 1):
        same = ((idx >> i) & 1) == ((idx >> (i + 1)) & 1)
        mat[idx, idx] += np.where(same, coupling / 4, -coupling / 4)
        # XX + YY swaps antiparallel neighbours with amplitude 2
        flipped = idx[~same] ^ (3 << i)
        mat[flipped, idx[~same]] += coupling / 2
    return mat


def tfi_1d(n: int, coupling: float, field: float) -> np.ndarray:
    """coupling * sum_i Z_i Z_{i+1} + field * sum_i X_i on an open chain."""
    idx = np.arange(2**n)
    spins = 1 - 2 * ((idx[:, None] >> np.arange(n)) & 1)
    mat = np.diag(coupling * np.sum(spins[:, :-1] * spins[:, 1:], axis=1)).astype(float)
    for i in range(n):
        mat[idx ^ (1 << i), idx] += field
    return mat


def basis_state(bits: str) -> np.ndarray:
    """Computational basis state of a 0/1 label, qubit 0 first."""
    vec = np.zeros(2 ** len(bits))
    vec[sum(int(b) << q for q, b in enumerate(bits))] = 1.0
    return vec


class Spectrum:
    """Full eigendecomposition of one dense real-symmetric Hamiltonian."""

    def __init__(self, mat: np.ndarray):
        self.evals, self.evecs = np.linalg.eigh(mat)
        self.e0 = float(self.evals[0])

    def ite_energy(self, psi0: np.ndarray, beta: float) -> float:
        """<H> in the normalized state e^{-beta H} psi0."""
        weights = (self.evecs.T @ psi0) ** 2 * np.exp(-2 * beta * (self.evals - self.e0))
        return float(weights @ self.evals / weights.sum())

    def ite_state(self, psi0: np.ndarray, beta: float) -> np.ndarray:
        coeffs = (self.evecs.T @ psi0) * np.exp(-beta * (self.evals - self.e0))
        return self.evecs @ (coeffs / np.linalg.norm(coeffs))

    def gibbs_energy(self, beta: float) -> float:
        weights = np.exp(-beta * (self.evals - self.e0))
        return float(weights @ self.evals / weights.sum())


def _entropy(rho: np.ndarray) -> float:
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    evals = evals[evals > 1e-15]
    return float(-(evals * np.log(evals)).sum())


def mutual_information(psi: np.ndarray, i: int, j: int) -> float:
    """S(i) + S(j) - S(ij) of a real state vector, natural logarithm."""
    n = int(np.log2(psi.size))
    tensor = psi.reshape((2,) * n)
    # axis n-1-q of the tensor holds qubit q; put qubits j, i in front
    pair = np.moveaxis(tensor, (n - 1 - j, n - 1 - i), (0, 1)).reshape(4, -1)
    rho = pair @ pair.T
    rho4 = rho.reshape(2, 2, 2, 2)
    rho_j = np.einsum("abcb->ac", rho4)
    rho_i = np.einsum("abac->bc", rho4)
    return _entropy(rho_i) + _entropy(rho_j) - _entropy(rho)
