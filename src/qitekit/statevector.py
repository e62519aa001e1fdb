"""Exact statevector representation and the dense kernels built on it.

Amplitude indexing convention: qubit 0 is the least significant bit of
the array index, so basis label strings are written qubit 0 first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionError, ResourceError
from .pauli import PauliString

# widest H that a dense diagonalization may take: a real Heisenberg H on 13
# qubits peaked at 2.6 GB (matrix, eigenvectors and eigh workspace), on 14 it
# would need about 10.7 GB
MAX_DENSE_QUBITS = 13
MAX_RDM_QUBITS = 8

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

_BASIS_VECTORS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}


@dataclass
class StateVector:
    """Pure state on ``n_qubits`` qubits as a dense complex amplitude array."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise DimensionError(
                f"amplitude array of shape {self.amplitudes.shape} does not match "
                f"{self.n_qubits} qubits"
            )
        norm = float(np.linalg.norm(self.amplitudes))
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-12:
            raise DimensionError(f"state norm {norm!r} is not 1 within 1e-12")

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.n_qubits)


@dataclass
class DensityMatrix:
    """Reduced density matrix on the listed qubits (ascending order)."""

    matrix: np.ndarray
    qubits: Tuple[int, ...]


def _check_register(n_qubits: int) -> None:
    if n_qubits < 1:
        raise DimensionError("need at least one qubit")


def zero_state(n_qubits: int) -> StateVector:
    _check_register(n_qubits)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps, n_qubits)


def product_state(label: str) -> StateVector:
    """Product state from a per-qubit label over {0, 1, +, -}, qubit 0 first."""
    n = len(label)
    _check_register(n)
    amps = np.array([1.0 + 0j])
    for ch in reversed(label):  # highest qubit becomes the outer kron factor
        if ch not in _BASIS_VECTORS:
            raise ValueError(f"unknown basis label character {ch!r}")
        amps = np.kron(amps, _BASIS_VECTORS[ch])
    return StateVector(amps, n)


def neel_state(n_qubits: int) -> StateVector:
    return product_state("01" * (n_qubits // 2) + "0" * (n_qubits % 2))


def plus_state(n_qubits: int) -> StateVector:
    return product_state("+" * n_qubits)


def singlet_dimer_state(n_qubits: int) -> StateVector:
    """Product of two-qubit singlets on pairs (0,1), (2,3), ...

    A total-spin-zero valence-bond trial state; useful as a fast-converging
    start for antiferromagnets whose ground state is a global singlet.
    """
    if n_qubits % 2:
        raise ValueError("singlet dimer state needs an even qubit count")
    _check_register(n_qubits)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    amps = np.array([1.0])
    for _ in range(n_qubits // 2):
        amps = np.kron(singlet, amps)  # earlier pairs stay least significant
    return StateVector(amps.astype(complex), n_qubits)


def from_amplitudes(amplitudes: Sequence[complex]) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex)
    n = int(round(np.log2(amps.size)))
    if 2**n != amps.size:
        raise DimensionError(f"amplitude array length {amps.size} is not a power of 2")
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise DimensionError("cannot normalize the zero vector")
    return StateVector(amps / norm, n)


# ---------------------------------------------------------------------------
# Pauli application and expectation values


def _pauli_masks(strings: Tuple[PauliString, ...], support: Tuple[int, ...]):
    """Per-string (x-mask, yz-mask, i^nY) arrays with support[j] as local bit j.

    sigma |j> = i^nY (-1)^popcount(j & yzmask) |j ^ xmask>.
    """
    pos = {q: j for j, q in enumerate(support)}
    xmask = np.zeros(len(strings), dtype=np.int64)
    yzmask = np.zeros(len(strings), dtype=np.int64)
    n_y = np.zeros(len(strings), dtype=np.int64)
    for r, string in enumerate(strings):
        for qubit, letter in string.items:
            if qubit not in pos:
                raise DimensionError(f"string acts outside support: qubit {qubit}")
            bit = 1 << pos[qubit]
            if letter in ("X", "Y"):
                xmask[r] |= bit
            if letter in ("Y", "Z"):
                yzmask[r] |= bit
            n_y[r] += letter == "Y"
    return xmask, yzmask, (1j) ** n_y


def _signs(src: np.ndarray, yzmask: np.ndarray) -> np.ndarray:
    return 1 - 2 * (np.bitwise_count(src & yzmask) & 1).astype(np.int8)


@dataclass(frozen=True, eq=False)
class PauliOperator:
    """offset + sum_x D_x X^x: one diagonal D_x per distinct x-mask.

    (H psi)[j] = offset psi[j] + sum_x D_x[j] psi[j ^ x].  Row g of
    ``sources`` holds j ^ x of group g for every j, the groups in ascending
    x (the x = 0 group, when present, first), and row g of ``diagonals``
    its D_x; groups whose D_x vanishes are dropped.
    """

    n_qubits: int
    offset: float
    sources: np.ndarray
    diagonals: np.ndarray

    @staticmethod
    def from_masks(coefficients, masks, n_qubits: int, offset: float = 0.0) -> "PauliOperator":
        """offset + sum_r c_r sigma_r on ``n_qubits`` local bits from the strings'
        (x, yz, i^nY) masks.  From one bit on, each D_x sums its strings in input
        order from complex zeros, as np.add.at would, and ``dense`` matches it."""
        xmask, yzmask, phase = masks
        order = np.argsort(xmask, kind="stable")  # each x-group contiguous, in input order
        yz, weights = yzmask[order], (np.asarray(coefficients) * phase)[order]
        xs, starts = np.unique(xmask[order], return_index=True)
        bounds = starts.tolist() + [order.size]
        sources = np.arange(2**n_qubits) ^ xs[:, None]
        diagonals = np.zeros(sources.shape, dtype=complex)
        for diagonal, src, lo, hi in zip(diagonals, sources, bounds, bounds[1:]):
            values = weights[lo:hi, None] * _signs(src, yz[lo:hi, None])
            np.add.reduce(values, axis=0, out=diagonal, initial=0.0)  # row by row, in order
        live = diagonals.any(axis=1)
        return PauliOperator(n_qubits, float(offset), sources[live], diagonals[live])

    @staticmethod
    def from_pauli_sum(pauli_sum, n_qubits: int, offset: float = 0.0) -> "PauliOperator":
        """offset + sum_r c_r sigma_r on a register of ``n_qubits``, which
        must be every string's width."""
        pauli_sum = tuple(pauli_sum)
        strings = tuple(s for _, s in pauli_sum)
        if any(s.n_qubits != n_qubits for s in strings):
            raise DimensionError("Pauli string and state widths differ")
        masks = _pauli_masks(strings, tuple(range(n_qubits)))
        return PauliOperator.from_masks([c for c, _ in pauli_sum], masks, n_qubits, offset)

    @property
    def is_diagonal(self) -> bool:
        """Whether every x-mask is 0: H is diagonal in the computational basis."""
        return not self.sources[:, 0].any()

    def diagonal(self) -> np.ndarray:
        """The diagonal of H, offset included."""
        rows = self.diagonals[self.sources[:, 0] == 0].real  # the x = 0 group
        return self.offset + (rows[0] if len(rows) else np.zeros(2**self.n_qubits))

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """(H - offset) vector: one gather and multiply per x-mask."""
        out = np.zeros(vector.shape, np.result_type(self.diagonals, vector))
        for src, diag in zip(self.sources, self.diagonals):
            out += diag * vector[src]
        return out

    def dense(self) -> np.ndarray:
        """The full 2^n x 2^n matrix, offset included: D_x[j] at (j, j ^ x)."""
        index = np.arange(2**self.n_qubits)
        out = np.zeros((index.size, index.size), self.diagonals.dtype)
        out[index, self.sources] = self.diagonals
        out[index, index] += self.offset
        return out


def apply_pauli(state: StateVector, string: PauliString) -> StateVector:
    """Return sigma |psi> (norm preserved, phase kept)."""
    return StateVector(apply_pauli_sum(state, [(1.0, string)]), state.n_qubits)


def expectation(state: StateVector, string: PauliString) -> float:
    """<psi| sigma |psi>, real because the string is Hermitian."""
    return expectation_sum(state, [(1.0, string)])


def apply_pauli_sum(state: StateVector, pauli_sum) -> np.ndarray:
    """Unnormalized amplitudes of (sum_i c_i sigma_i) |psi>."""
    return PauliOperator.from_pauli_sum(pauli_sum, state.n_qubits).apply(state.amplitudes)


def expectation_sum(state: StateVector, pauli_sum) -> float:
    return float(np.vdot(state.amplitudes, apply_pauli_sum(state, pauli_sum)).real)


def inner_product(a: StateVector, b: StateVector) -> complex:
    if a.n_qubits != b.n_qubits:
        raise DimensionError("inner product of states with different widths")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    return float(abs(inner_product(a, b)) ** 2)


# ---------------------------------------------------------------------------
# dense operators on a small support


def dense_on_support(pauli_sum, support: Tuple[int, ...]) -> np.ndarray:
    """Dense 2^k x 2^k matrix of a Pauli sum on ``support`` (ascending order).

    Local bit j of the matrix index corresponds to support[j], matching the
    global least-significant-bit-first convention.
    """
    support = tuple(sorted(support))
    pauli_sum = tuple(pauli_sum)
    masks = _pauli_masks(tuple(s for _, s in pauli_sum), support)
    return PauliOperator.from_masks([c for c, _ in pauli_sum], masks, len(support)).dense()


def _pauli_traces(matrix: np.ndarray, masks) -> np.ndarray:
    """Tr(sigma_r matrix) for every string: the adjoint of PauliOperator.dense.

    Tr(sigma matrix) = i^nY sum_j (-1)^popcount(j & yz) matrix[j, j ^ x], so
    one product with the +-1 Walsh matrix gives the sum for every (x, yz).
    """
    xmask, yzmask, phase = masks
    cols = np.arange(matrix.shape[0])
    diagonals = matrix[cols, cols ^ cols[:, None]]  # row x holds matrix[j, j ^ x]
    return phase * (diagonals @ _signs(cols[:, None], cols))[xmask, yzmask]


@functools.lru_cache(maxsize=None)
def _support_order(support: Tuple[int, ...], n_qubits: int):
    """(order, inverse): the tensor axes with the support's first, most
    significant local bit first (the axis of qubit q is n-1-q), then the
    others in place; and the permutation that undoes it."""
    axes = [n_qubits - 1 - q for q in sorted(support, reverse=True)]
    order = axes + [a for a in range(n_qubits) if a not in axes]
    return tuple(order), tuple(int(a) for a in np.argsort(order))


def _support_major(
    amps: np.ndarray, support: Sequence[int], n_qubits: int
) -> np.ndarray:
    """(2^k, 2^(n-k)) matrix of ``amps``: the row is the local index over
    ``support`` (support[j] as bit j), the column indexes the other qubits."""
    tensor = amps.reshape((2,) * n_qubits)
    tensor = tensor.transpose(_support_order(tuple(support), n_qubits)[0])
    return tensor.reshape(2 ** len(support), -1)


def _from_support_major(
    shaped: np.ndarray, support: Sequence[int], n_qubits: int
) -> np.ndarray:
    """The amplitude vector of a (2^k, 2^(n-k)) support-major matrix."""
    inverse = _support_order(tuple(support), n_qubits)[1]
    tensor = shaped.reshape((2,) * n_qubits).transpose(inverse)
    return tensor.reshape(-1)


def _apply_matrix_on_support(
    amps: np.ndarray, mat: np.ndarray, support: Tuple[int, ...], n_qubits: int
) -> np.ndarray:
    shaped = mat @ _support_major(amps, support, n_qubits)
    return _from_support_major(shaped, support, n_qubits)


def _term_parts(term):
    """Accept a LocalTerm-like object or a raw (coeff, string) sequence."""
    pauli_sum = getattr(term, "pauli_sum", term)
    pauli_sum = tuple((float(c), s) for c, s in pauli_sum)
    support = set()
    for _, s in pauli_sum:
        support.update(s.support)
    return pauli_sum, tuple(sorted(support))


def apply_term_exp(state: StateVector, term, dtau: float):
    """Normalized e^{-dtau h} |psi> together with the exact squared norm c.

    c equals <psi| e^{-2 dtau h} |psi>; for small dtau it approaches
    1 - 2 dtau <h> quadratically.
    """
    pauli_sum, support = _term_parts(term)
    if not support:  # pure identity term: only the norm changes
        shift = sum(c for c, _ in pauli_sum)
        return state.copy(), float(np.exp(-2.0 * dtau * shift))
    evals, evecs = np.linalg.eigh(dense_on_support(pauli_sum, support))
    weights = np.exp(-dtau * evals)
    mat = (evecs * weights) @ evecs.conj().T
    amps = _apply_matrix_on_support(state.amplitudes, mat, support, state.n_qubits)
    c = float(np.vdot(amps, amps).real)
    return StateVector(amps / np.sqrt(c), state.n_qubits), c


# ---------------------------------------------------------------------------
# reduced density matrices and projective measurement


def reduced_density_matrix(state: StateVector, qubits: Sequence[int]) -> DensityMatrix:
    qubits = tuple(qubits)
    if not qubits or any(q2 <= q1 for q1, q2 in zip(qubits, qubits[1:])):
        raise DimensionError("qubits must be a non-empty strictly increasing tuple")
    if qubits[0] < 0 or qubits[-1] >= state.n_qubits:
        raise DimensionError(f"qubits {qubits} outside register")
    if len(qubits) > MAX_RDM_QUBITS:
        raise ResourceError(
            f"reduced density matrix on {len(qubits)} qubits exceeds ceiling {MAX_RDM_QUBITS}"
        )
    shaped = _support_major(state.amplitudes, qubits, state.n_qubits)
    rho = shaped @ shaped.conj().T
    return DensityMatrix(rho, qubits)


def measure_collapse(state: StateVector, bases: Sequence[str], rng: np.random.Generator):
    """Projectively measure every qubit, each in basis 'Z' or 'X'.

    Returns (label, collapsed_state).  Label characters are 0/1 for Z-basis
    qubits and +/- for X-basis qubits, qubit 0 first; the collapsed state is
    exactly the corresponding product state.
    """
    bases = list(bases)
    if len(bases) != state.n_qubits:
        raise DimensionError("need one measurement basis per qubit")
    amps = state.amplitudes
    for q, basis in enumerate(bases):
        if basis == "X":
            amps = _apply_matrix_on_support(amps, _HADAMARD, (q,), state.n_qubits)
        elif basis != "Z":
            raise ValueError(f"unsupported measurement basis {basis!r}")
    probs = np.abs(amps) ** 2
    probs = probs / probs.sum()
    outcome = int(rng.choice(probs.size, p=probs))
    chars = []
    for q, basis in enumerate(bases):
        bit = (outcome >> q) & 1
        chars.append(("-" if bit else "+") if basis == "X" else ("1" if bit else "0"))
    label = "".join(chars)
    return label, product_state(label)
