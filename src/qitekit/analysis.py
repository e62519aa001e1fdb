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
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import DimensionError, NumericalError, ResourceError
from .hamiltonians import Hamiltonian, to_dense
from .pauli import odd_y_count
from .statevector import (
    PauliOperator,
    StateVector,
    _norm,
    _pauli_masks,
    _signs,
    _support_major,
)

# The ground oracle runs Lanczos on H's operator from 2^n = _LANCZOS_MIN_DIM
# amplitudes on, and the blocked spectral below: for the whole ground space
# (one BLAS thread, medians of 15, two sessions) spectral took 0.9-1.6
# against 2.4-4.3 ms at n = 7, 5.7-6.4 against 3.0-4.3 ms at n = 8 and 16-23
# against 5.6-9.7 ms at n = 9 on Heisenberg chains, and 1.0-1.4 against
# 3.2-4.8 ms, 5.0-5.1 against 4.4-6.8 ms and 19-22 against 7.4-11.7 ms on
# TFI chains (h = J = 1).  Lanczos wins at n = 8 on Heisenberg but only ties
# on TFI, so n = 9 is the first width it takes
_LANCZOS_MIN_DIM = 512
# a Lanczos basis holds at most this many vectors before it restarts from its
# Ritz vector, and lanczos_ground at most this many ground vectors; every
# _LANCZOS_CHECK vectors a basis tests whether its lowest Ritz pair has
# converged: a residual norm below _LANCZOS_TOL times the largest Ritz value
# magnitude
_LANCZOS_MAX_BASIS = 200
_LANCZOS_CHECK = 5
_LANCZOS_TOL = 1e-12
# widest H that a dense diagonalization may take: a real Heisenberg H on 13
# qubits peaked at 2.6 GB before spectral was blocked; on 14 it would need
# about 6.7 GB (check_dense)
MAX_DENSE_QUBITS = 13
# peak bytes of spectral's stacked eigh, in units of its stack of blocks: the
# stack, its eigenvectors and eigh's per-block workspace
_BLOCK_COPIES = 4


def _times(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector for a vector or a matrix of columns, without casting a
    real matrix to complex."""
    if np.iscomplexobj(matrix) or not np.iscomplexobj(vector):
        return matrix @ vector
    pairs = np.ascontiguousarray(vector).view(np.float64).reshape(len(vector), -1)
    product = np.ascontiguousarray(matrix @ pairs).view(complex)
    return product.reshape(len(matrix), *vector.shape[1:])


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

    def _shifted(self, beta: float, coeffs: Optional[np.ndarray] = None) -> np.ndarray:
        """e^{-beta (E_k - E_m)}, shifted so large beta stays finite: E_m is the
        lowest level that ``coeffs`` populate (E0 without them), and the empty
        levels below it get e^0, whose product with their 0 is not NaN."""
        shift = self.evals[0 if coeffs is None else np.argmax(coeffs != 0)]
        return np.exp(np.minimum(-beta * (self.evals - shift), 0.0))

    def ite(self, state0: StateVector, beta: float) -> StateVector:
        """Normalized e^{-beta H} |psi0>."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        coeffs = self.coefficients(state0)
        coeffs = coeffs * self._shifted(beta, coeffs)
        norm = _checked(np.linalg.norm(coeffs))
        return StateVector(_times(self.evecs, coeffs / norm), state0.n_qubits)

    def ite_energy(self, state0: StateVector, beta: float) -> float:
        """Energy of the normalized e^{-beta H} |psi0>."""
        coeffs = self.coefficients(state0)
        weights = np.abs(coeffs) ** 2 * self._shifted(2.0 * beta, coeffs)
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
        diag = np.einsum("ik,ik->k", self.evecs.conj(), _times(observable, self.evecs)).real
        return float((weights @ diag) / weights.sum())


def check_dense(hamiltonian: Hamiltonian) -> None:
    """Refuse, before allocating anything, a dense diagonalization wider than
    MAX_DENSE_QUBITS, stating the bytes it would need."""
    n = hamiltonian.n_qubits
    if n > MAX_DENSE_QUBITS:
        odd_y = any(s.y_count % 2 for t in hamiltonian.terms for _, s in t.pauli_sum)
        itemsize, k = (16 if odd_y else 8), len(_symmetries(hamiltonian, "X"))
        # spectral's 2^k blocks of 4^(n-k) entries, _BLOCK_COPIES times over,
        # plus the N^2 eigenvector matrix it assembles and that matrix's int8
        # signs.  Over a real H's spectral on 11 and 12 qubits, VmHWM grew by
        # 83 and 260 MiB at k = 1 (this prices 100 and 400 MiB) and by 167
        # and 651 MiB at k = 0 (164 and 656 MiB)
        need = _BLOCK_COPIES * itemsize * 4**n // 2**k + (itemsize + 1) * 4**n
        raise ResourceError(
            f"a dense diagonalization of H on {n} qubits needs about {need / 1e9:.3g} GB "
            f"({2**k} block(s) of {2 ** (n - k)} rows, their eigenvectors and eigh "
            f"workspace, and the eigenvector matrix); the dense ceiling is "
            f"{MAX_DENSE_QUBITS} qubits"
        )


def _symmetries(hamiltonian: Hamiltonian, letter: str) -> Dict[int, int]:
    """A basis {pivot bit: a} of the strings P^a, P the Pauli ``letter`` X or
    Z, that commute with every string of H.

    X^a commutes with a string when popcount(a & z) is even, z the string's
    mask of Y and Z letters; Z^a when popcount(a & x) is even, x its mask of
    X and Y letters.  So the a form the GF(2) null space of those masks.
    The basis is in reduced echelon form: each a has its own pivot bit set
    and every other pivot bit clear.
    """
    strings = tuple(s for term in hamiltonian.terms for _, s in term.pauli_sum)
    xmask, yzmask, _ = _pauli_masks(strings, tuple(range(hamiltonian.n_qubits)))
    masks = yzmask if letter == "X" else xmask
    rows: Dict[int, int] = {}  # the masks' row space, reduced: pivot bit -> row
    for mask in sorted(set(masks.tolist())):
        for pivot, row in rows.items():
            if mask >> pivot & 1:
                mask ^= row
        if mask:
            pivot = (mask & -mask).bit_length() - 1
            for other in list(rows):
                if rows[other] >> pivot & 1:
                    rows[other] ^= mask
            rows[pivot] = mask
    return {
        free: 1 << free | sum(1 << pivot for pivot, row in rows.items() if row >> free & 1)
        for free in range(hamiltonian.n_qubits)
        if free not in rows
    }


def _orbits(hamiltonian: Hamiltonian, letter: str) -> Tuple[np.ndarray, np.ndarray]:
    """(cosets, group) of the strings P^a, P the Pauli ``letter``, that H
    commutes with: cosets[j] holds j's pivot bits of the ``_symmetries``
    basis, one bit per vector, group[c] the XOR of the vectors that c's bits
    pick, and j ^ group[cosets[j]] is the representative of j's orbit."""
    symmetries = _symmetries(hamiltonian, letter)
    index = np.arange(2**hamiltonian.n_qubits)
    cosets = np.zeros_like(index)
    group = np.zeros(2 ** len(symmetries), np.int64)
    for bit, (pivot, mask) in enumerate(symmetries.items()):
        cosets |= (index >> pivot & 1) << bit
        group[2**bit : 2 ** (bit + 1)] = group[: 2**bit] ^ mask
    return cosets, group


def spectral(hamiltonian: Hamiltonian) -> SpectralDecomposition:
    """Full diagonalization of H, in float64 when its matrix has no imaginary
    part, block by block over the X-type strings that H commutes with.

    Those strings form a group {X^(a_c)} of 2^k elements (``_orbits``;
    a_c is the XOR of the basis vectors that c's bits pick).  Every basis
    state j is r_j ^ a_(c_j), with r_j its orbit's representative (pivot bits
    0), so the states 2^(-k/2) sum_c (-1)^popcount(s & c) |r ^ a_c> split H
    into 2^k blocks B_s[r', r] = sum_d (-1)^popcount(s & d) <r' ^ a_d|H|r> of
    2^(n-k) rows: one Walsh transform over the group and one stacked eigh,
    N^3 / 4^k of the work of one.  This is the classical side of qubit
    tapering (Bravyi, Gambetta, Mezzacapo and Temme, arXiv:1701.08213).
    With k = 0 it is one eigh of the dense H, byte for byte.
    """
    check_dense(hamiltonian)
    cosets, group = _orbits(hamiltonian, "X")
    k, index = len(group).bit_length() - 1, np.arange(2**hamiltonian.n_qubits)
    reps = np.flatnonzero(cosets == 0)
    slots = np.zeros_like(index)
    slots[reps] = np.arange(reps.size)
    rows = slots[index ^ group[cosets]]  # r_j's row in its block
    evals, vectors = np.linalg.eigh(_blocks(hamiltonian.operator, reps, cosets, rows, k))
    vectors *= 2.0 ** (-k / 2)
    order = np.argsort(evals, axis=None, kind="stable")
    sectors, columns = np.divmod(order, reps.size)
    # column t: 2^(-k/2) (-1)^popcount(s_t & c_j) u[r_j] at j, u the eigenvector
    evecs = np.ascontiguousarray(vectors.transpose(1, 0, 2)[:, sectors, columns])[rows]
    evecs *= _signs(np.arange(2**k)[:, None], np.arange(2**k))[cosets[:, None], sectors]
    return SpectralDecomposition(evals.reshape(-1)[order], evecs)


def _blocks(operator: PauliOperator, reps, cosets, rows, k: int) -> np.ndarray:
    """The (2^k, m, m) stack of blocks B_s, offset included.

    H[j, j ^ x] = D_x[j], and D_x[j ^ a] = D_x[j] for every a of the group,
    so M_d[r', r] = <r' ^ a_d|H|r> is D_x[r'] where r ^ a_d = r' ^ x: one
    scatter fills every M_d, and k butterflies turn the M_d into the B_s.
    """
    size = reps.size
    targets = operator.sources[:, reps]  # r' ^ x for every x-group and row r'
    blocks = np.zeros((2**k, size, size), operator.diagonals.dtype)
    blocks[cosets[targets], np.arange(size), rows[targets]] = operator.diagonals[:, reps]
    for bit in range(k):
        pairs = blocks.reshape(2 ** (k - 1 - bit), 2, -1)  # axis 1: this bit of d
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    diagonal = np.arange(size)
    blocks[:, diagonal, diagonal] += operator.offset
    return blocks


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
    norm = _norm(vector)
    for _ in range(2):
        vector = vector - np.conj(rows @ np.conj(vector)) @ rows
        projected = _norm(vector)
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
    # alpha_j at (j, j) and beta_j at (j, j + 1) and (j + 1, j); the leading
    # (j + 1) x (j + 1) block is the tridiagonal of the first j + 1 vectors
    tri = np.zeros((size + 1, size + 1))
    matvecs = 0
    while True:
        vector = _project_out(start, locked)
        vector = vector / _norm(vector)
        for j in range(size):
            krylov[j] = vector
            w = apply(vector)
            matvecs += 1
            # |H v| bounds the largest Ritz magnitude from below, so a beta
            # below _LANCZOS_TOL times it (a closed Krylov space) has converged
            small = _LANCZOS_TOL * _norm(w)
            alpha = tri[j, j] = np.vdot(vector, w).real
            w -= alpha * vector
            if j:
                w -= tri[j, j - 1] * krylov[j - 1]
            w = _project_out(w, basis[: n_locked + j + 1])
            beta = tri[j, j + 1] = tri[j + 1, j] = _norm(w)
            closed = j + 1 == dim - n_locked or beta <= small
            if closed or j + 1 == size or j % _LANCZOS_CHECK == _LANCZOS_CHECK - 1:
                evals, evecs = np.linalg.eigh(tri[: j + 1, : j + 1])
                scale = max(abs(evals[0]), abs(evals[-1]))
                if closed or beta * abs(evecs[j, 0]) <= _LANCZOS_TOL * scale:
                    ritz = evecs[:, 0] @ krylov[: j + 1]
                    return float(evals[0]), ritz / _norm(ritz), matvecs
            vector = w / beta
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


def mutual_information(state: StateVector, i: int, j: int) -> float:
    """I(i:j) = S(i) + S(j) - S(ij) with natural-log entropies."""
    return float(_mutual_information_pairs([state], [(i, j)])[0, 0])


def _entropies(amps: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Entropy of the reduced state on each support of a stacked gather index:
    one product and one eigvalsh for the whole stack."""
    f = amps[index]
    evals = np.clip(np.linalg.eigvalsh(f @ f.conj().swapaxes(1, 2)), 0.0, 1.0)
    evals = np.where(evals > 1e-15, evals, 1.0)  # log(1) = 0 drops the entry
    return -(evals * np.log(evals)).sum(axis=1)


def _mutual_information_pairs(states, pairs) -> np.ndarray:
    """I(i:j) for every state and pair, shape (len(states), len(pairs)).

    Each state is gathered on its own (P 2^n amplitudes for P pairs); every
    one-site entropy is computed once per state."""
    n = states[0].n_qubits
    if any(i == j or not (0 <= i < n and 0 <= j < n) for i, j in pairs):
        raise DimensionError("mutual information needs two distinct qubits of the register")
    lo, hi = np.sort(np.array(pairs), axis=1).T
    index = np.arange(2**n)
    one_site = np.stack([_support_major(index, (q,), n) for q in range(n)])
    two_site = np.stack([_support_major(index, p, n) for p in zip(lo, hi)])
    out = np.empty((len(states), len(pairs)))
    for row, state in zip(out, states):
        single = _entropies(state.amplitudes, one_site)
        row[:] = single[lo] + single[hi] - _entropies(state.amplitudes, two_site)
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
