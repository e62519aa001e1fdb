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
from .statevector import PauliOperator, StateVector, _butterfly, _norm, _support_major

# The ground oracle diagonalizes H's blocks (spectral) while the widest has
# at most _DENSE_MAX_ROWS rows, and runs Lanczos on H's operator beyond: for
# the whole ground space (one BLAS thread, medians of 15) the blocks took 1.5
# against 2.4 ms on a Heisenberg chain of 8 qubits (widest block 56 rows), 3.1
# against 5.5 ms on 9 (126) and 3.5 against 4.6 ms on a TFI chain of 8 (128),
# but 9.9 against 5.6 ms on the Heisenberg chain of 10 (210) and 13.2 against
# 6.9 ms on the TFI chain of 9 (256)
_DENSE_MAX_ROWS = 128
# a Lanczos basis holds at most this many vectors before it restarts from its
# Ritz vector, and lanczos_ground at most this many ground vectors; every
# _LANCZOS_CHECK vectors a basis tests whether its lowest Ritz pair has
# converged: a residual norm below _LANCZOS_TOL times the largest Ritz value
# magnitude
_LANCZOS_MAX_BASIS = 200
_LANCZOS_CHECK = 5
_LANCZOS_TOL = 1e-12
# widest H that a dense diagonalization may take, read off n alone so that
# the refusal comes before any 2^n array exists: an H with no symmetry has one
# block of 2^n rows, 2 GiB of float64 at n = 14 before its eigenvectors
MAX_DENSE_QUBITS = 13


def _times(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ vectors, for stacks of matrices and of column blocks, without
    casting a real matrix to complex."""
    if np.iscomplexobj(matrix) or not np.iscomplexobj(vectors):
        return matrix @ vectors
    pairs = np.ascontiguousarray(vectors).view(np.float64)
    return (matrix @ pairs).view(complex)


def _overlaps(columns: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v_k|psi> for every column v_k of ``columns`` and its vector psi, over
    stacks: (..., R, K) columns and (..., R) vectors give (..., K)."""
    adjoint = columns.conj().mT if np.iscomplexobj(columns) else columns.mT
    return _times(adjoint, vectors[..., None])[..., 0]


def _checked(total: float) -> float:
    if total == 0 or not np.isfinite(total):
        raise NumericalError("imaginary-time weights vanished or overflowed")
    return total


@dataclass
class SpectralDecomposition:
    """H's eigenpairs (offset included), block by block.

    Each group (grid, evals, evecs) holds Q sectors of 2^s blocks of W rows
    as ``spectral``'s eigh returned them: eigenvalues (Q, 2^s, W) and
    eigenvectors (Q, 2^s, W, W) as columns.  ``grid`` is the layout's
    (T, Q, 2^s, W) grid of the state r ^ a_d of each sector and of its
    T - 1 images, which share its eigenpairs, at (image, sector, d, r): a
    gather on it and ``_walsh`` over d move a vector into the blocks, and
    ``_combination`` moves vectors out.  Per-eigenvector arrays run over the
    groups in (image, sector, block, column) order.  ``evals`` is every
    eigenvalue in ascending order.

    The eigenvectors are float64 when the Hamiltonian's matrix is real
    (every string has an even number of Y letters), complex otherwise.
    """

    blocks: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        levels = [np.broadcast_to(evals, grid.shape).ravel() for grid, evals, _ in self.blocks]
        self._levels = np.concatenate(levels)
        self._starts = np.cumsum([0] + [grid.size for grid, _, _ in self.blocks]).tolist()
        self.evals = np.sort(self._levels, kind="stable")

    @staticmethod
    def _walsh(values: np.ndarray, size: int, low: int) -> np.ndarray:
        """2^(-s/2) sum_d (-1)^popcount(t & d) values[d] at each t, over the
        axis of ``size`` = 2^s elements of stride ``low``: its own inverse."""
        for bit in range(size.bit_length() - 1):
            values = _butterfly(values, low << bit)
        return values * size**-0.5

    def coefficients(self, state: StateVector) -> np.ndarray:
        """<v_k|psi> for every eigenvector."""
        if state.amplitudes.size != self._levels.size:
            raise DimensionError("state and Hamiltonian widths differ")
        return np.concatenate([
            _overlaps(evecs, self._walsh(state.amplitudes[grid], *grid.shape[2:])).ravel()
            for grid, _, evecs in self.blocks
        ])

    def _combination(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_k coeffs_k |v_k> for one coefficient vector, or for each column
        of a (levels, K) matrix: each group with a nonzero coefficient
        written onto its own states, every other state 0."""
        columns = coeffs.reshape(coeffs.shape[0], -1)
        out = np.zeros(columns.shape, np.result_type(coeffs, self.blocks[0][2]))
        for (grid, _, evecs), start in zip(self.blocks, self._starts):
            part = columns[start : start + grid.size]
            if part.any():
                vectors = _times(evecs, part.reshape(*grid.shape, -1))
                out[grid] = self._walsh(vectors, grid.shape[2], grid.shape[3] * part.shape[1])
        return out.reshape(coeffs.shape)

    def ground(self, degeneracy_tol: float) -> "GroundSpace":
        """E0 and the eigenvectors within ``degeneracy_tol`` of it, as
        columns in ascending order of their eigenvalues (stable)."""
        e0 = self.evals[0]
        picked = np.flatnonzero(self._levels <= e0 + degeneracy_tol)
        picked = picked[np.argsort(self._levels[picked], kind="stable")]
        units = np.zeros((self._levels.size, picked.size))
        units[picked, np.arange(picked.size)] = 1.0
        return GroundSpace(float(e0), self._combination(units), "dense")

    def _shifted(self, beta: float, coeffs: Optional[np.ndarray] = None) -> np.ndarray:
        """e^{-beta (E_k - E_m)}, beta >= 0, with E_m the lowest level that
        ``coeffs`` populate (E0 without them) so large beta stays finite; the
        empty levels below it get e^0, whose product with their 0 is not NaN."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        shift = self.evals[0] if coeffs is None else self._levels[coeffs != 0].min()
        return np.exp(np.minimum(-beta * (self._levels - shift), 0.0))

    def ite(self, state0: StateVector, beta: float) -> StateVector:
        """Normalized e^{-beta H} |psi0>."""
        coeffs = self.coefficients(state0)
        coeffs = coeffs * self._shifted(beta, coeffs)
        norm = _checked(np.linalg.norm(coeffs))
        return StateVector(self._combination(coeffs / norm), state0.n_qubits)

    def ite_energy(self, state0: StateVector, beta: float) -> float:
        """Energy of the normalized e^{-beta H} |psi0>."""
        coeffs = self.coefficients(state0)
        weights = np.abs(coeffs) ** 2 * self._shifted(2.0 * beta, coeffs)
        return float((weights @ self._levels) / _checked(weights.sum()))

    def ite_squared_norm(self, state0: StateVector, beta: float) -> float:
        """|| e^{-beta H} |psi0> ||^2, shifted and scaled back (may be huge)."""
        coeffs = self.coefficients(state0)
        weights = np.abs(coeffs) ** 2 * self._shifted(2.0 * beta, coeffs)
        return float(weights.sum() * np.exp(-2.0 * beta * self._levels[coeffs != 0].min()))

    def gibbs(self, beta: float, observable: Optional[np.ndarray] = None) -> float:
        """Tr[O e^{-beta H}] / Tr[e^{-beta H}] for a dense O, defaulting to H itself."""
        weights, levels = self._shifted(beta), self._levels
        if observable is not None:  # <v_k|O|v_k> from O on each sector's states
            levels = []
            for grid, _, evecs in self.blocks:  # O into the blocks on both sides
                size, width = grid.shape[2:]
                rows = grid[..., None, None], grid[:, :, None, None]
                part = self._walsh(observable[rows], size, width * size * width)  # O's rows
                part = self._walsh(part, size, width)  # and its columns
                part = _times(np.moveaxis(part.diagonal(axis1=2, axis2=4), -1, 2), evecs)
                levels.append(np.einsum("...ik,...ik->...k", evecs.conj(), part).real.ravel())
            levels = np.concatenate(levels)
        return float((weights @ levels) / weights.sum())


def check_dense(hamiltonian: Hamiltonian) -> None:
    """Refuse, before allocating anything, a dense diagonalization wider than
    MAX_DENSE_QUBITS."""
    n = hamiltonian.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ResourceError(
            f"a dense diagonalization of H on {n} qubits: the dense ceiling is "
            f"{MAX_DENSE_QUBITS} qubits"
        )


def spectral(hamiltonian: Hamiltonian) -> SpectralDecomposition:
    """Full diagonalization of H, in float64 when its matrix has no imaginary
    part, block by block over its sectors and the X-type strings that H
    commutes with.

    The sectors are the connected components of H's off-diagonal graph
    (``Hamiltonian.layout``): for a Heisenberg chain, one per magnetization.
    H maps each into itself, so it is diagonalized sector by sector.  The
    X-type strings form a group {X^(a_c)} of 2^k elements (the layout's
    ``x_orbits``; a_c XORs the basis vectors c's bits pick) that maps
    sectors onto sectors with the same matrix, so one sector of each orbit
    is diagonalized, and its images take its eigenvalues and eigenvectors
    shifted by a_c.  The 2^s elements that map a sector onto itself split
    it further: every state j of it is r_j ^ a_(d_j), r_j its
    representative, so the states 2^(-s/2) sum_d (-1)^popcount(t & d)
    |r ^ a_d> split it into 2^s blocks B_t[r', r] = sum_d (-1)^popcount(t &
    d) <r' ^ a_d|H|r>: one Walsh transform over the stabilizer and one
    stacked eigh per layout group, 1 / 4^s of the work of one.  This is the
    classical side of qubit tapering (Bravyi, Gambetta, Mezzacapo and
    Temme, arXiv:1701.08213).  The eigenpairs stay in their blocks.  With
    one sector it is the whole group's 2^k blocks, and with k = 0 as well
    one eigh of the dense H, byte for byte.
    """
    check_dense(hamiltonian)
    layout, blocks = hamiltonian.layout, []
    for grid in layout.grids:  # one stacked eigh per group
        evals, evecs = np.linalg.eigh(_blocks(hamiltonian.operator, layout.place, grid))
        shape = grid.shape[1:]  # (Q, 2^s, W)
        blocks.append((grid, evals.reshape(shape), evecs.reshape(*shape, shape[-1])))
    return SpectralDecomposition(tuple(blocks))


def _blocks(operator: PauliOperator, place: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The (Q 2^s, W, W) stack of the blocks B_t of the sectors of a layout
    grid, offset included.

    H[j, j ^ x] = D_x[j], and D_x[j ^ a] = D_x[j] for every a of the group,
    so M_d[r', r] = <r' ^ a_d|H|r> is D_x[r'] where r ^ a_d = r' ^ x: one
    scatter of the nonzero D_x fills every M_d, and s butterflies turn the
    M_d into the B_t.
    """
    _, q, size, width = grid.shape
    reps = grid[0, :, 0]
    values = operator.diagonals[:, reps]
    group, sector, row = np.nonzero(values)
    block, column = divmod(place[operator.sources[group, reps[sector, row]]], width)
    blocks = np.zeros((q, size, width, width), operator.diagonals.dtype)
    blocks[sector, block, row, column] = values[group, sector, row]
    for bit in range(size.bit_length() - 1):
        blocks = _butterfly(blocks, width * width << bit)  # over this bit of d
    diagonal = np.arange(width)
    blocks[:, :, diagonal, diagonal] += operator.offset
    return blocks.reshape(-1, width, width)


@dataclass
class GroundSpace:
    """E0 (offset included) and an orthonormal basis of the eigenvectors of H
    within the degeneracy tolerance of it.

    ``basis`` has one row per basis state: the vectors as columns, or a
    diagonal H's mask of its ground basis states.  ``route`` is "dense",
    "lanczos" or "diagonal", and ``matvecs`` counts the products with H
    that Lanczos made.
    """

    e0: float
    basis: np.ndarray
    route: str
    matvecs: int = 0

    @property
    def dim(self) -> int:
        return int(self.basis.sum()) if self.basis.ndim == 1 else self.basis.shape[1]

    def fidelity(self, state: StateVector) -> float:
        """Mass of ``state`` in the ground space."""
        if state.amplitudes.size != self.basis.shape[0]:
            raise DimensionError("state and Hamiltonian widths differ")
        if self.basis.ndim == 1:
            return float(np.sum(np.abs(state.amplitudes[self.basis]) ** 2))
        return float(np.sum(np.abs(_overlaps(self.basis, state.amplitudes)) ** 2))


def ground_space(hamiltonian: Hamiltonian, degeneracy_tol: float = 1e-10) -> GroundSpace:
    """E0 and the ground space of H, by its cheapest exact route.

    A diagonal H reads both off its diagonal.  Otherwise they come from
    the blocks of ``spectral`` while H fits MAX_DENSE_QUBITS and its widest
    block has at most _DENSE_MAX_ROWS rows, and from ``lanczos_ground``
    beyond.
    """
    operator = hamiltonian.operator
    if operator.is_diagonal:
        diagonal = operator.diagonal()
        e0 = float(diagonal.min())
        return GroundSpace(e0, diagonal <= e0 + degeneracy_tol, "diagonal")
    if (hamiltonian.n_qubits <= MAX_DENSE_QUBITS
            and max(grid.shape[-1] for grid in hamiltonian.layout.grids) <= _DENSE_MAX_ROWS):
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
        vec[np.argmax(ground.basis)] = 1.0
    else:
        vec = ground.basis[:, 0]
    return ground.e0, StateVector(vec / np.linalg.norm(vec), hamiltonian.n_qubits)


def ground_space_fidelity(
    state: StateVector, hamiltonian: Hamiltonian, degeneracy_tol: float = 1e-10
) -> float:
    """Probability mass of ``state`` inside the (possibly degenerate) ground space."""
    if state.n_qubits != hamiltonian.n_qubits:
        raise DimensionError("state and Hamiltonian widths differ")
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
