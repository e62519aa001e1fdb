"""Exact statevector representation and the dense kernels built on it.

Amplitude indexing convention: qubit 0 is the least significant bit of
the array index, so basis label strings are written qubit 0 first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, ResourceError
from .pauli import PauliString

MAX_RDM_QUBITS = 8

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
        if self.n_qubits < 1:
            raise DimensionError("need at least one qubit")
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


def _product(factors) -> StateVector:
    """The product state of the amplitude vectors ``factors``, most
    significant first: per factor one outer product, as np.kron forms it."""
    amps = np.ones(1)
    for factor in factors:
        amps = (amps[:, None] * factor).reshape(-1)
    return StateVector(amps, amps.size.bit_length() - 1)


def zero_state(n_qubits: int) -> StateVector:
    return _product([_BASIS_VECTORS["0"]] * n_qubits)


def product_state(label: str) -> StateVector:
    """Product state from a per-qubit label over {0, 1, +, -}, qubit 0 first."""
    for ch in label:
        if ch not in _BASIS_VECTORS:
            raise ValueError(f"unknown basis label character {ch!r}")
    return _product([_BASIS_VECTORS[ch] for ch in reversed(label)])


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
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return _product([singlet] * (n_qubits // 2))


def from_amplitudes(amplitudes: Sequence[complex]) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size == 0:
        raise DimensionError(f"amplitudes of shape {amps.shape} are not a non-empty vector")
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise DimensionError("cannot normalize the zero vector")
    return StateVector(amps / norm, amps.size.bit_length() - 1)  # which checks the length


def _norm(vectors: np.ndarray):
    """The 2-norm of a vector, or of each row of a stack of them, by the dot
    products np.linalg.norm takes for one vector, so the same value."""
    if vectors.dtype.kind != "c":
        return np.sqrt(np.vecdot(vectors, vectors))
    real, imag = vectors.real, vectors.imag
    return np.sqrt(np.vecdot(real, real) + np.vecdot(imag, imag))


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


def _butterfly(values: np.ndarray, low: int) -> np.ndarray:
    """``values`` viewed as (-1, 2, low) with each pair (a, b) on its middle
    axis made (a + b, a - b): sqrt(2) times a Hadamard on the bit of stride low."""
    a, b = values.reshape(-1, 2, low).transpose(1, 0, 2)
    return np.concatenate((a + b, a - b), axis=1).reshape(values.shape)


@dataclass(frozen=True, eq=False)
class PauliOperator:
    """offset + sum_x D_x X^x: one diagonal D_x per distinct x-mask.

    (H psi)[j] = offset psi[j] + sum_x D_x[j] psi[j ^ x].  Row g of
    ``sources`` holds j ^ x of group g for every j, the groups in ascending
    x (the x = 0 group, when present, first), and row g of ``diagonals``
    its D_x; groups whose D_x vanishes are dropped.  ``sources`` is the
    (groups, 2^n) gather index that ``apply`` reads in one pass.
    """

    n_qubits: int
    offset: float
    sources: np.ndarray
    diagonals: np.ndarray

    @staticmethod
    def from_masks(coefficients, masks, n_qubits: int, offset: float = 0.0) -> "PauliOperator":
        """offset + sum_r c_r sigma_r on ``n_qubits`` local bits from the strings'
        (x, yz, i^nY) masks.  Each D_x sums its strings in input order from
        complex zeros, as np.add.at would, and ``dense`` matches it."""
        xmask, yzmask, phase = masks
        order = np.argsort(xmask, kind="stable")  # each x-group contiguous, in input order
        yz, weights = yzmask[order], (np.asarray(coefficients) * phase)[order]
        xs, starts = np.unique(xmask[order], return_index=True)
        bounds = starts.tolist() + [order.size]
        sources = np.arange(2**n_qubits) ^ xs[:, None]
        diagonals = np.zeros(sources.shape, dtype=complex)
        for diagonal, src, lo, hi in zip(diagonals, sources, bounds, bounds[1:]):
            values = weights[lo:hi, None] * _signs(src, yz[lo:hi, None])
            if n_qubits:  # row by row, in input order
                np.add.reduce(values, axis=0, out=diagonal, initial=0.0)
            else:  # a reduce over a single column is pairwise; accumulate runs in order
                diagonal += np.add.accumulate(values)[-1]
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
        """(H - offset) vector: one gather of ``sources``, one multiply and
        one sum over the groups."""
        return (self.diagonals * vector[self.sources]).sum(axis=0)

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
def _support_layout(support: Tuple[int, ...], n_qubits: int, lead: Tuple[int, ...]):
    """(tensor shape, order, inverse, matrix shape, vector shape) of the
    amplitudes on ``n_qubits`` qubits of each state of a stack of shape
    ``lead``: the tensor axes ordered with the support's first, most
    significant local bit first (the axis of qubit q is n-1-q), then the
    others in place; the permutation that undoes it; and the support-major
    matrix and amplitude vector shapes."""
    axes = [n_qubits - 1 - q for q in sorted(support, reverse=True)]
    order = axes + [a for a in range(n_qubits) if a not in axes]
    order = tuple(range(len(lead))) + tuple(len(lead) + a for a in order)
    inverse = tuple(int(a) for a in np.argsort(order))
    tensor, matrix = lead + (2,) * n_qubits, lead + (2 ** len(support), -1)
    return tensor, order, inverse, matrix, lead + (2**n_qubits,)


def _support_major(
    amps: np.ndarray, support: Sequence[int], n_qubits: int
) -> np.ndarray:
    """(2^k, 2^(n-k)) matrix of ``amps``: the row is the local index over
    ``support`` (support[j] as bit j), the column indexes the other qubits.
    A stack of states (s, 2^n) gives one such matrix per state."""
    tensor, order, _, matrix, _ = _support_layout(tuple(support), n_qubits, amps.shape[:-1])
    return amps.reshape(tensor).transpose(order).reshape(matrix)


def _from_support_major(
    shaped: np.ndarray, support: Sequence[int], n_qubits: int
) -> np.ndarray:
    """The amplitude vector of a (2^k, 2^(n-k)) support-major matrix, or the
    stack of them of a stack of such matrices."""
    tensor, _, inverse, _, vector = _support_layout(tuple(support), n_qubits, shaped.shape[:-2])
    return shaped.reshape(tensor).transpose(inverse).reshape(vector)


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


def measure_collapse(state: StateVector, bases: Sequence[str], rng):
    """Projectively measure every qubit, each in basis 'Z' or 'X'.

    Returns (label, collapsed_state).  Label characters are 0/1 for Z-basis
    qubits and +/- for X-basis qubits, qubit 0 first; the collapsed state is
    exactly the corresponding product state.  ``rng`` is a numpy
    ``Generator`` or a ``_Pcg64``; it is asked for one ``random()``.
    """
    bases = list(bases)
    if len(bases) != state.n_qubits:
        raise DimensionError("need one measurement basis per qubit")
    label = _collapse_label(state.amplitudes, bases, rng)
    return label, product_state(label)


def _collapse_label(amps: np.ndarray, bases: Sequence[str], rng) -> str:
    """The label of one projective measurement of the amplitudes ``amps``,
    one basis 'Z' or 'X' per qubit, drawn with one ``rng.random()``.

    Each X-basis qubit q takes sqrt(2) times a Hadamard, one ``_butterfly``
    of stride 2^q; normalizing the probabilities absorbs the factor.  The
    draw inverts the cumulative distribution as ``Generator.choice(k, p=probs)``
    does, so a numpy generator gives the label its ``choice`` gave.
    """
    for q, basis in enumerate(bases):
        if basis == "X":
            amps = _butterfly(amps, 2**q)
        elif basis != "Z":
            raise ValueError(f"unsupported measurement basis {basis!r}")
    probs = np.abs(amps) ** 2
    probs = probs / probs.sum()
    if not np.isfinite(probs).all():
        raise ValueError("measurement probabilities are not finite")
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    outcome = int(cdf.searchsorted(rng.random(), side="right"))
    return "".join(("+-" if basis == "X" else "01")[outcome >> q & 1]
                   for q, basis in enumerate(bases))


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


class _Pcg64:
    """The stream of ``np.random.default_rng(seed)``, bit for bit, for the two
    draws a QMETTS chain makes, without importing ``numpy.random``.

    Seeding is numpy's ``SeedSequence(seed).generate_state(4, uint64)`` (a
    pool of four 32-bit words) feeding PCG64, an XSL-RR 128/64 generator.
    ``integers(0, 2, size)`` follows numpy's 32-bit Lemire path: each bit is
    the top bit of a 32-bit half, the low half first, and the spare half waits
    in ``uinteger`` while ``has_uint32`` is set.  ``random()`` spends a fresh
    64-bit output, as numpy's does.
    """

    _MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        words = [seed >> 32 * k & _M32 for k in range(max(1, (seed.bit_length() + 31) // 32))]
        const = 0x43B0D7E5

        def hashmix(value):  # each call steps the hash constant
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _M32
            value = value * const & _M32
            return value ^ value >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        # SeedSequence.mix_entropy: hash the first four words (zero-padded)
        # into the pool, mix every pool word into the others, then each
        # further word into all four
        pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state: eight 32-bit words read as four little-endian uint64
        const, out = 0x8B51F9DD, 0
        for k in range(8):
            value = pool[k % 4] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            out |= (value ^ value >> 16) << 32 * k
        u64 = [out >> 64 * k & _M64 for k in range(4)]
        # pcg64_set_seed: state (u0, u1) and stream (u2, u3), high word first
        self.inc = (u64[2] << 65 | u64[3] << 1 | 1) & _M128
        self.state = ((self.inc + (u64[0] << 64 | u64[1])) * self._MULTIPLIER + self.inc) & _M128
        self.has_uint32, self.uinteger = 0, 0

    def _next64(self) -> int:
        self.state = (self.state * self._MULTIPLIER + self.inc) & _M128
        value, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        value = self._next64()
        self.has_uint32, self.uinteger = 1, value >> 32
        return value & _M32

    def integers(self, low: int, high: int, size: int) -> List[int]:
        if (low, high) != (0, 2):
            raise ValueError("the stream draws only integers(0, 2, size)")
        return [self._next32() >> 31 for _ in range(size)]

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53
