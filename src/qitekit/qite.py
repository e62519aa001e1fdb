"""Imaginary-time propagation emulated through per-term unitary reconstruction.

Each sweep walks the Hamiltonian terms; for every term the non-unitary
factor e^{-dtau h} (normalized) is replaced by e^{-i dtau A} where the
Hermitian generator A = sum_I a_I sigma_I is fit over an operator pool by
a regularized least-squares solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError, PoolError, ResourceError
from .hamiltonians import Hamiltonian, LocalTerm, energy
from .pauli import OperatorPool, PauliString, POOL_KINDS, enumerate_pool
from .statevector import (
    PauliOperator,
    StateVector,
    _apply_matrix_on_support,
    _from_support_major,
    _norm,
    _pauli_masks,
    _pauli_traces,
    _signs,
    _support_major,
    dense_on_support,
)

B_MODES = ("measurable", "exact_delta0")
_PAULI_POOLS = ("pauli_full", "pauli_odd_y")
# A noiseless step is solved in the range of rho_D when 2^k is at least
# _RANGE_CROSSOVER times the factor's column count, the bound on rho_D's
# rank, and each block it solves has at least _RANGE_MIN_ROWS rows (k >= 4,
# or 5 on the parity-even pool's half blocks).  Below either the range route
# measured slower per step on some shape: up to 1.3 times at k <= 3, up to
# 1.5 at k <= 3 and 1.2 at k = 4 on the parity-even pool, up to 2.6 at a ratio of 1
_RANGE_CROSSOVER = 4
_RANGE_MIN_ROWS = 16
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QiteConfig:
    """Propagation parameters shared by every reconstruction step.

    b_mode 'measurable' assembles the linear system purely from Pauli
    expectation values (first-order norm estimate); 'exact_delta0' targets
    the exactly propagated step state and is the verification path.
    b_norm_factor toggles the 1/sqrt(c) scale inside the measurable b.
    """

    dtau: float = 0.1
    n_steps: int = 50
    domain_size: int = 2
    pool_kind: str = "pauli_full"
    delta: float = 0.0
    pinv_tol: float = 1e-8
    trotter_order: int = 1
    b_mode: str = "measurable"
    b_norm_factor: bool = True
    noise_sigma: float = 0.0
    max_unitary_domain: int = 12

    def validate(self) -> None:
        if self.dtau <= 0:
            raise ConfigError("dtau must be positive")
        if self.n_steps < 0:
            raise ConfigError("n_steps must be non-negative")
        if self.domain_size < 1 or self.max_unitary_domain < 1:
            raise ConfigError("domain_size and max_unitary_domain must be at least 1")
        if self.pool_kind not in POOL_KINDS:
            raise ConfigError(f"unknown pool kind {self.pool_kind!r}")
        if self.trotter_order not in (1, 2):
            raise ConfigError("trotter_order must be 1 or 2")
        if self.b_mode not in B_MODES:
            raise ConfigError(f"unknown b_mode {self.b_mode!r}")
        if self.delta < 0 or self.pinv_tol <= 0 or self.noise_sigma < 0:
            raise ConfigError("delta, pinv_tol and noise_sigma must be sane")


@dataclass
class StepRecord:
    """Diagnostics of one reconstruction step; on a stack of states, c and
    residual hold one entry per state."""

    term_index: int
    dtau: float
    c: float
    residual: float


@dataclass
class Trajectory:
    """Per-sweep history of one propagation run.

    inv_sq_norms accumulates the squared norm of the unnormalized
    imaginary-time state through the per-step c factors:
    inv_sq_norms[l+1] = inv_sq_norms[l] * prod_m c_m.
    """

    betas: np.ndarray
    energies: np.ndarray
    inv_sq_norms: np.ndarray
    records: List[StepRecord]
    config: QiteConfig
    final_state: Optional[StateVector] = None


def choose_domain(
    support: Sequence[int], domain_size: int, n_qubits: int
) -> Tuple[int, ...]:
    """Grow the support to ``domain_size`` qubits along the chain.

    Contiguous supports expand symmetrically (left first), redirecting at
    the chain ends.  Non-contiguous supports grow each contiguous block in
    round-robin order under the same left/right alternation, so a
    long-range pair gains neighborhoods around both endpoints.
    """
    support = tuple(sorted(set(support)))
    if not support:
        raise PoolError("term support is empty")
    if support[0] < 0 or support[-1] >= n_qubits:
        raise DimensionError(f"support {support} outside {n_qubits}-qubit register")
    if domain_size < 1:
        raise PoolError("domain size must be at least 1")
    target = min(n_qubits, max(domain_size, len(support)))
    domain = set(support)
    round_index = 0
    # a block lacks a free neighbour only if it spans the register, so every
    # round grows the domain
    while len(domain) < target:
        prefer_left = round_index % 2 == 0
        for lo, hi in _contiguous_blocks(sorted(domain)):
            if len(domain) >= target:
                break
            candidates = [lo - 1, hi + 1] if prefer_left else [hi + 1, lo - 1]
            for q in candidates:
                if 0 <= q < n_qubits and q not in domain:
                    domain.add(q)
                    break
        round_index += 1
    return tuple(sorted(domain))


def _contiguous_blocks(qubits: List[int]) -> List[Tuple[int, int]]:
    blocks = []
    lo = prev = qubits[0]
    for q in qubits[1:]:
        if q == prev + 1:
            prev = q
            continue
        blocks.append((lo, prev))
        lo = prev = q
    blocks.append((lo, prev))
    return blocks


# ---------------------------------------------------------------------------
# per-term precomputation


@dataclass
class _TermPlan:
    index: int
    unitary_support: Tuple[int, ...]
    h_eig: Tuple[np.ndarray, np.ndarray]  # eigh of the term on its own support
    h_support: Tuple[int, ...]
    # (x, yz, i^nY) per pool string over the support when the step forms S;
    # None when it is solved in the eigenbasis of rho (_solve_in_rho)
    local_masks: Optional[Tuple[np.ndarray, ...]]


def _term_plans(
    terms: Sequence[LocalTerm], config: QiteConfig, n_qubits: int, first_index: int = 0
) -> List[_TermPlan]:
    """Plans for ``terms`` numbered from ``first_index``, each with its route.

    A noiseless step on a Pauli pool, or on a fermionic pool over a
    contiguous domain (the parity-even strings of the domain), is solved in
    the eigenbasis of rho on the domain and reads no pool.
    Every other domain enumerates its pool and builds the pool's masks once;
    parity tails may widen its support.  A domain from choose_domain
    contains its term's support, so the support serves every term that
    shares the domain.
    """
    pools = {}
    plans = []
    for index, term in enumerate(terms, first_index):
        domain = choose_domain(term.support, config.domain_size, n_qubits)
        if domain not in pools:
            contiguous = domain[-1] - domain[0] == len(domain) - 1
            if config.noise_sigma == 0 and (config.pool_kind in _PAULI_POOLS or contiguous):
                pools[domain] = (_pool_support(index, domain, (), config), None)
            else:
                strings = enumerate_pool(OperatorPool(config.pool_kind, domain), n_qubits)
                support = _pool_support(index, domain, strings, config)
                pools[domain] = (support, _pauli_masks(tuple(strings), support))
        plans.append(_build_plan(index, term, *pools[domain]))
    return plans


def _pool_support(
    index: int, qubits: Sequence[int], strings: Sequence[PauliString], config: QiteConfig
) -> Tuple[int, ...]:
    """``qubits`` joined with every string's support, held to the ceiling."""
    support = tuple(sorted(set(qubits).union(q for s in strings for q, _ in s.items)))
    if len(support) > config.max_unitary_domain:
        raise ResourceError(
            f"term {index}: unitary support of {len(support)} qubits exceeds "
            f"ceiling {config.max_unitary_domain}"
        )
    return support


def _build_plan(index: int, term: LocalTerm, support, masks) -> _TermPlan:
    h_support = tuple(sorted(term.support))
    h_eig = np.linalg.eigh(dense_on_support(term.pauli_sum, h_support))
    return _TermPlan(index, support, h_eig, h_support, masks)


# ---------------------------------------------------------------------------
# linear system assembly and solves


def _step_matrix(plan: _TermPlan, dtau: float, config: QiteConfig) -> np.ndarray:
    """G on the term's own support, from its eigendecomposition: h
    (measurable) or e^{-dtau h} (exact_delta0)."""
    evals, evecs = plan.h_eig
    exact = config.b_mode == "exact_delta0"
    return (evecs * (np.exp(-dtau * evals) if exact else evals)) @ evecs.conj().T


def _step_operators(
    plan: _TermPlan,
    amps: np.ndarray,
    g: np.ndarray,
    dtau: float,
    config: QiteConfig,
    rng: Optional[np.random.Generator],
):
    """(L, G L, c, scale) of one step of the amplitudes ``amps``, the inputs
    of every route.

    L is the state's (2^k, 2^(n-k)) factor on the unitary support, copied
    where it is a view of ``amps`` so the step may update it in place, and
    rho = L L^dagger.  G is ``_step_matrix``: h (measurable, c = 1 - 2 dtau
    <h>, whose noise is drawn here first) or e^{-dtau h} (exact_delta0,
    c = |G psi|^2 = Tr(G rho G)).  S a holds the Pauli coefficients of
    {A, rho} and b those of B = i 2^k scale [G, rho].  A stack of states
    (s, 2^n) gives a stack of factors and one c and scale per state.
    """
    if config.noise_sigma > 0 and rng is None:
        raise ConfigError("noise_sigma > 0 requires a random generator")
    n = amps.shape[-1].bit_length() - 1  # 2^n amplitudes per state
    g_amps = _apply_matrix_on_support(amps, g, plan.h_support, n)
    if config.b_mode == "exact_delta0":
        c = np.vecdot(g_amps, g_amps).real
        scale = -1.0 / (dtau * np.sqrt(c))
    else:
        h_exp = np.vecdot(amps, g_amps).real
        if config.noise_sigma > 0:  # noisy plans step one state at a time
            h_exp += float(rng.normal(0.0, config.noise_sigma))
        c = 1.0 - 2.0 * dtau * h_exp
        if min(c.flat) <= 0.0:  # np.min costs microseconds on one state's c
            raise NumericalError(
                f"first-order norm estimate c={np.min(c):g} is not positive; reduce dtau"
            )
        scale = 1.0 / np.sqrt(c) if config.b_norm_factor else np.ones_like(c)
    factor = _support_major(amps, plan.unitary_support, n)
    if np.may_share_memory(factor, amps):
        factor = factor.copy()
    return factor, _support_major(g_amps, plan.unitary_support, n), c, scale


def _explicit_system(
    plan: _TermPlan,
    factor: np.ndarray,
    g_factor: np.ndarray,
    scale: float,
    config: QiteConfig,
    rng: Optional[np.random.Generator],
):
    """(Smat, bvec) from Pauli traces; the b noise is drawn before the S noise.

    With rho = L L^dagger (L the ``factor``), G rho = (G L) L^dagger and
    comm = [G, rho] = G rho - (G rho)^dagger,
    Smat_IJ = 2 Re Tr(sigma_I sigma_J rho) and
    b_I = -2 scale Im Tr(sigma_I G rho) = -scale Im Tr(sigma_I comm).
    sigma_I sigma_J is i^(nY_I + nY_J) (-1)^popcount(yz_I & x_J) times the
    string with masks (x_I ^ x_J, yz_I ^ yz_J).
    """
    g_rho = g_factor @ factor.conj().T
    rho, comm = factor @ factor.conj().T, g_rho - g_rho.conj().T
    x, yz, phase = plan.local_masks
    signs = phase[:, None] * phase * _signs(yz[:, None], x)
    smat = 2.0 * _pauli_traces(rho, (x[:, None] ^ x, yz[:, None] ^ yz, signs)).real
    raw = _pauli_traces(comm, plan.local_masks).imag / 2.0
    noisy = config.noise_sigma > 0
    if noisy and config.b_mode == "measurable":
        raw = raw + rng.normal(0.0, config.noise_sigma, raw.shape)
    bvec = -2.0 * scale * raw
    if noisy and config.b_mode == "exact_delta0":
        bvec = bvec + rng.normal(0.0, config.noise_sigma, bvec.shape)
    if noisy:
        draws = rng.normal(0.0, config.noise_sigma, smat.shape)
        smat = smat + np.triu(draws) + np.triu(draws, 1).T
    return smat, bvec


def build_linear_system(
    state: StateVector,
    term: LocalTerm,
    pool: OperatorPool,
    dtau: float,
    config: Optional[QiteConfig] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Dense (Smat, bvec, c) for one reconstruction step over ``pool``.

    Smat is the symmetrized overlap matrix: entry (I, J) equals
    2 Re <psi| sigma_I sigma_J |psi>.  bvec follows the configured b_mode
    and c is the squared-norm factor of the step (first-order estimate in
    measurable mode, exact in exact_delta0 mode).
    """
    config = config or QiteConfig()
    strings = enumerate_pool(pool, state.n_qubits)
    support = _pool_support(0, tuple(pool.domain) + tuple(term.support), strings, config)
    masks = _pauli_masks(tuple(strings), support)
    plan = _build_plan(0, term, support, masks)
    g = _step_matrix(plan, dtau, config)
    factor, g_factor, c, scale = _step_operators(plan, state.amplitudes, g, dtau, config, rng)
    return (*_explicit_system(plan, factor, g_factor, scale, config, rng), c)


def solve_step(
    smat: np.ndarray, bvec: np.ndarray, delta: float = 0.0, pinv_tol: float = 1e-8
):
    """Minimal-norm solve of (Smat + delta I) a = -b via cutoff pseudoinverse.

    pinv_tol is relative to the largest eigenvalue magnitude.  Returns the
    coefficients and the residual norm of the regularized system.
    """
    smat = np.asarray(smat, dtype=float)
    bvec = np.asarray(bvec, dtype=float)
    if smat.shape != (bvec.size, bvec.size):
        raise DimensionError("Smat and bvec sizes are inconsistent")
    regularized = smat + delta * np.eye(bvec.size)
    pinv = np.linalg.pinv(regularized, rcond=pinv_tol, hermitian=True)
    coefficients = pinv @ (-bvec)
    residual = float(np.linalg.norm(regularized @ coefficients + bvec))
    return coefficients, residual


# ---------------------------------------------------------------------------
# stepping and sweeping


def _solve_in_rho(factor: np.ndarray, g_factor: np.ndarray, scale, config: QiteConfig):
    """(blocks, residual) of a noiseless step on a k-qubit support.

    In the eigenbasis V of rho = L L^dagger, eigenvalues p largest first, the
    full pool's S is 2^k (p_i + p_j) on each pair (i, j) and
    B~ = i 2^k scale V^dagger [G, rho] V = i 2^k scale (K^dagger V - V^dagger K)
    for K = -G L L^dagger V, so A = -V A~ V^dagger with
    A~ = B~ / (2^k (p_i + p_j) + delta) on the pairs solve_step's cutoff
    keeps; the residual is |b| on dropped pairs.  The route changes only how
    V is found: on rho's range when the factor the pool reads (L, or [Re L,
    Im L] on the odd-Y pool), whose column count bounds rho's rank, is narrow
    and each block tall enough (_RANGE_CROSSOVER, _RANGE_MIN_ROWS); else the full basis:

    - the full basis: p, V = eigh(L L^dagger), and Q = V;
    - the range: V_r and p = sigma^2 from the thin SVD of L, whose singular
      values above max(shape) eps sigma_max count as rho's rank.  Pairs
      inside V_perp carry B~ = 0; the pairs (r, perp) add X - X^dagger, with
      X = V_r D O^dagger, O = (1 - V_r V_r^dagger) K and
      D = 1 / (2^k p + delta) where kept.  O = W R, W from O's thin SVD under
      the same rank rule and projected against V_r once more, and Q = [V_r, W].

    Each block is (rows, Q, M), with A = Q M Q^dagger on those rows.  The
    odd-Y pool spans i times the real antisymmetric matrices: it reads the
    real factor [Re L, Im L] of Re rho over the pairs i != j, so its Q and
    M / i are real.  The parity-even pool keeps the parity of the local
    index: each parity block is solved on its own rows.

    A stack of factors (s, 2^k, cols), with one scale per state, is solved
    at once: Q and M gain the stack axis, and the residual has one entry per
    state.  Where the states' ranks differ, the range route keeps the
    stack's largest and zeroes each state's columns past its own, so those
    columns carry no b and no M.
    """
    dim = factor.shape[-2]
    odd_y = config.pool_kind == "pauli_odd_y"
    if odd_y:
        factor, g_factor = _real_columns(factor), _real_columns(g_factor)
    rows_list = [slice(None)]
    if config.pool_kind == "fermionic_number_conserving":
        parity = np.bitwise_count(np.arange(dim)) & 1
        rows_list = [parity == 0, parity == 1]
    block_rows = dim // len(rows_list)
    in_range = block_rows >= _RANGE_MIN_ROWS and _RANGE_CROSSOVER * factor.shape[-1] <= dim
    parts = []
    for rows in rows_list:
        f = factor[..., rows, :]
        if not in_range:
            p, v = np.linalg.eigh(f @ f.conj().mT)
            v = v[..., ::-1].copy()  # largest first, in the layout BLAS reads fastest
            parts.append((rows, v, p[..., ::-1], -(g_factor[..., rows, :] @ (f.conj().mT @ v))))
            continue
        u, sigma, vh = _thin_svd(f)
        if sigma.shape[-1]:  # a parity block without amplitude has no pairs that carry b
            k_mat = (g_factor[..., rows, :] @ vh.conj().mT) * -sigma[..., None, :]
            parts.append((rows, u, sigma**2, k_mat))
    # the largest S eigenvalue over the pool's pairs: (0, 1) on the odd-Y pool
    tops = [p[..., :2] for _, _, p, _ in parts]
    if odd_y:
        s_max = dim * tops[0].sum(-1)
    else:  # over the one or two parity blocks
        s_max = dim * (2.0 * np.maximum(tops[0][..., 0], tops[-1][..., 0]))
    # one per state, against each state's p and M
    cut = np.asarray(config.pinv_tol * (s_max + config.delta))[..., None]
    coefficient = np.asarray(-1j * dim * scale)[..., None, None]
    blocks, dropped = [], 0.0
    for rows, v, p, k_mat in parts:
        vk = v.conj().mT @ k_mat
        rotated = vk.conj().mT - vk
        # the odd-Y pool has no pairs (i, i), but its rotated diagonal is 0
        lam = dim * (p[..., :, None] + p[..., None, :]) + config.delta
        keep = lam >= cut[..., None]
        lost = np.where(keep, 0.0, rotated).reshape(rotated.shape[:-2] + (-1,))
        dropped += np.vecdot(lost, lost).real
        m = np.where(keep, rotated, 0.0) / np.where(keep, lam, 1.0)
        if in_range:  # couple V_r to rho's kernel through W
            outside = k_mat - v @ vk
            lam_out = dim * p + config.delta
            live = lam_out >= cut
            d = live / np.where(live, lam_out, 1.0)
            if not live.all():  # pairs (r, perp) below the cut
                lost = np.where(live[..., None, :], 0.0, outside)
                lost = lost.reshape(lost.shape[:-2] + (-1,))
                dropped += 2.0 * np.vecdot(lost, lost).real
            w, so, woh = _thin_svd(outside)
            wo = woh.conj().mT
            # O's roundoff along V_r reaches W divided by O's singular values:
            # projected out, W stays orthogonal to V_r to roundoff on graded states
            w -= v @ (v.conj().mT @ w)
            r, out = p.shape[-1], so.shape[-1]
            coupled = np.zeros(factor.shape[:-2] + (r + out,) * 2, dtype=m.dtype)
            coupled[..., :r, :r] = m
            coupled[..., :r, r:] = d[..., :, None] * (wo * so[..., None, :])
            coupled[..., r:, :r] = -coupled[..., :r, r:].conj().mT
            v, m = np.concatenate((v, w), axis=-1), coupled
        blocks.append((rows, v, coefficient * m))
    return blocks, math.sqrt(dim) * np.abs(scale) * np.sqrt(dropped)


def _thin_svd(matrix: np.ndarray):
    """(U, sigma, V^dagger) of the thin SVD of a matrix cut to its rank: the
    singular values above max(shape) eps sigma_max.  A stack keeps its
    largest rank; a state's columns of U and sigma past its own are zeroed."""
    u, sigma, vh = np.linalg.svd(matrix, full_matrices=False)
    # through .T the singular values lead: sigma.T[0] holds each state's
    # largest (a scalar for one state), and each state's rank is the run of
    # True at the top of its column of ``above``
    above = sigma.T > sigma.T[0] * (max(matrix.shape[-2:]) * _EPS)
    count, columns = np.count_nonzero(above), len(above)
    rank = count * columns // above.size  # the rank if the states share one
    if np.count_nonzero(above[:rank]) < count:  # they do not: a state of lower rank
        rank = np.count_nonzero(above.reshape(columns, -1).any(1))  # the largest
        above = above[:rank].T
        u, sigma = u[..., :rank] * above[..., None, :], sigma[..., :rank] * above
    return u[..., :rank], sigma[..., :rank], vh[..., :rank, :]


def _real_columns(factor: np.ndarray) -> np.ndarray:
    """A complex (rows, cols) factor viewed as real (rows, 2 cols): each
    column's real part, then its imaginary part; a view of a C-contiguous
    factor, per matrix of a stack."""
    return np.ascontiguousarray(factor).view(float)


def _advance(
    amps: np.ndarray,
    plan: _TermPlan,
    g: np.ndarray,
    dtau: float,
    config: QiteConfig,
    rng: Optional[np.random.Generator],
) -> Tuple[np.ndarray, StepRecord]:
    """The normalized amplitudes after one step of ``amps``, a state or a
    stack of states (s, 2^n), and its record.  A plan that forms S steps a
    stack one state at a time, so its noise draws follow the states."""
    if plan.local_masks is not None and amps.ndim > 1:
        steps = [_advance(a, plan, g, dtau, config, rng) for a in amps]
        c, residual = np.array([(r.c, r.residual) for _, r in steps]).T
        record = StepRecord(plan.index, dtau, c, residual)
        return np.stack([a for a, _ in steps]), record
    factor, g_factor, c, scale = _step_operators(plan, amps, g, dtau, config, rng)
    if plan.local_masks is None:
        blocks, residual = _solve_in_rho(factor, g_factor, scale, config)
        odd_y = config.pool_kind == "pauli_odd_y"
        # update the factor in place, through its real columns where
        # A = i (real antisymmetric) makes the step a rotation
        target = _real_columns(factor) if odd_y else factor
        for rows, q, m in blocks:  # e^{-i dtau A} = 1 + Q (e^{-i dtau M} - 1) Q^dagger
            _check_finite(plan, m)
            step = _unitary(m, dtau, less=1.0)
            step = step.real if odd_y else step
            target[..., rows, :] += q @ (step @ (q.conj().mT @ target[..., rows, :]))
    else:
        smat, bvec = _explicit_system(plan, factor, g_factor, scale, config, rng)
        coefficients, residual = solve_step(smat, bvec, config.delta, config.pinv_tol)
        k = len(plan.unitary_support)
        generator = PauliOperator.from_masks(coefficients, plan.local_masks, k).dense()
        _check_finite(plan, generator)
        factor = _unitary(generator, dtau) @ factor
    amps = _from_support_major(factor, plan.unitary_support, amps.shape[-1].bit_length() - 1)
    return amps / _norm(amps)[..., None], StepRecord(plan.index, dtau, c, residual)


def _check_finite(plan: _TermPlan, generator: np.ndarray) -> None:
    if not np.isfinite(generator).all():
        raise NumericalError(f"term {plan.index}: non-finite generator")


def _unitary(generator: np.ndarray, dtau: float, less: float = 0.0) -> np.ndarray:
    """e^{-i dtau A} - less, from the eigendecomposition of A (of each A of a
    stack)."""
    evals, evecs = np.linalg.eigh(generator)
    return (evecs * (np.exp(-1j * dtau * evals) - less)[..., None, :]) @ evecs.conj().mT


def qite_step(
    state: StateVector,
    term: LocalTerm,
    config: QiteConfig,
    term_index: int = 0,
    dtau: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[StateVector, StepRecord]:
    """One reconstruction step for a single Hamiltonian term."""
    config.validate()
    (plan,) = _term_plans([term], config, state.n_qubits, term_index)
    dtau = config.dtau if dtau is None else dtau
    g = _step_matrix(plan, dtau, config)
    amps, record = _advance(state.amplitudes, plan, g, dtau, config, rng)
    return StateVector(amps, state.n_qubits), record


def _sweep_schedule(n_terms: int, config: QiteConfig) -> List[Tuple[int, float]]:
    if config.trotter_order == 1 or n_terms <= 1:  # a METTS chain at beta = 0 passes no plans
        return [(m, config.dtau) for m in range(n_terms)]
    half = config.dtau / 2.0
    forward = [(m, half) for m in range(n_terms - 1)]
    return forward + [(n_terms - 1, config.dtau)] + forward[::-1]


def qite_evolve(
    state0: StateVector,
    hamiltonian: Hamiltonian,
    config: QiteConfig,
    rng: Optional[np.random.Generator] = None,
    on_sweep: Optional[Callable[[int, StateVector], None]] = None,
) -> Trajectory:
    """Run ``config.n_steps`` sweeps and record the per-sweep history.

    ``on_sweep(l, state)`` is invoked after each sweep for observers.
    """
    config.validate()
    if state0.n_qubits != hamiltonian.n_qubits:
        raise DimensionError("state and Hamiltonian widths differ")
    plans = _term_plans(hamiltonian.terms, config, hamiltonian.n_qubits)
    energies = [energy(state0, hamiltonian)]
    inv_sq_norms = [1.0]
    records: List[StepRecord] = []

    def record_sweep(amps: np.ndarray, sweep_records: List[StepRecord]) -> None:
        state = StateVector(amps, hamiltonian.n_qubits)
        records.extend(sweep_records)
        inv_sq_norms.append(inv_sq_norms[-1] * math.prod(r.c for r in sweep_records))
        energies.append(energy(state, hamiltonian))
        if on_sweep is not None:
            on_sweep(len(energies) - 1, state)

    amps = _propagate(state0.amplitudes, plans, config, rng, record_sweep)
    return Trajectory(
        betas=config.dtau * np.arange(config.n_steps + 1),
        energies=np.array(energies),
        inv_sq_norms=np.array(inv_sq_norms),
        records=records,
        config=config,
        final_state=StateVector(amps, hamiltonian.n_qubits),
    )


def _propagate(amps, plans, config, rng=None, record_sweep=None) -> np.ndarray:
    """The amplitudes ``amps`` of a state, or of a stack of states (s, 2^n)
    evolved together, after ``config.n_steps`` sweeps on prebuilt plans.

    Repeated evolutions share the plans; ``record_sweep(amps, records)``
    sees each sweep's amplitudes and step records.  Each (term, dtau) of the
    schedule builds its G once.
    """
    schedule = _sweep_schedule(len(plans), config)
    matrices = {(m, dt): _step_matrix(plans[m], dt, config) for m, dt in set(schedule)}
    for _ in range(config.n_steps):
        records = []
        for m, dt in schedule:
            amps, record = _advance(amps, plans[m], matrices[m, dt], dt, config, rng)
            records.append(record)
        if record_sweep is not None:
            record_sweep(amps, records)
    return amps
