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
# rank, and k is at least the pool's _RANGE_MIN_QUBITS.  Below either the
# range route measured slower per step on some shape: up to 1.3 times at
# k <= 3, up to 1.5 at k <= 3 and 1.2 at k = 4 on the parity-even pool
# (whose range solve runs per parity block), up to 2.6 at a ratio of 1
_RANGE_CROSSOVER = 4
_RANGE_MIN_QUBITS = {"pauli_full": 4, "pauli_odd_y": 4, "fermionic_number_conserving": 5}
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
    """Diagnostics of one reconstruction step."""

    term_index: int
    dtau: float
    c: float
    residual: float
    domain: Tuple[int, ...]


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
    while len(domain) < target:
        added = False
        blocks = _contiguous_blocks(sorted(domain))
        prefer_left = round_index % 2 == 0
        for lo, hi in blocks:
            if len(domain) >= target:
                break
            candidates = [lo - 1, hi + 1] if prefer_left else [hi + 1, lo - 1]
            for q in candidates:
                if 0 <= q < n_qubits and q not in domain:
                    domain.add(q)
                    added = True
                    break
        if not added:
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
    domain: Tuple[int, ...]
    unitary_support: Tuple[int, ...]
    h_eig: Tuple[np.ndarray, np.ndarray]  # eigh of the term on its own support
    h_support: Tuple[int, ...]
    # (x, yz, i^nY) per pool string over the support when the step forms S;
    # None when it is solved in the eigenbasis or the range of rho
    local_masks: Optional[Tuple[np.ndarray, ...]]
    in_range: bool = False  # the step is solved in the range of rho


def _term_plans(
    terms: Sequence[LocalTerm], config: QiteConfig, n_qubits: int, first_index: int = 0
) -> List[_TermPlan]:
    """Plans for ``terms`` numbered from ``first_index``, each with its route.

    A noiseless step on a Pauli pool, or on a fermionic pool over a
    contiguous domain (the parity-even strings of the domain), is solved in
    the eigenbasis of rho on the domain and reads no pool; when rho's rank
    is bounded well below 2^k (``_in_range``) it is solved in rho's range.
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
                support = _pool_support(index, domain, (), config)
                in_range = _in_range(n_qubits, len(support), config.pool_kind)
                pools[domain] = (support, None, in_range)
            else:
                strings = enumerate_pool(OperatorPool(config.pool_kind, domain), n_qubits)
                support = _pool_support(index, domain, strings, config)
                pools[domain] = (support, _pauli_masks(tuple(strings), support), False)
        plans.append(_build_plan(index, term, domain, *pools[domain]))
    return plans


def _in_range(n_qubits: int, k: int, pool_kind: str) -> bool:
    """Whether a noiseless step on a k-qubit support is solved in rho's range.

    rho = L L^dagger has rank at most the column count of the factor the
    pool reads: 2^(n-k) for L, twice that for the odd-Y pool's [Re L, Im L].
    """
    columns = 2 ** (n_qubits - k) * (2 if pool_kind == "pauli_odd_y" else 1)
    return k >= _RANGE_MIN_QUBITS[pool_kind] and _RANGE_CROSSOVER * columns <= 2**k


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


def _build_plan(
    index: int, term: LocalTerm, domain, support, masks, in_range: bool = False
) -> _TermPlan:
    """The plan of one term; ``in_range`` puts it on the range route."""
    h_support = tuple(sorted(term.support))
    h_eig = np.linalg.eigh(dense_on_support(term.pauli_sum, h_support))
    return _TermPlan(index, domain, support, h_eig, h_support, masks, in_range)


# ---------------------------------------------------------------------------
# linear system assembly and solves


def _step_operators(
    plan: _TermPlan,
    state: StateVector,
    dtau: float,
    config: QiteConfig,
    rng: Optional[np.random.Generator],
):
    """(L, G L, c, scale) of one step, the inputs of every route.

    L is the state's (2^k, 2^(n-k)) factor on the unitary support, a copy the
    step may update in place, so rho = L L^dagger.  G acts through the term's
    eigendecomposition on its own support: G = h (measurable, c = 1 - 2 dtau
    <h>, whose noise is drawn here first) or e^{-dtau h} (exact_delta0,
    c = |G psi|^2 = Tr(G rho G)).  S a holds the Pauli coefficients of
    {A, rho} and b those of B = i 2^k scale [G, rho].
    """
    if config.noise_sigma > 0 and rng is None:
        raise ConfigError("noise_sigma > 0 requires a random generator")
    evals, evecs = plan.h_eig
    exact = config.b_mode == "exact_delta0"
    g = (evecs * (np.exp(-dtau * evals) if exact else evals)) @ evecs.conj().T
    amps, n = state.amplitudes, state.n_qubits
    g_amps = _apply_matrix_on_support(amps, g, plan.h_support, n)
    if exact:
        c = float(np.vdot(g_amps, g_amps).real)
        scale = -1.0 / (dtau * math.sqrt(c))
    else:
        h_exp = float(np.vdot(amps, g_amps).real)
        if config.noise_sigma > 0:
            h_exp += float(rng.normal(0.0, config.noise_sigma))
        c = 1.0 - 2.0 * dtau * h_exp
        if c <= 0.0:
            raise NumericalError(
                f"first-order norm estimate c={c:g} is not positive; reduce dtau"
            )
        scale = 1.0 / math.sqrt(c) if config.b_norm_factor else 1.0
    factor = _support_major(amps, plan.unitary_support, n).copy()
    return factor, _support_major(g_amps, plan.unitary_support, n), c, scale


def _rho_and_commutator(factor: np.ndarray, g_factor: np.ndarray):
    """(rho, [G, rho]) = (L L^dagger, X - X^dagger) with X = (G L) L^dagger."""
    x = g_factor @ factor.conj().T
    return factor @ factor.conj().T, x - x.conj().T


def _explicit_system(
    plan: _TermPlan,
    rho: np.ndarray,
    comm: np.ndarray,
    scale: float,
    config: QiteConfig,
    rng: Optional[np.random.Generator],
):
    """(Smat, bvec) from Pauli traces; the b noise is drawn before the S noise.

    Smat_IJ = 2 Re Tr(sigma_I sigma_J rho) and
    b_I = -2 scale Im Tr(sigma_I G rho) = -scale Im Tr(sigma_I comm), with
    comm = [G, rho].
    sigma_I sigma_J is i^(nY_I + nY_J) (-1)^popcount(yz_I & x_J) times the
    string with masks (x_I ^ x_J, yz_I ^ yz_J).
    """
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
    plan = _build_plan(0, term, tuple(pool.domain), support, masks)
    factor, g_factor, c, scale = _step_operators(plan, state, dtau, config, rng)
    rho, comm = _rho_and_commutator(factor, g_factor)
    return (*_explicit_system(plan, rho, comm, scale, config, rng), c)


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


def _solve_in_rho_basis(rho: np.ndarray, comm: np.ndarray, scale: float, config: QiteConfig):
    """(generator, residual) of a noiseless step on a k-qubit support.

    In the eigenbasis V of rho the full pool's S is 2^k (p_i + p_j) on each
    pair (i, j) and B~ = i 2^k scale V^dagger comm V with comm = [G, rho], so
    A = -V A~ V^dagger with A~ = B~ / (2^k (p_i + p_j) + delta) on the pairs
    solve_step's cutoff keeps; the residual is |b| on dropped pairs.  The
    odd-Y pool spans i times the real antisymmetric matrices: its pairs are
    i != j in the real eigenbasis of Re rho, and B keeps i Re comm.  The
    parity-even pool keeps the parity of the local index: its pairs lie in
    the parity blocks, each block of rho gets its own eigh, and the
    block-diagonal V rotates each diagonal block of comm by itself.
    """
    dim = rho.shape[0]
    pairs = np.ones((dim, dim), dtype=bool)
    if config.pool_kind == "pauli_odd_y":
        rho, comm = rho.real, comm.real
        pairs = ~np.eye(dim, dtype=bool)
    if config.pool_kind == "fermionic_number_conserving":
        parity = np.bitwise_count(np.arange(dim)) & 1
        pairs = parity[:, None] == parity
        p, basis = np.empty(dim), np.zeros_like(rho)
        for block in (parity == 0, parity == 1):  # one eigh each: no mixing
            cut = np.ix_(block, block)
            p[block], basis[cut] = np.linalg.eigh(rho[cut])
    else:
        p, basis = np.linalg.eigh(rho)
    rotated = basis.conj().T @ comm @ basis
    s_eigs = dim * (p[:, None] + p)
    s_max = float(s_eigs[pairs].max())
    lam = s_eigs + config.delta
    keep = pairs & (lam >= config.pinv_tol * (s_max + config.delta))
    solved = np.where(keep, rotated, 0.0) / np.where(keep, lam, 1.0)
    generator = (-1j * dim * scale) * (basis @ solved @ basis.conj().T)
    residual = math.sqrt(dim) * abs(scale) * float(np.linalg.norm(rotated[pairs & ~keep]))
    return generator, residual


def _solve_in_rho_range(
    factor: np.ndarray, g_factor: np.ndarray, scale: float, config: QiteConfig
):
    """(blocks, residual) of a noiseless step in the range of rho = L L^dagger.

    The solve of _solve_in_rho_basis with its eigenbasis split as
    V = [V_r, V_perp], rho V_perp = 0.  Pairs inside V_perp carry B~ = 0, so
    A = -i 2^k scale (V_r A~_r V_r^dagger + X - X^dagger), where A~_r is the
    r x r pair solve, X = V_r D O^dagger with O = (1 - V_r V_r^dagger) K the
    pairs (r, perp), D = 1 / (2^k p + delta) where kept, and K = -G L Z^dagger
    for Z = V_r^dagger L.  V_r and p = sigma^2 come from the thin SVD of the
    factor; singular values above max(shape) eps sigma_max count as rho's
    rank.  With O = W R (W from the thin SVD of O, under the same rank
    rule, then projected against V_r once more), A = Q M Q^dagger for
    Q = [V_r, W], returned per block as (rows, Q, M) on those rows of the
    support.  The odd-Y pool reads the
    real factor [Re L, Im L] of Re rho over the pairs i != j, so its Q and
    M / i are real; the parity-even pool solves each parity block of the
    local index with its own rows.
    """
    dim = factor.shape[0]
    odd_y = config.pool_kind == "pauli_odd_y"
    if odd_y:
        factor, g_factor = _real_columns(factor), _real_columns(g_factor)
    rows_list = [slice(None)]
    if config.pool_kind == "fermionic_number_conserving":
        parity = np.bitwise_count(np.arange(dim)) & 1
        rows_list = [parity == 0, parity == 1]
    parts = []
    for rows in rows_list:
        f = factor[rows]
        u, sigma, vh = np.linalg.svd(f, full_matrices=False)
        rank = np.count_nonzero(sigma > sigma[0] * max(f.shape) * _EPS)
        if rank:  # a parity block without amplitude has no pairs that carry b
            sigma = sigma[:rank]
            k_mat = (g_factor[rows] @ vh[:rank].conj().T) * -sigma
            parts.append((rows, u[:, :rank], sigma**2, k_mat))
    # the largest S eigenvalue over the pool's pairs: (0, 1) on the odd-Y pool
    tops = [p[:2] for _, _, p, _ in parts]
    s_max = dim * (tops[0].sum() if odd_y else 2.0 * max(top[0] for top in tops))
    cut = config.pinv_tol * (s_max + config.delta)
    blocks, dropped = [], 0.0
    for rows, v, p, k_mat in parts:
        vk = v.conj().T @ k_mat
        rotated = vk.conj().T - vk
        outside = k_mat - v @ vk
        # the odd-Y pool has no pairs (i, i), but its rotated diagonal is 0
        lam = dim * (p[:, None] + p) + config.delta
        keep = lam >= cut
        lam_out = dim * p + config.delta
        d = np.where(lam_out >= cut, 1.0 / lam_out, 0.0)
        lost = np.where(keep, 0.0, rotated)
        dropped += np.vdot(lost, lost).real
        if not d.all():  # pairs (r, perp) below the cut
            lost = outside[:, d == 0.0]
            dropped += 2.0 * np.vdot(lost, lost).real
        w, so, woh = np.linalg.svd(outside, full_matrices=False)
        live = np.count_nonzero(so > so[0] * max(outside.shape) * _EPS)
        w, so, wo = w[:, :live], so[:live], woh[:live].conj().T
        # O's roundoff along V_r reaches W divided by O's singular values:
        # projected out, W stays orthogonal to V_r to roundoff on graded states
        w -= v @ (v.conj().T @ w)
        r = p.size
        m = np.zeros((r + live,) * 2, dtype=rotated.dtype)
        m[:r, :r] = np.where(keep, rotated / lam, 0.0)
        m[:r, r:] = d[:, None] * (wo * so)
        m[r:, :r] = -m[:r, r:].conj().T
        q = np.concatenate((v, w), axis=1)
        blocks.append((rows, q, (-1j * dim * scale) * m))
    return blocks, math.sqrt(dim) * abs(scale) * math.sqrt(dropped)


def _real_columns(factor: np.ndarray) -> np.ndarray:
    """A complex (rows, cols) factor viewed as real (rows, 2 cols): each
    column's real part, then its imaginary part; a view of a C-contiguous
    factor."""
    return np.ascontiguousarray(factor).view(float).reshape(factor.shape[0], -1)


def _run_step(
    state: StateVector,
    plan: _TermPlan,
    dtau: float,
    config: QiteConfig,
    rng: Optional[np.random.Generator],
) -> Tuple[StateVector, StepRecord]:
    factor, g_factor, c, scale = _step_operators(plan, state, dtau, config, rng)
    if plan.in_range:
        blocks, residual = _solve_in_rho_range(factor, g_factor, scale, config)
        odd_y = config.pool_kind == "pauli_odd_y"
        # update the factor in place, through its real columns where
        # A = i (real antisymmetric) makes the step a rotation
        target = _real_columns(factor) if odd_y else factor
        for rows, q, m in blocks:  # e^{-i dtau A} = 1 + Q (e^{-i dtau M} - 1) Q^dagger
            _check_finite(plan, m)
            step = _unitary(m, dtau, less=1.0)
            step = step.real if odd_y else step
            target[rows] += q @ (step @ (q.conj().T @ target[rows]))
    else:
        rho, comm = _rho_and_commutator(factor, g_factor)
        if plan.local_masks is None:
            generator, residual = _solve_in_rho_basis(rho, comm, scale, config)
        else:
            smat, bvec = _explicit_system(plan, rho, comm, scale, config, rng)
            coefficients, residual = solve_step(smat, bvec, config.delta, config.pinv_tol)
            k = len(plan.unitary_support)
            generator = PauliOperator.from_masks(coefficients, plan.local_masks, k).dense()
        _check_finite(plan, generator)
        factor = _unitary(generator, dtau) @ factor
    amps = _from_support_major(factor, plan.unitary_support, state.n_qubits)
    amps = amps / np.linalg.norm(amps)
    record = StepRecord(plan.index, dtau, c, residual, plan.domain)
    return StateVector(amps, state.n_qubits), record


def _check_finite(plan: _TermPlan, generator: np.ndarray) -> None:
    if not np.isfinite(generator).all():
        raise NumericalError(f"term {plan.index}: non-finite generator")


def _unitary(generator: np.ndarray, dtau: float, less: float = 0.0) -> np.ndarray:
    """e^{-i dtau A} - less, from the eigendecomposition of A."""
    evals, evecs = np.linalg.eigh(generator)
    return (evecs * (np.exp(-1j * dtau * evals) - less)) @ evecs.conj().T


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
    return _run_step(state, plan, config.dtau if dtau is None else dtau, config, rng)


def _sweep_schedule(n_terms: int, config: QiteConfig) -> List[Tuple[int, float]]:
    if config.trotter_order == 1 or n_terms == 1:
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

    def record_sweep(state: StateVector, sweep_records: List[StepRecord]) -> None:
        records.extend(sweep_records)
        inv_sq_norms.append(inv_sq_norms[-1] * math.prod(r.c for r in sweep_records))
        energies.append(energy(state, hamiltonian))
        if on_sweep is not None:
            on_sweep(len(energies) - 1, state)

    final_state = _propagate(state0, plans, config, rng, record_sweep)
    return Trajectory(
        betas=config.dtau * np.arange(config.n_steps + 1),
        energies=np.array(energies),
        inv_sq_norms=np.array(inv_sq_norms),
        records=records,
        config=config,
        final_state=final_state,
    )


def _propagate(state, plans, config, rng=None, record_sweep=None) -> StateVector:
    """The state after ``config.n_steps`` sweeps on prebuilt plans.

    Repeated evolutions share the plans; ``record_sweep(state, records)``
    sees each sweep's state and step records.
    """
    schedule = _sweep_schedule(len(plans), config)
    for _ in range(config.n_steps):
        records = []
        for m, dt in schedule:
            state, record = _run_step(state, plans[m], dt, config, rng)
            records.append(record)
        if record_sweep is not None:
            record_sweep(state, records)
    return state
