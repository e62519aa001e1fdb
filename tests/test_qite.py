import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitekit.analysis import exact_ground, exact_ite
from qitekit.errors import ConfigError, DimensionError, NumericalError, PoolError, ResourceError
from qitekit.hamiltonians import (
    Hamiltonian,
    LocalTerm,
    energy,
    heisenberg_1d,
    one_qubit_field,
    tfi_1d,
)
from qitekit.pauli import OperatorPool, PauliString, enumerate_pool, multiply
from qitekit.qite import (
    B_MODES,
    QiteConfig,
    _build_plan,
    _in_range,
    _rho_and_commutator,
    _run_step,
    _solve_in_rho_basis,
    _solve_in_rho_range,
    _step_operators,
    _term_plans,
    build_linear_system,
    choose_domain,
    qite_evolve,
    qite_step,
    solve_step,
)
from qitekit.statevector import (
    StateVector,
    _from_support_major,
    _pauli_masks,
    _pauli_traces,
    apply_pauli_sum,
    apply_term_exp,
    expectation,
    fidelity,
    neel_state,
    plus_state,
    product_state,
    zero_state,
)

from conftest import dense_pauli_string, random_state

POOLS = ["pauli_full", "pauli_odd_y", "fermionic_number_conserving"]


# --------------------------------------------------------------- domains


def test_choose_domain_contiguous_growth():
    # around an interior bond the domain grows one left, one right
    assert choose_domain((3, 4), 4, 8) == (2, 3, 4, 5)
    # at the chain start growth is redirected inward
    assert choose_domain((0, 1), 4, 8) == (0, 1, 2, 3)
    assert choose_domain((6, 7), 4, 8) == (4, 5, 6, 7)


def test_choose_domain_long_range_pair():
    # a distant pair grows a neighborhood around each endpoint
    assert choose_domain((0, 5), 4, 6) == (0, 1, 4, 5)


def test_choose_domain_edge_cases():
    # domain never shrinks below the support, never exceeds the register
    assert choose_domain((1, 2, 3), 2, 6) == (1, 2, 3)
    assert choose_domain((0,), 10, 3) == (0, 1, 2)
    assert choose_domain((2,), 1, 6) == (2,)
    with pytest.raises(PoolError):
        choose_domain((), 2, 4)
    with pytest.raises(PoolError):
        choose_domain((0,), 0, 4)
    with pytest.raises(DimensionError):
        choose_domain((9,), 2, 4)


# ------------------------------------------------------- linear system


def smat_oracle(state, strings):
    """Entry (i, j) = 2 Re <psi| sigma_i sigma_j |psi> via string products."""
    p = len(strings)
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            prod = multiply(strings[i], strings[j])
            val = prod.phase * expectation(state, prod.string)
            # phase in {1,-1,i,-i}; expectation real, so Re is exact
            out[i, j] = 2.0 * complex(val).real
    return out


def test_smat_matches_string_product_oracle(rng):
    h = heisenberg_1d(3)
    state = neel_state(3)
    pool = OperatorPool("pauli_full", (0, 1))
    strings = enumerate_pool(pool, 3)
    smat, _, _ = build_linear_system(state, h.terms[0], pool, 0.1)
    assert np.allclose(smat, smat_oracle(state, strings), atol=1e-12)
    assert np.allclose(np.diag(smat), 2.0)
    assert np.allclose(smat, smat.T)
    # also on a less structured state
    from conftest import random_state
    from qitekit.statevector import StateVector

    st = StateVector(random_state(3, rng), 3)
    smat, _, _ = build_linear_system(st, h.terms[0], pool, 0.1)
    assert np.allclose(smat, smat_oracle(st, strings), atol=1e-12)


def test_b_vanishes_on_even_y_strings():
    # real amplitudes + real h: only odd-Y strings can pick up a signal
    h = heisenberg_1d(2)
    state = neel_state(2)
    pool = OperatorPool("pauli_full", (0, 1))
    strings = enumerate_pool(pool, 2)
    for mode in ("measurable", "exact_delta0"):
        cfg = QiteConfig(b_mode=mode)
        _, bvec, _ = build_linear_system(state, h.terms[0], pool, 0.1, cfg)
        for s, b in zip(strings, bvec):
            if s.y_count % 2 == 0:
                assert abs(b) < 1e-12, (mode, s)


def test_b_modes_agree_to_first_order():
    h = heisenberg_1d(2)
    state = neel_state(2)
    pool = OperatorPool("pauli_odd_y", (0, 1))
    dtau = 0.05
    _, b_meas, c_meas = build_linear_system(
        state, h.terms[0], pool, dtau, QiteConfig(b_mode="measurable")
    )
    _, b_exact, c_exact = build_linear_system(
        state, h.terms[0], pool, dtau, QiteConfig(b_mode="exact_delta0")
    )
    assert np.max(np.abs(b_meas - b_exact)) < 0.05
    assert abs(c_meas - c_exact) < 0.01
    # the measurable c is the first-order surrogate 1 - 2 dtau <h>
    h_exp = sum(c * expectation(state, s) for c, s in h.terms[0].pauli_sum)
    assert abs(c_meas - (1.0 - 2 * dtau * h_exp)) < 1e-12



def test_b_norm_factor_off_scales_measurable_b(rng):
    # without the 1/sqrt(c) factor the measurable b is sqrt(c) times larger
    from conftest import random_state

    h = heisenberg_1d(3)
    state = StateVector(random_state(3, rng), 3)
    for kind in ("pauli_full", "pauli_odd_y"):
        pool = OperatorPool(kind, (0, 1, 2))
        smat, b_default, c = build_linear_system(state, h.terms[1], pool, 0.1)
        smat_off, b_off, c_off = build_linear_system(
            state, h.terms[1], pool, 0.1, QiteConfig(b_norm_factor=False)
        )
        assert c_off == c and np.array_equal(smat_off, smat)
        assert np.max(np.abs(b_off - np.sqrt(c) * b_default)) < 1e-12
        assert np.max(np.abs(b_default)) > 1e-3  # a signal to scale

def test_first_step_descends():
    h = heisenberg_1d(4)
    state = neel_state(4)
    cfg = QiteConfig(domain_size=2, pool_kind="pauli_odd_y", dtau=0.1)
    e_before = energy(state, h)
    after, record = qite_step(state, h.terms[0], cfg, term_index=0)
    assert energy(after, h) < e_before
    # a Neel bond has <h> = -1/4, so the norm factor exceeds 1
    assert record.c == pytest.approx(1.0 + 2 * 0.1 * 0.25, abs=1e-12)


def test_measurable_c_guard():
    # huge dtau makes the first-order norm estimate non-positive; needs a
    # state with <h> > 0, e.g. aligned spins on one exchange bond (+1/4)
    h = heisenberg_1d(2)
    with pytest.raises(NumericalError):
        build_linear_system(
            product_state("00"),
            h.terms[0],
            OperatorPool("pauli_odd_y", (0, 1)),
            10.0,
            QiteConfig(b_mode="measurable"),
        )


def test_noise_requires_rng():
    h = heisenberg_1d(2)
    with pytest.raises(ConfigError):
        build_linear_system(
            neel_state(2),
            h.terms[0],
            OperatorPool("pauli_odd_y", (0, 1)),
            0.1,
            QiteConfig(noise_sigma=1e-3),
        )


def test_solve_step_basics():
    coeffs, residual = solve_step(2.0 * np.eye(3), np.array([2.0, -4.0, 0.0]))
    assert np.allclose(coeffs, [-1.0, 2.0, 0.0])
    assert residual < 1e-12
    with pytest.raises(DimensionError):
        solve_step(np.eye(3), np.ones(2))


def test_solve_step_rank_deficient():
    # duplicate directions: pseudoinverse picks the minimal-norm solution
    smat = np.array([[2.0, 2.0], [2.0, 2.0]])
    bvec = np.array([-2.0, -2.0])
    coeffs, residual = solve_step(smat, bvec)
    assert np.allclose(coeffs, [0.5, 0.5])
    assert residual < 1e-12
    # ridge regularization shrinks the solution norm
    damped, _ = solve_step(smat, bvec, delta=1.0)
    assert np.linalg.norm(damped) < np.linalg.norm(coeffs)


def _basis_plan(term, cfg, n):
    """The plan _term_plans builds for ``term``, moved off the range route."""
    (plan,) = _term_plans([term], cfg, n)
    if not plan.in_range:
        return plan
    return _build_plan(plan.index, term, plan.domain, plan.unitary_support, None)


def _rho_basis_step(state, term, cfg, dtau):
    """(plan, generator, residual) of a noiseless step solved in the eigenbasis of rho."""
    plan = _basis_plan(term, cfg, state.n_qubits)
    factor, g_factor, _, scale = _step_operators(plan, state, dtau, cfg, None)
    rho, comm = _rho_and_commutator(factor, g_factor)
    return (plan, *_solve_in_rho_basis(rho, comm, scale, cfg))


def _pool_coefficients(generator, kind, domain, n):
    """Tr(sigma_I A) / 2^k for every string of the pool on ``domain``."""
    strings = enumerate_pool(OperatorPool(kind, domain), n)
    masks = _pauli_masks(tuple(strings), domain)
    return _pauli_traces(generator, masks).real / 2 ** len(domain)


def test_factored_solver_matches_dense_path(rng):
    # same step with noise_sigma=0 (eigenbasis solve) and via explicit solve_step
    h = heisenberg_1d(3)
    state = neel_state(3)
    pool = OperatorPool("pauli_odd_y", (0, 1))
    cfg = QiteConfig(domain_size=2, pool_kind="pauli_odd_y", dtau=0.1)
    smat, bvec, _ = build_linear_system(state, h.terms[0], pool, 0.1, cfg)
    dense_coeffs, _ = solve_step(smat, bvec, cfg.delta, cfg.pinv_tol)
    plan, generator, _ = _rho_basis_step(state, h.terms[0], cfg, 0.1)
    coefficients = _pool_coefficients(generator, "pauli_odd_y", plan.unitary_support, 3)
    assert np.allclose(coefficients, dense_coeffs, atol=1e-10)


def _register_system(state, term, strings, dtau, b_mode):
    """S and b from register-wide sigma_I |psi> rows and register-wide h."""
    rows = np.array([dense_pauli_string(s) @ state.amplitudes for s in strings])
    smat = 2.0 * (rows.conj() @ rows.T).real
    if b_mode == "exact_delta0":
        propagated, _ = apply_term_exp(state, term, dtau)
        delta0 = (propagated.amplitudes - state.amplitudes) / dtau
        return smat, 2.0 * (rows.conj() @ delta0).imag
    hpsi = apply_pauli_sum(state, term.pauli_sum)
    c = 1.0 - 2.0 * dtau * np.vdot(state.amplitudes, hpsi).real
    return smat, -2.0 * (rows.conj() @ hpsi).imag / np.sqrt(c)


@pytest.mark.parametrize("b_mode", ["measurable", "exact_delta0"])
def test_domain_factor_system_matches_register_rows(rng, b_mode):
    # S and b depend on psi only through the reduced state on the unitary
    # support, so the domain factor must reproduce the register-wide system
    cases = [
        (tfi_1d(3, 1.0, 0.7), 0, "pauli_full", (0, 1)),
        (heisenberg_1d(5), -1, "pauli_odd_y", (2, 3, 4)),  # end of the chain
        (heisenberg_1d(6), -1, "pauli_full", (4, 5)),  # wider than tall: QR
        (heisenberg_1d(6), -1, "pauli_odd_y", (0, 1)),  # term outside the domain
        (heisenberg_1d(5), 0, "fermionic_number_conserving", (0, 2)),  # tail on 1
        (heisenberg_1d(6), 1, "fermionic_number_conserving", (1, 4)),
    ]
    for h, term_index, kind, domain in cases:
        n = h.n_qubits
        state = StateVector(random_state(n, rng), n)
        term = h.terms[term_index]
        pool = OperatorPool(kind, domain)
        cfg = QiteConfig(b_mode=b_mode)
        smat, bvec, _ = build_linear_system(state, term, pool, 0.05, cfg)
        smat_ref, bvec_ref = _register_system(
            state, term, enumerate_pool(pool, n), 0.05, b_mode
        )
        assert np.max(np.abs(smat - smat_ref)) < 1e-12, (n, kind, domain)
        assert np.max(np.abs(bvec - bvec_ref)) < 1e-12, (n, kind, domain)


def _random_term(rng, n, support, even_y=False):
    """A term of norm <= 1 with random real weights on every (even-Y) string
    over ``support``, so that the measurable c stays positive at dtau <= 0.1."""
    strings = [
        PauliString.from_letters(dict(zip(support, letters)), n)
        for letters in itertools.product("IXYZ", repeat=len(support))
        if set(letters) != {"I"} and not (even_y and letters.count("Y") % 2)
    ]
    weights = rng.uniform(-1.0, 1.0, len(strings)) / len(strings)
    return LocalTerm(tuple(support), tuple(zip(weights.tolist(), strings)))


def _random_amplitudes(rng, n, real, product):
    """A random state; a product state has a rank-1 reduced state everywhere."""
    def draw(size):
        return rng.normal(size=size) + (0.0 if real else 1j * rng.normal(size=size))

    if product:
        amps = np.array([1.0 + 0j])
        for _ in range(n):
            amps = np.kron(draw(2), amps)
    else:
        amps = draw(2**n)
    return StateVector(amps / np.linalg.norm(amps), n)


@pytest.mark.parametrize("kind", POOLS)
@pytest.mark.parametrize("b_mode", B_MODES)
def test_linear_system_b_and_c_match_full_register_references(kind, b_mode):
    # b_I = -2 scale Im <sigma_I psi | G psi> with G psi and c taken on the
    # whole register, apart from the step builder: G psi = h psi and
    # c = 1 - 2 dtau <h> (measurable), or e^{-dtau h} psi with its squared
    # norm c (exact_delta0); the term is narrower than its domain
    n, dtau = 5, 0.05
    rng = np.random.default_rng(7)
    state = StateVector(random_state(n, rng), n)
    term = _random_term(rng, n, (1, 2))
    pool = OperatorPool(kind, (0, 1, 2, 3))
    _, bvec, c = build_linear_system(state, term, pool, dtau, QiteConfig(b_mode=b_mode))
    if b_mode == "exact_delta0":
        evolved, c_want = apply_term_exp(state, term, dtau)
        g_psi = evolved.amplitudes * np.sqrt(c_want)
        scale = -1.0 / (dtau * np.sqrt(c_want))
    else:
        g_psi = apply_pauli_sum(state, term.pauli_sum)
        c_want = 1.0 - 2.0 * dtau * np.vdot(state.amplitudes, g_psi).real
        scale = 1.0 / np.sqrt(c_want)
    sigma_psi = [apply_pauli_sum(state, [(1.0, s)]) for s in enumerate_pool(pool, n)]
    b_want = -2.0 * scale * np.array([np.vdot(row, g_psi).imag for row in sigma_psi])
    assert abs(c - c_want) < 1e-12
    assert np.max(np.abs(b_want)) > 1e-3  # a signal to match
    assert np.max(np.abs(bvec - b_want)) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    env=st.integers(0, 2),  # env == 0: the factor on the domain has one column
    kind=st.sampled_from(["pauli_full", "pauli_odd_y", "fermionic_number_conserving"]),
    b_mode=st.sampled_from(B_MODES),
    delta=st.sampled_from([0.0, 0.3, 1.0]),
    pinv_tol=st.sampled_from([1e-8, 0.3]),  # 0.3 drops pairs that carry b
    real=st.booleans(),
    product=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rho_basis_step_matches_explicit_solve(
    k, env, kind, b_mode, delta, pinv_tol, real, product, seed
):
    # the eigenbasis route must reproduce the pseudoinverse of the explicit S
    rng = np.random.default_rng(seed)
    n = k + env
    support = sorted(rng.choice(n, size=min(k, 2), replace=False).tolist())
    term = _random_term(rng, n, support)
    state = _random_amplitudes(rng, n, real, product)
    cfg = QiteConfig(
        domain_size=k, pool_kind=kind, b_mode=b_mode, delta=delta, pinv_tol=pinv_tol
    )
    plan = _basis_plan(term, cfg, n)
    factor, g_factor, c_step, scale = _step_operators(plan, state, 0.05, cfg, None)
    smat, bvec, c = build_linear_system(
        state, term, OperatorPool(kind, plan.domain), 0.05, cfg
    )
    assert abs(c_step - c) < 1e-12
    if plan.local_masks is not None:
        return  # a fermionic pool with parity tails forms this S itself
    rho, comm = _rho_and_commutator(factor, g_factor)
    generator, residual = _solve_in_rho_basis(rho, comm, scale, cfg)
    expected, expected_res = solve_step(smat, bvec, delta, cfg.pinv_tol)
    coefficients = _pool_coefficients(generator, kind, plan.unitary_support, n)
    assert np.max(np.abs(coefficients - expected)) < 1e-10
    assert abs(residual - expected_res) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 4),
    k=st.integers(2, 4),
    b_mode=st.sampled_from(B_MODES),
    delta=st.sampled_from([0.0, 0.3]),
    product=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_odd_y_and_full_pools_take_the_same_step(n, k, b_mode, delta, product, seed):
    # for real H and real psi the full-pool generator is imaginary, so it
    # lies in the odd-Y span and both pools take the same step
    rng = np.random.default_rng(seed)
    state = _random_amplitudes(rng, n, real=True, product=product)
    cfg = QiteConfig(domain_size=min(k, n), b_mode=b_mode, delta=delta)
    odd_cfg = dataclasses.replace(cfg, pool_kind="pauli_odd_y")
    for q in range(n - 1):
        term = _random_term(rng, n, (q, q + 1), even_y=True)
        full, rf = qite_step(state, term, cfg)
        odd, ro = qite_step(state, term, odd_cfg)
        assert np.max(np.abs(full.amplitudes - odd.amplitudes)) < 1e-12
        assert abs(rf.c - ro.c) < 1e-12
        plan, g_full, _ = _rho_basis_step(state, term, cfg, cfg.dtau)
        _, g_odd, _ = _rho_basis_step(state, term, odd_cfg, cfg.dtau)
        full_coeffs = _pool_coefficients(g_full, "pauli_full", plan.unitary_support, n)
        odd_coeffs = _pool_coefficients(g_odd, "pauli_odd_y", plan.unitary_support, n)
        strings = enumerate_pool(OperatorPool("pauli_full", plan.domain), n)
        odd_y = np.array([s.y_count % 2 == 1 for s in strings])
        assert np.max(np.abs(full_coeffs[odd_y] - odd_coeffs)) < 1e-12
        assert np.max(np.abs(full_coeffs[~odd_y])) < 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    env=st.integers(0, 2),
    kind=st.sampled_from(POOLS),
    b_mode=st.sampled_from(B_MODES),
    delta=st.sampled_from([0.0, 0.3]),
    pinv_tol=st.sampled_from([1e-8, 0.3]),  # 0.3 drops pairs that carry b
    real=st.booleans(),
    shape=st.sampled_from(["random", "product", "basis"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_range_step_matches_rho_basis_step(
    k, env, kind, b_mode, delta, pinv_tol, real, shape, seed
):
    # the solve in the range of rho must reproduce the eigenbasis solve on the
    # same support, whether or not _in_range would pick it
    rng = np.random.default_rng(seed)
    n = k + env
    support = sorted(rng.choice(n, size=min(k, 2), replace=False).tolist())
    term = _random_term(rng, n, support)
    if shape == "basis":  # one parity block of the factor is empty
        amps = np.zeros(2**n, dtype=complex)
        amps[rng.integers(2**n)] = 1.0 if real else np.exp(1j * rng.uniform(0, 2 * np.pi))
        state = StateVector(amps, n)
    else:
        state = _random_amplitudes(rng, n, real, shape == "product")
    cfg = QiteConfig(
        domain_size=k, pool_kind=kind, b_mode=b_mode, delta=delta, pinv_tol=pinv_tol
    )
    basis = _basis_plan(term, cfg, n)
    if basis.local_masks is not None:
        return  # a fermionic pool with parity tails forms S
    _assert_range_step_matches(state, term, basis, cfg)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(POOLS),
    b_mode=st.sampled_from(B_MODES),
    pinv_tol=st.sampled_from([1e-8, 0.3]),
    real=st.booleans(),
    grade=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_range_step_matches_rho_basis_step_on_graded_states(
    kind, b_mode, pinv_tol, real, grade, seed
):
    # Schmidt values 1, 10^-grade, ... on the support grade the couplings
    # between rho's range and its kernel over up to 12 decades; every one
    # that delta keeps must reach the generator (at delta = 0 pairs at the
    # roundoff of rho's eigenvalues sit on either side of the cut)
    rng = np.random.default_rng(seed)
    n, k, columns = 6, 4, 4
    term = _random_term(rng, n, [1, 2])
    cfg = QiteConfig(
        domain_size=k, pool_kind=kind, b_mode=b_mode, delta=0.3, pinv_tol=pinv_tol
    )
    basis = _basis_plan(term, cfg, n)
    assert basis.local_masks is None and len(basis.unitary_support) == k
    state = _graded_state(rng, basis.unitary_support, n, grade, columns, real)
    _assert_range_step_matches(state, term, basis, cfg)


def _graded_state(rng, support, n, grade, columns, real):
    """A random state whose Schmidt values on ``support`` are 1, 10^-grade,
    10^-2 grade, ... (``columns`` of them), before normalization."""

    def orthonormal(rows):
        draw = rng.normal(size=(rows, columns))
        return np.linalg.qr(draw if real else draw + 1j * rng.normal(size=draw.shape))[0]

    weights = 10.0 ** (-grade * np.arange(columns))
    factor = (orthonormal(2 ** len(support)) * weights) @ orthonormal(2 ** (n - len(support))).conj().T
    amps = _from_support_major(factor, support, n)
    return StateVector(amps / np.linalg.norm(amps), n)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(POOLS),
    b_mode=st.sampled_from(B_MODES),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_range_step_columns_orthonormal_on_graded_states(kind, b_mode, real, seed):
    # e^{-i dtau A} = 1 + Q (e^{-i dtau M} - 1) Q^dagger is unitary as far as
    # Q's columns are orthonormal; on Schmidt values 1, 1e-2, 1e-4, 1e-6 the
    # columns of W must stay orthogonal to V_r to roundoff
    rng = np.random.default_rng(seed)
    n, k = 6, 4
    term = _random_term(rng, n, [1, 2])
    cfg = QiteConfig(domain_size=k, pool_kind=kind, b_mode=b_mode)
    basis = _basis_plan(term, cfg, n)
    plan = _build_plan(basis.index, term, basis.domain, basis.unitary_support, None, True)
    assert len(plan.unitary_support) == k
    state = _graded_state(rng, plan.unitary_support, n, 2, 4, real)
    factor, g_factor, _, scale = _step_operators(plan, state, 0.05, cfg, None)
    blocks, _ = _solve_in_rho_range(factor, g_factor, scale, cfg)
    for _, q, _ in blocks:
        assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]), 2) <= 1e-13


def _assert_range_step_matches(state, term, basis, cfg):
    """The range solve and step on ``basis``'s support reproduce its
    eigenbasis solve and step."""
    ranged = _build_plan(basis.index, term, basis.domain, basis.unitary_support, None, True)
    factor, g_factor, _, scale = _step_operators(basis, state, 0.05, cfg, None)
    expected, _ = _solve_in_rho_basis(*_rho_and_commutator(factor, g_factor), scale, cfg)
    blocks, _ = _solve_in_rho_range(factor, g_factor, scale, cfg)
    generator = np.zeros_like(expected)
    for rows, q, m in blocks:
        local = np.arange(len(generator))[rows]
        generator[np.ix_(local, local)] = q @ m @ q.conj().T
    assert np.max(np.abs(generator - expected)) < 1e-10
    new, record = _run_step(state, ranged, 0.05, cfg, None)
    want, want_record = _run_step(state, basis, 0.05, cfg, None)
    assert np.max(np.abs(new.amplitudes - want.amplitudes)) < 1e-10
    assert abs(record.c - want_record.c) < 1e-12
    assert abs(record.residual - want_record.residual) < 1e-12


@pytest.mark.parametrize(
    "n, k, kind, in_range",
    [
        (6, 6, "pauli_odd_y", True),  # rank <= 2 of 64
        (4, 4, "pauli_odd_y", True),
        (6, 4, "pauli_full", True),  # rank <= 4 of 16
        (6, 4, "pauli_odd_y", False),  # the real factor has 8 columns
        (9, 4, "pauli_full", False),
        (3, 2, "pauli_full", False),
        (3, 3, "pauli_full", False),  # rank 1 of 8, below four qubits
        (1, 1, "pauli_full", False),
        (5, 5, "fermionic_number_conserving", True),
        (4, 4, "fermionic_number_conserving", False),  # below five qubits
    ],
)
def test_range_route_by_rank_bound(n, k, kind, in_range):
    assert _in_range(n, k, kind) is in_range


@pytest.mark.parametrize("kind", POOLS)
def test_range_plans_hold_no_support_sized_matrix(kind):
    # a plan keeps only the term's own eigendecomposition, never a 2^k x 2^k
    # matrix, on the range, eigenbasis and explicit routes alike
    routes = [
        (8, QiteConfig(domain_size=8, pool_kind=kind), "range"),
        (9, QiteConfig(domain_size=4, pool_kind=kind), "eigenbasis"),
        (9, QiteConfig(domain_size=4, pool_kind=kind, noise_sigma=1e-3), "explicit"),
    ]
    for n, cfg, route in routes:
        for plan in _term_plans(heisenberg_1d(n).terms, cfg, n):
            assert plan.in_range is (route == "range")
            assert (plan.local_masks is not None) is (route == "explicit")
            assert len(plan.unitary_support) >= 4
            assert max(a.size for a in plan.h_eig) <= 4**2


def test_odd_y_range_route_keeps_a_real_state_real():
    # A = i (real antisymmetric) on the odd-Y pool, so each step is a real
    # rotation of the real columns of the factor
    h = heisenberg_1d(6)
    cfg = QiteConfig(dtau=0.1, n_steps=20, domain_size=6, pool_kind="pauli_odd_y")
    assert all(plan.in_range for plan in _term_plans(h.terms, cfg, 6))
    final = qite_evolve(neel_state(6), h, cfg).final_state
    assert np.all(final.amplitudes.imag == 0)


def test_exact_domain_twelve_qubits():
    # d = n = 12: each step works on the 4096 x 1 factor, not on 4096 x 4096
    # matrices, and imaginary-time evolution lowers the energy
    h = heisenberg_1d(12)
    cfg = QiteConfig(
        dtau=0.1, n_steps=2, domain_size=12, pool_kind="pauli_odd_y", b_mode="exact_delta0"
    )
    trajectory = qite_evolve(neel_state(12), h, cfg)
    assert abs(np.linalg.norm(trajectory.final_state.amplitudes) - 1.0) < 1e-12
    assert np.all(np.diff(trajectory.energies) <= 1e-12)


def _route_case(kind, noise, explicit, n=3, support=(0, 1), suffix=""):
    return pytest.param(
        kind, noise, explicit, n, support, id=f"{kind}-{noise}-{explicit}{suffix}"
    )


@pytest.mark.parametrize(
    "kind, noise, explicit, n, support",
    [
        _route_case("pauli_full", 0.0, False),
        _route_case("pauli_full", 1e-3, True),
        _route_case("pauli_odd_y", 0.0, False),
        _route_case("pauli_odd_y", 1e-3, True),
        _route_case("fermionic_number_conserving", 0.0, False),
        _route_case("fermionic_number_conserving", 1e-3, True),
        # domain (0, 1, 4, 5): 128 strings on a 6-qubit support
        _route_case("fermionic_number_conserving", 0.0, True, 6, (0, 5), "-tail"),
        _route_case("fermionic_number_conserving", 1e-3, True, 6, (0, 5), "-tail"),
    ],
)
def test_step_route_by_pool_and_noise(monkeypatch, kind, noise, explicit, n, support):
    # every step assembles from rho_D without sigma_I |psi> rows; only noise
    # and a pool short of its support's parity-even strings enumerate the
    # pool and form S explicitly
    import qitekit.qite as qite_module

    calls = []
    for name in ("enumerate_pool", "_pauli_masks", "_pauli_traces", "solve_step"):
        original = getattr(qite_module, name)
        monkeypatch.setattr(
            qite_module, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a)
        )
    term = _random_term(np.random.default_rng(1), n, support)
    cfg = QiteConfig(domain_size=4, pool_kind=kind, noise_sigma=noise)
    _, record = qite_step(neel_state(n), term, cfg, rng=np.random.default_rng(0))
    # plan: the pool and its masks; step: the traces of S and of [G, rho]
    explicit_calls = ["enumerate_pool", "_pauli_masks", "_pauli_traces", "_pauli_traces"]
    assert calls == (explicit_calls + ["solve_step"] if explicit else [])
    if n == 6:
        (plan,) = _term_plans([term], cfg, n)
        assert record.domain == (0, 1, 4, 5) and plan.unitary_support == tuple(range(6))
        assert len(plan.local_masks[0]) == 128


@pytest.mark.parametrize("b_mode", B_MODES)
def test_noise_draw_order(b_mode):
    # the <h> noise (measurable) or the b noise (exact_delta0) comes first,
    # then the symmetric S noise; measurable noise enters before the 1/sqrt(c)
    h = heisenberg_1d(4)
    state = StateVector(random_state(4, np.random.default_rng(3)), 4)
    pool = OperatorPool("pauli_full", (1, 2))
    sigma, dtau = 1e-3, 0.05
    cfg = QiteConfig(b_mode=b_mode, noise_sigma=sigma)
    smat, bvec, c = build_linear_system(
        state, h.terms[1], pool, dtau, cfg, np.random.default_rng(11)
    )
    smat0, bvec0, c0 = build_linear_system(
        state, h.terms[1], pool, dtau, dataclasses.replace(cfg, noise_sigma=0.0)
    )
    replay = np.random.default_rng(11)
    if b_mode == "measurable":
        c_want = c0 - 2.0 * dtau * replay.normal(0.0, sigma)
        raw = -0.5 * bvec0 * np.sqrt(c0) + replay.normal(0.0, sigma, bvec0.shape)
        b_want = -2.0 * raw / np.sqrt(c_want)
    else:
        c_want = c0
        b_want = bvec0 + replay.normal(0.0, sigma, bvec0.shape)
    draws = replay.normal(0.0, sigma, smat0.shape)
    s_want = smat0 + np.triu(draws) + np.triu(draws, 1).T
    assert abs(c - c_want) < 1e-14
    assert np.max(np.abs(bvec - b_want)) < 1e-12
    assert np.max(np.abs(smat - s_want)) < 1e-14


def test_pools_enumerated_once_per_domain(monkeypatch):
    import qitekit.qite as qite_module

    calls = []
    original = qite_module.enumerate_pool
    monkeypatch.setattr(
        qite_module,
        "enumerate_pool",
        lambda pool, n: calls.append(pool.domain) or original(pool, n),
    )
    # only a step that forms S reads its pool, so the run is noisy
    h = heisenberg_1d(5)
    cfg = QiteConfig(n_steps=1, domain_size=4, noise_sigma=1e-3)
    qite_evolve(neel_state(5), h, cfg, rng=np.random.default_rng(0))
    # bonds (0,1) and (1,2) grow to (0..3); (2,3) and (3,4) to (1..4)
    assert sorted(calls) == [(0, 1, 2, 3), (1, 2, 3, 4)]


def test_config_validation():
    with pytest.raises(ConfigError):
        QiteConfig(dtau=0.0).validate()
    with pytest.raises(ConfigError):
        QiteConfig(n_steps=-1).validate()
    with pytest.raises(ConfigError):
        QiteConfig(domain_size=0).validate()
    with pytest.raises(ConfigError):
        QiteConfig(pool_kind="bogus").validate()
    with pytest.raises(ConfigError):
        QiteConfig(trotter_order=3).validate()
    with pytest.raises(ConfigError):
        QiteConfig(b_mode="guess").validate()
    with pytest.raises(ConfigError):
        QiteConfig(delta=-1.0).validate()
    with pytest.raises(ConfigError):
        QiteConfig(max_unitary_domain=0).validate()
    QiteConfig().validate()


def test_unitary_domain_ceiling():
    h = heisenberg_1d(6)
    cfg = QiteConfig(domain_size=6, max_unitary_domain=4)
    with pytest.raises(ResourceError):
        qite_evolve(neel_state(6), h, cfg)


def test_width_mismatch():
    with pytest.raises(DimensionError):
        qite_evolve(neel_state(3), heisenberg_1d(4), QiteConfig(n_steps=1))


# ------------------------------------------------------------ evolution


def test_eigenstate_is_stationary():
    # ground state of the field Hamiltonian: reconstruction finds a ~ 0
    h = one_qubit_field(1.0, 0.0)
    ground = product_state("-")  # X|-> = -|->
    cfg = QiteConfig(dtau=0.1, n_steps=5, domain_size=1, b_mode="exact_delta0")
    traj = qite_evolve(ground, h, cfg)
    assert np.all(np.abs(traj.energies + 1.0) < 1e-8)
    assert fidelity(traj.final_state, ground) > 1 - 1e-10


def test_two_site_exact_domain_tracks_exact_ite():
    h = heisenberg_1d(2)
    state = neel_state(2)
    cfg = QiteConfig(
        dtau=0.05,
        n_steps=40,
        domain_size=2,
        pool_kind="pauli_odd_y",
        b_mode="exact_delta0",
    )
    traj = qite_evolve(state, h, cfg)
    for sweep in (10, 20, 40):
        beta = traj.betas[sweep]
        want = exact_ite(state, h, beta)
        # the domain covers the whole register, so steps are near-exact
        assert traj.energies[sweep] == pytest.approx(energy(want, h), abs=1e-4)
    # beta = 2 is not yet the ground state; the right reference is exact
    # propagation at the same beta.  The measurement-only assembly carries
    # an O(dtau) bias but stays close to the same curve.
    e_ref = energy(exact_ite(state, h, traj.betas[-1]), h)
    meas = qite_evolve(state, h, dataclasses.replace(cfg, b_mode="measurable"))
    assert meas.energies[-1] == pytest.approx(e_ref, abs=5e-3)


def test_energy_monotone_descent_small_dtau():
    h = heisenberg_1d(4)
    cfg = QiteConfig(dtau=0.1, n_steps=30, domain_size=4, pool_kind="pauli_odd_y")
    traj = qite_evolve(neel_state(4), h, cfg)
    diffs = np.diff(traj.energies)
    assert np.all(diffs < 1e-9)


def test_fidelity_tracking_and_callback():
    h = heisenberg_1d(2)
    state = neel_state(2)
    _, ground = exact_ground(h)
    seen, fidelities = [], [fidelity(state, ground)]

    def on_sweep(l, s):
        seen.append(l)
        fidelities.append(fidelity(s, ground))

    cfg = QiteConfig(dtau=0.1, n_steps=30, domain_size=2, pool_kind="pauli_odd_y")
    qite_evolve(state, h, cfg, on_sweep=on_sweep)
    assert seen == list(range(1, 31))
    assert len(fidelities) == 31
    assert fidelities[0] < fidelities[-1]
    assert fidelities[-1] > 0.99


def test_trajectory_bookkeeping():
    h = heisenberg_1d(3)
    cfg = QiteConfig(dtau=0.1, n_steps=4, domain_size=2, pool_kind="pauli_odd_y")
    traj = qite_evolve(neel_state(3), h, cfg)
    assert np.allclose(traj.betas, [0.0, 0.1, 0.2, 0.3, 0.4])
    assert traj.energies.shape == (5,)
    assert traj.inv_sq_norms.shape == (5,)
    assert traj.inv_sq_norms[0] == 1.0
    assert len(traj.records) == 4 * h.n_terms
    # ledger recursion: each sweep multiplies in the product of its c factors
    k = h.n_terms
    for sweep in range(4):
        prod_c = np.prod([r.c for r in traj.records[sweep * k : (sweep + 1) * k]])
        assert traj.inv_sq_norms[sweep + 1] == pytest.approx(
            traj.inv_sq_norms[sweep] * prod_c, rel=1e-12
        )


def test_second_order_schedule():
    h = heisenberg_1d(3)  # 2 terms
    cfg = QiteConfig(dtau=0.2, n_steps=1, domain_size=2, trotter_order=2)
    traj = qite_evolve(neel_state(3), h, cfg)
    dts = [r.dtau for r in traj.records]
    idx = [r.term_index for r in traj.records]
    assert idx == [0, 1, 0]
    assert dts == [0.1, 0.2, 0.1]


def test_second_order_single_term_collapses():
    h = one_qubit_field(0.8, 0.3)
    cfg = QiteConfig(dtau=0.2, n_steps=1, domain_size=1, trotter_order=2)
    traj = qite_evolve(zero_state(1), h, cfg)
    assert [r.dtau for r in traj.records] == [0.2]


def test_zero_steps_is_identity():
    h = heisenberg_1d(2)
    state = neel_state(2)
    traj = qite_evolve(state, h, dataclasses.replace(QiteConfig(), n_steps=0))
    assert traj.energies.shape == (1,)
    assert fidelity(traj.final_state, state) == pytest.approx(1.0)


def test_per_step_fidelity_against_exact_step():
    # each reconstructed step stays close to the exact normalized step
    h = heisenberg_1d(4)
    state = neel_state(4)
    cfg = QiteConfig(dtau=0.1, domain_size=4, pool_kind="pauli_full", b_mode="exact_delta0")
    from qitekit.statevector import apply_term_exp

    for term in h.terms:
        want, _ = apply_term_exp(state, term, cfg.dtau)
        got, _ = qite_step(state, term, cfg)
        assert fidelity(got, want) > 1 - 10 * cfg.dtau**4
        state = got


def test_noisy_run_finite_and_seeded():
    h = heisenberg_1d(2)
    cfg = QiteConfig(
        dtau=0.1, n_steps=5, domain_size=2, pool_kind="pauli_odd_y", noise_sigma=1e-3
    )
    t1 = qite_evolve(neel_state(2), h, cfg, rng=np.random.default_rng(5))
    t2 = qite_evolve(neel_state(2), h, cfg, rng=np.random.default_rng(5))
    assert np.all(np.isfinite(t1.energies))
    assert np.allclose(t1.energies, t2.energies)
    clean = qite_evolve(neel_state(2), h, dataclasses.replace(cfg, noise_sigma=0.0))
    assert not np.allclose(t1.energies, clean.energies)
