"""End-to-end behavior pins for the full toolkit.

Each test freezes one headline guarantee of the package: convergence
quality, variational bounds, subspace acceleration, thermal sampling
accuracy, cost goldens, and kernel-level convergence orders.  Tolerances
are deliberate and should not be loosened without a documented reason.
"""

import time

import numpy as np
import pytest

from qitekit.analysis import (
    CostQuery,
    exact_ground,
    exact_ite,
    exact_ite_energy,
    exact_ite_squared_norm,
    gibbs_average,
    ground_space_fidelity,
    maxcut_success,
    mutual_information,
    qite_measurement_count,
)
from qitekit.hamiltonians import (
    heisenberg_1d,
    maxcut_six_vertex_instance,
    one_qubit_field,
    tfi_1d,
)
from qitekit.pauli import OperatorPool, PauliString, enumerate_pool, odd_y_count
from qitekit.qite import QiteConfig, qite_evolve
from qitekit.qlanczos import (
    KrylovLedger,
    build_matrices,
    ledger_from_trajectory,
    perturb_ledger,
    qlanczos_run,
    solve_gevp,
    stabilize,
)
from qitekit.qmetts import MettsConfig, metts_chain
from qitekit.statevector import (
    StateVector,
    apply_term_exp,
    expectation,
    inner_product,
    neel_state,
    plus_state,
    singlet_dimer_state,
    zero_state,
)

from conftest import (
    dense_expm_hermitian,
    dense_hamiltonian,
    dense_pauli_string,
    random_state,
)


def relative_error(value, reference):
    return abs(value - reference) / abs(reference)


def state_distance(a: StateVector, b: StateVector) -> float:
    """Phase-free L2 distance min_theta || a - e^{i theta} b ||."""
    ov = abs(inner_product(a, b))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * ov)))


def fit_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_01_exact_domain_convergence_heisenberg():
    # reconstruction over the whole register drives the energy to the dense
    # ground value: relative error < 1e-3 at beta = 5 with monotone sweeps
    start = time.perf_counter()
    for n in (4, 6):
        h = heisenberg_1d(n)
        e0, _ = exact_ground(h)
        cfg = QiteConfig(dtau=0.1, n_steps=50, domain_size=n, pool_kind="pauli_odd_y")
        traj = qite_evolve(singlet_dimer_state(n), h, cfg)
        assert traj.betas[-1] == pytest.approx(5.0)
        assert relative_error(traj.energies[-1], e0) < 1e-3, n
        diffs = np.diff(traj.energies)
        assert np.all(diffs <= 1e-9), (n, diffs.max())
    assert time.perf_counter() - start < 30.0


def test_02_domain_size_hierarchy():
    # larger reconstruction domains can only help, and every iterate obeys
    # the variational bound
    n = 6
    h = heisenberg_1d(n)
    e0, _ = exact_ground(h)
    errors = []
    for d in (2, 4, 6):
        cfg = QiteConfig(dtau=0.1, n_steps=50, domain_size=d, pool_kind="pauli_odd_y")
        traj = qite_evolve(neel_state(n), h, cfg)
        assert np.min(traj.energies - e0) >= -1e-9, d
        errors.append(abs(traj.energies[-1] - e0))
    assert errors[0] >= errors[1] >= errors[2], errors


def test_03_odd_y_pool_equivalence():
    # for real Hamiltonians and real starting amplitudes the odd-Y subset
    # carries the whole signal: trajectories coincide sweep by sweep
    for h, state in (
        (heisenberg_1d(4), neel_state(4)),
        (tfi_1d(3, 1.0, 0.8), plus_state(3)),
    ):
        full = qite_evolve(
            state, h, QiteConfig(dtau=0.1, n_steps=20, domain_size=2, pool_kind="pauli_full")
        )
        odd = qite_evolve(
            state, h, QiteConfig(dtau=0.1, n_steps=20, domain_size=2, pool_kind="pauli_odd_y")
        )
        assert np.max(np.abs(full.energies - odd.energies)) < 1e-8

    # pool sizes: y(D) = 2^D (2^D - 1) / 2, and the one-step recursion
    for d in range(1, 6):
        pool = enumerate_pool(OperatorPool("pauli_odd_y", tuple(range(d))), d)
        full = 2**d
        assert len(pool) == full * (full - 1) // 2
        assert len(pool) == odd_y_count(d)
    for d in range(1, 10):
        assert odd_y_count(d + 1) == 3 * odd_y_count(d) + (4**d - odd_y_count(d))


def test_04_krylov_acceleration_with_exact_ledgers():
    # scalar-ledger subspace diagonalization never loses to the raw sweep
    # energy and reaches 1e-4 relative accuracy in at most half the
    # imaginary time
    for n in (4, 6):
        h = heisenberg_1d(n)
        e0, _ = exact_ground(h)
        cfg = QiteConfig(
            dtau=0.1,
            n_steps=100,
            domain_size=n,
            pool_kind="pauli_odd_y",
            b_mode="exact_delta0",
        )
        res = qlanczos_run(
            h,
            neel_state(n),
            cfg,
            overlap_threshold=1 - 1e-12,
            eig_cutoff=1e-8,
        )
        assert np.max(res.e_qlanczos - res.e_qite) <= 1e-9, n
        acc_hits = np.where([relative_error(e, e0) <= 1e-4 for e in res.e_qlanczos])[0]
        raw_hits = np.where([relative_error(e, e0) <= 1e-4 for e in res.e_qite])[0]
        assert acc_hits.size and raw_hits.size, n
        beta_acc = res.betas[acc_hits[0]]
        beta_raw = res.betas[raw_hits[0]]
        assert beta_acc <= beta_raw / 2.0, (n, beta_acc, beta_raw)

    # oracle cross-check: matrices rebuilt from norms match dense overlaps
    h = heisenberg_1d(4)
    state = neel_state(4)
    dtau = 0.1
    energies = [exact_ite_energy(state, h, l * dtau) for l in range(9)]
    norms = [exact_ite_squared_norm(state, h, l * dtau) for l in range(9)]
    led = KrylovLedger(dtau, np.array(energies), np.array(norms))
    smat, hmat = build_matrices(led, [0, 2, 4, 6, 8])
    states = [exact_ite(state, h, l * dtau) for l in (0, 2, 4, 6, 8)]
    hdense = dense_hamiltonian(h)
    for a in range(5):
        for b in range(5):
            s_ref = inner_product(states[a], states[b]).real
            h_ref = (states[a].amplitudes.conj() @ hdense @ states[b].amplitudes).real
            assert abs(smat[a, b] - s_ref) < 1e-10
            assert abs(hmat[a, b] - h_ref) < 1e-10


def test_05_krylov_noise_robustness():
    # noisy scalar estimates with the documented stabilization presets
    # (pairwise overlap cap 0.75, eigenvalue cutoff 1e-2) never produce a
    # non-finite energy or an exception
    h = heisenberg_1d(4)
    cfg = QiteConfig(dtau=0.1, n_steps=40, domain_size=2, pool_kind="pauli_odd_y")
    base = ledger_from_trajectory(qite_evolve(neel_state(4), h, cfg))
    sigma, threshold, cutoff = 1e-3, 0.75, 1e-2

    for seed in range(100):
        noisy = perturb_ledger(base, sigma, np.random.default_rng(seed))
        selected_all = stabilize(noisy, threshold)
        for l in range(0, noisy.n_sweeps + 1, 2):
            selected = [i for i in selected_all if i <= l]
            smat, hmat = build_matrices(noisy, selected)
            evals, vec = solve_gevp(smat, hmat, cutoff)
            assert np.all(np.isfinite(evals)), seed
            assert np.all(np.isfinite(vec)), seed

    # the integrated path exercises the same presets end to end
    for seed in range(5):
        res = qlanczos_run(
            h,
            neel_state(4),
            cfg,
            overlap_threshold=threshold,
            eig_cutoff=cutoff,
            rng=np.random.default_rng(seed),
            ledger_noise_sigma=sigma,
        )
        assert np.all(np.isfinite(res.e_qlanczos)), seed


def test_06_thermal_sampling_accuracy():
    start = time.perf_counter()
    h = heisenberg_1d(4)
    for beta in (1.0, 2.0, 4.0):
        cfg = MettsConfig(
            beta=beta,
            n_samples=210,
            n_warmup=10,
            qite=QiteConfig(
                dtau=0.1,
                domain_size=4,
                pool_kind="pauli_odd_y",
                b_mode="exact_delta0",
            ),
        )
        res = metts_chain(h, cfg, np.random.default_rng(0))
        want = gibbs_average(h, beta)
        assert abs(res.mean - want) <= 3 * res.stderr, (beta, res.mean, res.stderr, want)

    # single-spin cross-check against the closed form -tanh(beta)
    field = one_qubit_field(0.0, 1.0)
    for beta in (1.0, 2.0):
        cfg = MettsConfig(
            beta=beta,
            n_samples=210,
            n_warmup=10,
            qite=QiteConfig(
                dtau=0.1, domain_size=1, pool_kind="pauli_full", b_mode="exact_delta0"
            ),
        )
        res = metts_chain(field, cfg, np.random.default_rng(0))
        assert abs(res.mean - (-np.tanh(beta))) <= 3 * res.stderr, (beta, res.mean)
    assert time.perf_counter() - start < 300.0


def test_07_measurement_count_goldens():
    # exact integers, zero tolerance; two distinct 4-term models share the
    # first total
    full = [
        qite_measurement_count(CostQuery(4, 7, 4)),
        qite_measurement_count(CostQuery(6, 17, 4)),
        qite_measurement_count(CostQuery(4, 7, 4)),
        qite_measurement_count(CostQuery(6, 8, 4)),
    ]
    assert full == [12544, 47872, 12544, 22528]
    reduced = [
        qite_measurement_count(CostQuery(4, 7, 4, odd_y_only=True)),
        qite_measurement_count(CostQuery(6, 17, 4, odd_y_only=True)),
        qite_measurement_count(CostQuery(6, 8, 4, odd_y_only=True)),
    ]
    assert reduced == [5880, 22440, 10560]


def test_08_maxcut_success_probability():
    h = maxcut_six_vertex_instance()
    start = plus_state(6)
    # uniform baseline: six optimal strings out of 64
    assert maxcut_success(start, h) == pytest.approx(6 / 64, abs=1e-12)

    def run(domain, n_steps):
        probs = [maxcut_success(start, h)]
        cfg = QiteConfig(
            dtau=0.1, n_steps=n_steps, domain_size=domain, pool_kind="pauli_odd_y"
        )
        qite_evolve(
            start, h, cfg, on_sweep=lambda _l, s: probs.append(maxcut_success(s, h))
        )
        return np.array(probs)

    # whole-register reconstruction concentrates on optimal cuts by beta = 4
    p_exact = run(6, 40)
    assert p_exact[-1] >= 0.99
    assert p_exact[30] >= 0.99  # already there at beta = 3

    # a 2-qubit domain cannot fully converge, but once the success
    # probability first exceeds 0.6 (before beta = 1.5) it stays there
    # through beta = 3
    p_small = run(2, 30)
    crossing = int(np.argmax(p_small > 0.6))
    assert p_small[crossing] > 0.6  # the threshold is actually reached
    assert crossing * 0.1 <= 1.5
    assert np.all(p_small[crossing:] > 0.6)


def test_09_correlation_saturation_ferromagnet():
    # exact imaginary time on the ferromagnetic transverse-field chain:
    # two-site mutual information grows monotonically and saturates
    n = 8
    h = tfi_1d(n, -1.0, -1.25)
    state0 = zero_state(n)
    betas = [0.5 * k for k in range(21)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    series = {pair: [] for pair in pairs}
    final = state0
    for beta in betas:
        final = exact_ite(state0, h, beta)
        for pair in pairs:
            series[pair].append(mutual_information(final, *pair))
    for pair, vals in series.items():
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-8), (pair, diffs.min())
        # saturation: beta = 6 vs beta = 10 (grid indices 12 and 20)
        assert abs(vals[20] - vals[12]) <= 1e-3, pair
    assert ground_space_fidelity(final, h) >= 1 - 1e-6


def test_10_kernel_convergence_orders(rng):
    # (a) the per-term propagation kernel agrees with a dense full-space
    # matrix exponential to near machine precision
    for n in (2, 4, 6):
        amps = random_state(n, rng)
        state = StateVector(amps, n)
        term = []
        for _ in range(3):
            letters = {int(q): str(rng.choice(["X", "Y", "Z"]))
                       for q in rng.choice(n, size=min(3, n), replace=False)}
            term.append((float(rng.normal()), PauliString.from_letters(letters, n)))
        dtau = 0.13
        hmat = sum(c * dense_pauli_string(s) for c, s in term)
        want = dense_expm_hermitian(hmat, -dtau) @ amps
        c_want = float(np.vdot(want, want).real)
        got, c = apply_term_exp(state, term, dtau)
        assert abs(c - c_want) < 1e-10
        assert np.max(np.abs(got.amplitudes - want / np.sqrt(c_want))) < 1e-10

    # (b) the first-order norm surrogate 1 - 2 dtau <h> misses the exact
    # squared norm by O(dtau^2)
    h2 = heisenberg_1d(2)
    state = neel_state(2)
    term = h2.terms[0]
    h_exp = sum(c * expectation(state, s) for c, s in term.pauli_sum)
    dtaus = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    residuals = []
    for dtau in dtaus:
        _, c = apply_term_exp(state, term, dtau)
        residuals.append(abs(c - (1.0 - 2.0 * dtau * h_exp)))
    slope_c = fit_slope(dtaus, residuals)
    assert 1.8 < slope_c < 2.2, slope_c

    # (c) sweep splitting order shows in the state error at fixed beta:
    # plain sweeps converge ~dtau, symmetrized sweeps ~dtau^2
    h = tfi_1d(4, 1.0, 1.0)
    start = plus_state(4)
    reference = exact_ite(start, h, 1.0)
    dtaus = np.array([0.2, 0.1, 0.05, 0.025])
    dists = {1: [], 2: []}
    for order in (1, 2):
        for dtau in dtaus:
            cfg = QiteConfig(
                dtau=float(dtau),
                n_steps=int(round(1.0 / dtau)),
                domain_size=4,
                pool_kind="pauli_full",
                trotter_order=order,
                b_mode="exact_delta0",
            )
            traj = qite_evolve(start, h, cfg)
            dists[order].append(state_distance(traj.final_state, reference))
    slope_1 = fit_slope(dtaus, dists[1])
    slope_2 = fit_slope(dtaus, dists[2])
    assert 0.8 < slope_1 < 1.2, (slope_1, dists[1])
    assert 1.7 < slope_2 < 2.3, (slope_2, dists[2])
