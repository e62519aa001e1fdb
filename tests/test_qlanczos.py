import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitekit.analysis import (
    exact_ground,
    exact_ite,
    exact_ite_energy,
    exact_ite_squared_norm,
    spectral,
)
from qitekit.errors import ConfigError, DimensionError, NumericalError
from qitekit.hamiltonians import Hamiltonian, LocalTerm, energy, heisenberg_1d, tfi_1d
from qitekit.pauli import PauliString
from qitekit.qite import B_MODES, QiteConfig, qite_evolve
from qitekit.qlanczos import (
    KrylovLedger,
    build_matrices,
    ledger_from_trajectory,
    overlap_from_norms,
    perturb_ledger,
    qlanczos_run,
    solve_gevp,
    stabilize,
)
from qitekit.statevector import inner_product, neel_state, plus_state, product_state


def exact_ledger(state, h, dtau, n_sweeps):
    """Ledger of an exact imaginary-time run, no reconstruction error."""
    energies = [exact_ite_energy(state, h, l * dtau) for l in range(n_sweeps + 1)]
    norms = [exact_ite_squared_norm(state, h, l * dtau) for l in range(n_sweeps + 1)]
    return KrylovLedger(dtau, np.array(energies), np.array(norms))


def test_ledger_validation():
    with pytest.raises(DimensionError):
        KrylovLedger(0.1, np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(DimensionError):
        KrylovLedger(0.1, np.array([]), np.array([]))
    with pytest.raises(DimensionError):
        KrylovLedger(0.1, np.eye(2), np.eye(2))
    with pytest.raises(NumericalError):
        KrylovLedger(0.1, np.array([np.nan]), np.array([1.0]))
    with pytest.raises(NumericalError):
        KrylovLedger(0.1, np.array([1.0]), np.array([0.0]))
    led = KrylovLedger(0.1, np.array([1.0, 0.5, 0.25]), np.array([1.0, 1.1, 1.3]))
    assert led.n_sweeps == 2


def test_overlap_identities():
    led = KrylovLedger(0.1, np.zeros(5), np.array([1.0, 2.0, 5.0, 14.0, 42.0]))
    # diagonal overlaps are exactly 1
    for l in range(5):
        assert overlap_from_norms(led, l, l) == pytest.approx(1.0)
    # symmetric in the indices
    assert overlap_from_norms(led, 0, 4) == overlap_from_norms(led, 4, 0)
    assert overlap_from_norms(led, 0, 2) == pytest.approx(2.0 / np.sqrt(5.0))
    with pytest.raises(DimensionError):
        overlap_from_norms(led, 0, 1)  # odd index sum
    with pytest.raises(DimensionError):
        overlap_from_norms(led, 2, 6)


def test_overlaps_match_true_states_for_exact_propagation():
    # the norm identity reproduces honest statevector overlaps when the
    # trajectory is exact imaginary-time evolution
    h = tfi_1d(2, 1.0, 0.6)
    state = plus_state(2)
    dtau = 0.1
    led = exact_ledger(state, h, dtau, 8)
    for l1, l2 in [(0, 2), (0, 4), (2, 6), (4, 8), (0, 8)]:
        a = exact_ite(state, h, l1 * dtau)
        b = exact_ite(state, h, l2 * dtau)
        want = inner_product(a, b).real
        got = overlap_from_norms(led, l1, l2)
        assert got == pytest.approx(want, abs=1e-10), (l1, l2)


def test_build_matrices_against_dense_states():
    h = tfi_1d(2, 1.0, 0.6)
    state = plus_state(2)
    dtau = 0.1
    led = exact_ledger(state, h, dtau, 4)
    smat, hmat = build_matrices(led, [0, 2, 4])
    states = [exact_ite(state, h, l * dtau) for l in (0, 2, 4)]
    for a in range(3):
        for b in range(3):
            s_ref = inner_product(states[a], states[b]).real
            assert smat[a, b] == pytest.approx(s_ref, abs=1e-10)
    # H entries: <Phi_a|H|Phi_b> computed densely
    from conftest import dense_hamiltonian

    hdense = dense_hamiltonian(h)
    for a in range(3):
        for b in range(3):
            want = (states[a].amplitudes.conj() @ hdense @ states[b].amplitudes).real
            assert hmat[a, b] == pytest.approx(want, abs=1e-10)
    with pytest.raises(DimensionError):
        build_matrices(led, [])


def test_stabilize_limits():
    # log-quadratic norms give overlap exp(-(l1-l2)^2/32) < 1 between
    # distinct sweeps; a log-linear ledger would make every overlap exactly 1
    led = KrylovLedger(0.1, np.zeros(9), np.exp(np.arange(9) ** 2 / 8.0))
    assert stabilize(led, 1.0) == [0, 2, 4, 6, 8]
    # an eigenstate trajectory (log-linear) repeats the same direction and
    # never adds a second vector
    led_flat = KrylovLedger(0.1, np.zeros(5), np.exp(np.linspace(0.0, 2.0, 5)))
    assert stabilize(led_flat, 1.0) == [0]
    # tighter thresholds select more sparsely: consecutive overlap is 0.8825
    assert stabilize(led, 0.999) == [0, 2, 4, 6, 8]
    assert stabilize(led, 0.7) == [0, 4, 8]
    assert stabilize(led, 0.7, max_index=4) == [0, 4]
    with pytest.raises(ConfigError):
        stabilize(led, 0.0)
    with pytest.raises(ConfigError):
        stabilize(led, 1.5)


def test_solve_gevp_trivial_cases():
    evals, vec = solve_gevp(np.eye(1), np.array([[-2.5]]), 1e-12)
    assert evals == pytest.approx([-2.5])
    assert vec == pytest.approx([1.0]) or vec == pytest.approx([-1.0])
    evals, vec = solve_gevp(np.eye(2), np.diag([-1.0, 2.0]), 1e-12)
    assert np.allclose(evals, [-1.0, 2.0])
    assert abs(abs(vec[0]) - 1.0) < 1e-12 and abs(vec[1]) < 1e-12


def test_solve_gevp_filtering_and_errors():
    # rank-1 S: the dependent direction is projected out, not inverted
    smat = np.array([[1.0, 1.0], [1.0, 1.0]])
    hmat = np.array([[3.0, 3.0], [3.0, 3.0]])
    evals, _ = solve_gevp(smat, hmat, 1e-8)
    assert evals.size == 1
    assert evals[0] == pytest.approx(3.0)
    with pytest.raises(NumericalError):
        solve_gevp(np.zeros((2, 2)), np.eye(2), 1e-8)
    with pytest.raises(DimensionError):
        solve_gevp(np.eye(2), np.eye(3), 1e-8)


def test_gevp_recovers_excited_root():
    # exact 2-state subspace of the 2-site exchange model from |01>:
    # singlet at -3/4 plus triplet component at +1/4
    h = heisenberg_1d(2)
    state = neel_state(2)
    led = exact_ledger(state, h, 0.1, 8)
    smat, hmat = build_matrices(led, [0, 2, 4, 6, 8])
    evals, vec = solve_gevp(smat, hmat, 1e-8)
    assert evals[0] == pytest.approx(-0.75, abs=1e-8)
    assert evals[-1] == pytest.approx(0.25, abs=1e-6)
    # ground coefficients reproduce E0 through the Rayleigh quotient
    num = vec @ hmat @ vec
    den = vec @ smat @ vec
    assert num / den == pytest.approx(-0.75, abs=1e-8)


def test_qlanczos_run_accelerates_exact_domain():
    # reconstruction over the full register: acceleration reaches the
    # ground energy long before the raw sweeps do
    h = heisenberg_1d(4)
    cfg = QiteConfig(
        dtau=0.1,
        n_steps=30,
        domain_size=4,
        pool_kind="pauli_odd_y",
        b_mode="exact_delta0",
    )
    res = qlanczos_run(h, neel_state(4), cfg, overlap_threshold=1 - 1e-12, eig_cutoff=1e-8)
    e0, _ = exact_ground(h)
    assert res.betas[0] == 0.0
    assert res.e_qite[0] == pytest.approx(energy(neel_state(4), h))
    # acceleration never loses to the raw sweep it postprocesses
    assert np.all(res.e_qlanczos <= res.e_qite + 1e-9)
    # and converges much earlier
    final_err = abs(res.e_qlanczos[-1] - e0)
    assert final_err < 1e-3
    hits = np.where(np.abs(res.e_qlanczos - e0) < 0.01)[0]
    raw_hits = np.where(np.abs(res.e_qite - e0) < 0.01)[0]
    first_acc = res.betas[hits[0]]
    first_raw = res.betas[raw_hits[0]] if raw_hits.size else np.inf
    assert first_acc <= first_raw / 2
    assert len(res.selected) >= 2
    assert res.n_retained.shape == res.betas.shape


def test_qlanczos_run_inexact_domain_stays_finite():
    # reconstruction over a too-small domain: the norm-identity matrices no
    # longer describe the true states exactly, so only weak properties hold
    h = heisenberg_1d(4)
    cfg = QiteConfig(dtau=0.1, n_steps=20, domain_size=2, pool_kind="pauli_odd_y")
    res = qlanczos_run(h, neel_state(4), cfg, overlap_threshold=0.95, eig_cutoff=1e-6)
    assert np.all(np.isfinite(res.e_qlanczos))
    assert res.e_qlanczos[0] == pytest.approx(res.e_qite[0])
    # the accelerated curve reaches at least as low as the raw one somewhere
    assert res.e_qlanczos.min() <= res.e_qite.min() + 1e-9


@st.composite
def _pauli_sums_and_product_states(draw, real):
    """An H of random strings (one term each; even-Y strings only when
    ``real``) on n <= 4 qubits and a product-state label over 01+-."""
    n = draw(st.integers(2, 4))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(
        lambda text: (text.count("Y") % 2 == 0 or not real) and set(text) != {"I"}
    )
    entries = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), label), min_size=1, max_size=6))
    strings = [PauliString.from_label(text) for _, text in entries]
    terms = tuple(
        LocalTerm(tuple(s.support), ((coeff, s),)) for (coeff, _), s in zip(entries, strings)
    )
    return Hamiltonian(n, terms), draw(st.text(alphabet="01+-", min_size=n, max_size=n))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    case=_pauli_sums_and_product_states(real=True),
    kind=st.sampled_from(["pauli_full", "pauli_odd_y"]),
    exact_domain=st.booleans(),
    b_mode=st.sampled_from(B_MODES),
)
def test_variational_bound_and_qlanczos_below_qite_on_selected_sweeps(
    case, kind, exact_domain, b_mode
):
    # every sweep's energy is variational; a sweep that stabilize selected is
    # a vector of its own Krylov space (S_ll = 1, H_ll = E_l), so QLanczos
    # cannot lie above it; a rejected sweep is not, and there it can
    h, label = case
    cfg = QiteConfig(
        dtau=0.1, n_steps=8, domain_size=h.n_qubits if exact_domain else 2,
        pool_kind=kind, b_mode=b_mode,
    )
    res = qlanczos_run(h, product_state(label), cfg)
    assert np.all(res.trajectory.energies >= spectral(h).evals[0] - 1e-9)
    selected = np.isin(np.arange(0, cfg.n_steps + 1, 2), res.selected)
    assert np.all(res.e_qlanczos[selected] <= res.e_qite[selected] + 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    case=_pauli_sums_and_product_states(real=False),
    dtau=st.sampled_from([0.05, 0.1, 0.3]),
    kind=st.sampled_from(["pauli_full", "pauli_odd_y"]),
    exact_domain=st.booleans(),
)
def test_ledger_norms_and_the_overlaps_stabilize_reads_stay_positive(
    case, dtau, kind, exact_domain
):
    # |S_ll'| <= 1 is not asserted: the ledger's S comes from per-step norm
    # factors, not from a Gram matrix, and it can exceed 1
    h, label = case
    cfg = QiteConfig(
        dtau=dtau, n_steps=8, domain_size=h.n_qubits if exact_domain else 2, pool_kind=kind
    )
    trajectory = qite_evolve(product_state(label), h, cfg)
    assert np.all(np.isfinite(trajectory.inv_sq_norms))
    assert np.all(trajectory.inv_sq_norms > 0)
    ledger = ledger_from_trajectory(trajectory)
    accepted = stabilize(ledger, 0.95)
    for l in range(2, ledger.n_sweeps + 1, 2):  # stabilize's read at sweep l
        overlap = overlap_from_norms(ledger, max(a for a in accepted if a < l), l)
        assert np.isfinite(overlap) and overlap > 0


def test_qlanczos_noise_handling(rng):
    h = heisenberg_1d(2)
    cfg = QiteConfig(dtau=0.1, n_steps=10, domain_size=2, pool_kind="pauli_odd_y")
    with pytest.raises(ConfigError):
        qlanczos_run(h, neel_state(2), cfg, ledger_noise_sigma=1e-3)
    res = qlanczos_run(
        h, neel_state(2), cfg, eig_cutoff=1e-2, rng=rng, ledger_noise_sigma=1e-3
    )
    assert np.all(np.isfinite(res.e_qlanczos))


@pytest.mark.parametrize(
    "option",
    [{"overlap_threshold": 0.0}, {"overlap_threshold": 1.5}, {"eig_cutoff": 0.0},
     {"eig_cutoff": -1.0}, {"ledger_noise_sigma": -0.1}, {"eig_cutoff": float("nan")}],
    ids=["threshold-zero", "threshold-above-one", "cutoff-zero", "cutoff-negative",
         "noise-negative", "cutoff-nan"],
)
def test_qlanczos_run_refuses_options_out_of_bounds(monkeypatch, option):
    # the bounds the CLI states, refused before any propagation
    import qitekit.qlanczos as qlanczos_module

    def evolve(*args, **kwargs):
        raise AssertionError("propagated before checking its options")

    monkeypatch.setattr(qlanczos_module, "qite_evolve", evolve)
    cfg = QiteConfig(dtau=0.1, n_steps=2, domain_size=2)
    with pytest.raises(ConfigError, match="qlanczos: overlap_threshold must lie in"):
        qlanczos_run(heisenberg_1d(2), neel_state(2), cfg, rng=np.random.default_rng(0),
                     **option)


def test_qlanczos_run_refuses_ledger_noise_without_a_generator(monkeypatch):
    # the rule a QITE step states for its own noise, refused before propagating
    import qitekit.qlanczos as qlanczos_module

    def evolve(*args, **kwargs):
        raise AssertionError("propagated before checking for a generator")

    monkeypatch.setattr(qlanczos_module, "qite_evolve", evolve)
    cfg = QiteConfig(dtau=0.1, n_steps=2, domain_size=2)
    with pytest.raises(ConfigError, match="requires a random generator"):
        qlanczos_run(heisenberg_1d(2), neel_state(2), cfg, ledger_noise_sigma=1e-3)


def test_perturb_ledger_properties(rng):
    led = KrylovLedger(0.1, np.linspace(0, -1, 11), np.exp(np.linspace(0, 2, 11)))
    noisy = perturb_ledger(led, 0.05, rng)
    assert noisy.dtau == led.dtau
    assert np.all(noisy.inv_sq_norms > 0)  # log-normal keeps positivity
    assert not np.allclose(noisy.energies, led.energies)
    again = perturb_ledger(led, 0.05, np.random.default_rng(3))
    again2 = perturb_ledger(led, 0.05, np.random.default_rng(3))
    assert np.allclose(again.energies, again2.energies)
    assert np.allclose(again.inv_sq_norms, again2.inv_sq_norms)


def test_ledger_from_trajectory_roundtrip():
    h = heisenberg_1d(2)
    cfg = QiteConfig(dtau=0.1, n_steps=6, domain_size=2, pool_kind="pauli_odd_y")
    traj = qite_evolve(neel_state(2), h, cfg)
    led = ledger_from_trajectory(traj)
    assert led.dtau == cfg.dtau
    assert led.n_sweeps == 6
    assert np.allclose(led.energies, traj.energies)
    assert np.allclose(led.inv_sq_norms, traj.inv_sq_norms)
