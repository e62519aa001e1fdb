import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitekit.analysis import (
    VQE_REFERENCE_COUNTS,
    CostQuery,
    _entropy,
    _mutual_information_pairs,
    cut_values,
    exact_ground,
    exact_ite,
    exact_ite_energy,
    exact_ite_squared_norm,
    gibbs_average,
    ground_space,
    ground_space_fidelity,
    lanczos_ground,
    maxcut_success,
    mutual_information,
    qite_measurement_count,
    spectral,
)
from qitekit.errors import DimensionError, ResourceError
from qitekit.hamiltonians import (
    Hamiltonian,
    LocalTerm,
    energy,
    heisenberg_1d,
    heisenberg_long_range,
    hubbard_1d_jw,
    maxcut,
    maxcut_six_vertex_instance,
    one_qubit_field,
    tfi_1d,
)
from qitekit.pauli import PauliString
from qitekit.statevector import (
    StateVector,
    fidelity,
    from_amplitudes,
    neel_state,
    plus_state,
    product_state,
    reduced_density_matrix,
    zero_state,
)

from conftest import dense_expm_hermitian, dense_hamiltonian, random_real_state, random_state


def test_spectral_and_exact_ground():
    h = one_qubit_field(0.6, 0.8)
    dec = spectral(h)
    assert np.allclose(dec.evals, [-1.0, 1.0])
    e0, ground = exact_ground(h)
    assert abs(e0 + 1.0) < 1e-12
    assert abs(energy(ground, h) + 1.0) < 1e-12


def _complex_reference(h):
    """The complex eigh of the kron-built H that the real path must reproduce."""
    mat = dense_hamiltonian(h)
    assert mat.dtype == complex
    return np.linalg.eigh(mat)


def _ground_projector(evals, evecs, tol=1e-9):
    ground = evecs[:, evals <= evals[0] + tol]
    return ground @ ground.conj().T


def _ite_reference(evals, evecs, amps, beta):
    out = evecs @ (np.exp(-beta * (evals - evals[0])) * (evecs.conj().T @ amps))
    return out / np.linalg.norm(out)


def _pauli_hamiltonian(n, entries):
    """Hamiltonian with one single-string term per (coefficient, label) entry."""
    terms = []
    for coeff, label in entries:
        string = PauliString.from_label(label)
        terms.append(LocalTerm(tuple(string.support), ((float(coeff), string),)))
    return Hamiltonian(n, tuple(terms))


@pytest.mark.parametrize(
    "h",
    [heisenberg_1d(5), tfi_1d(5, -1.0, -1.25), hubbard_1d_jw(2, 4.0),
     maxcut_six_vertex_instance()],
    ids=["heisenberg5", "tfi5", "hubbard2", "maxcut6"],
)
def test_real_path_matches_complex_eigh(h, rng):
    dec = spectral(h)
    assert dec.evals.dtype == np.float64 and dec.evecs.dtype == np.float64
    evals, evecs = _complex_reference(h)
    assert np.max(np.abs(dec.evals - evals)) < 1e-12
    assert np.max(np.abs(_ground_projector(dec.evals, dec.evecs)
                         - _ground_projector(evals, evecs))) < 1e-10
    state = StateVector(random_state(h.n_qubits, rng), h.n_qubits)
    want = _ground_projector(evals, evecs) @ state.amplitudes
    assert abs(dec.ground(1e-9).fidelity(state) - np.vdot(want, want).real) < 1e-10
    for beta in (0.0, 0.3, 1.7):
        got = exact_ite(state, h, beta).amplitudes
        assert np.max(np.abs(got - _ite_reference(evals, evecs, state.amplitudes, beta))) < 1e-10


def test_odd_y_string_keeps_complex_path(rng):
    h = _pauli_hamiltonian(3, [(0.7, "XYI"), (0.4, "ZZI"), (-0.3, "IXZ"), (0.2, "IIY")])
    dec = spectral(h)
    assert dec.evecs.dtype == complex
    evals, evecs = _complex_reference(h)
    assert np.max(np.abs(dec.evals - evals)) < 1e-12
    state = StateVector(random_state(3, rng), 3)
    for beta in (0.3, 1.7):
        got = dec.ite(state, beta).amplitudes
        assert np.max(np.abs(got - _ite_reference(evals, evecs, state.amplitudes, beta))) < 1e-10


@st.composite
def _even_y_hamiltonians(draw):
    n = draw(st.integers(1, 4))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(
        lambda text: text.count("Y") % 2 == 0
    )
    entries = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), label), min_size=1, max_size=6))
    return _pauli_hamiltonian(n, entries)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(h=_even_y_hamiltonians(), seed=st.integers(0, 2**32 - 1), beta=st.floats(0.0, 3.0))
def test_real_path_ite_energy_property(h, seed, beta):
    state = StateVector(random_state(h.n_qubits, np.random.default_rng(seed)), h.n_qubits)
    dec = spectral(h)
    assert dec.evecs.dtype == np.float64
    evals, evecs = _complex_reference(h)
    weights = np.abs(evecs.conj().T @ state.amplitudes) ** 2 * np.exp(
        -2.0 * beta * (evals - evals[0])
    )
    assert abs(dec.ite_energy(state, beta) - (weights @ evals) / weights.sum()) < 1e-10


def test_exact_ite_matches_dense_propagation(rng):
    h = heisenberg_1d(3, 1.0, 0.15)
    amps = random_real_state(3, rng)
    state = StateVector(amps, 3)
    beta = 0.8
    prop = dense_expm_hermitian(dense_hamiltonian(h), -beta)
    want = prop @ amps
    want = want / np.linalg.norm(want)
    got = exact_ite(state, h, beta)
    # match up to a global phase (both real-positive here, so direct)
    assert abs(abs(np.vdot(got.amplitudes, want)) - 1.0) < 1e-12


def test_exact_ite_composes():
    h = tfi_1d(3, 1.0, 0.7)
    state = plus_state(3)
    one_shot = exact_ite(state, h, 1.3)
    two_step = exact_ite(exact_ite(state, h, 0.5), h, 0.8)
    assert abs(fidelity(one_shot, two_step) - 1.0) < 1e-10


def test_exact_ite_limits():
    h = heisenberg_1d(2)
    state = neel_state(2)
    assert np.allclose(exact_ite(state, h, 0.0).amplitudes, state.amplitudes)
    # beta -> infinity projects onto the ground state reached from |01>
    e0, _ = exact_ground(h)
    assert abs(exact_ite_energy(state, h, 60.0) - e0) < 1e-10
    with pytest.raises(ValueError):
        exact_ite(state, h, -0.1)


def test_exact_ite_energy_consistent_with_state():
    h = heisenberg_1d(3)
    state = neel_state(3)
    for beta in (0.0, 0.3, 1.7):
        via_state = energy(exact_ite(state, h, beta), h)
        assert abs(exact_ite_energy(state, h, beta) - via_state) < 1e-10


def test_exact_ite_energy_monotone_non_increasing():
    h = heisenberg_1d(4)
    state = neel_state(4)
    betas = np.linspace(0.0, 4.0, 41)
    vals = [exact_ite_energy(state, h, b) for b in betas]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_exact_ite_squared_norm():
    # single qubit, H = Z, start |+>: ||e^{-beta Z}|+>||^2 = cosh(2 beta)
    h = one_qubit_field(0.0, 1.0)
    for beta in (0.0, 0.5, 1.25):
        got = exact_ite_squared_norm(product_state("+"), h, beta)
        assert abs(got - np.cosh(2 * beta)) < 1e-10


def test_gibbs_average_one_qubit_closed_form():
    h = one_qubit_field(0.0, 1.0)
    for beta in (0.0, 0.4, 1.0, 3.0):
        assert abs(gibbs_average(h, beta) + np.tanh(beta)) < 1e-12


def test_gibbs_average_monotone_and_observable():
    h = heisenberg_1d(4)
    vals = [gibbs_average(h, b) for b in np.linspace(0, 3, 16)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    # passing the Hamiltonian as the observable reproduces the default
    assert abs(gibbs_average(h, 0.7, observable=h) - gibbs_average(h, 0.7)) < 1e-12
    # infinite-temperature average of H is its trace mean, zero here
    assert abs(gibbs_average(h, 0.0)) < 1e-12
    with pytest.raises(DimensionError):
        gibbs_average(h, 1.0, observable=heisenberg_1d(3))
    with pytest.raises(ValueError):
        gibbs_average(h, -1.0)


def test_gibbs_average_refuses_a_wide_h_before_densifying_the_observable(monkeypatch):
    # the dense observable of a 14-qubit H would take 2.1 GB
    import qitekit.analysis

    def refuse(*args, **kwargs):
        raise AssertionError("to_dense was called")

    monkeypatch.setattr(qitekit.analysis, "to_dense", refuse)
    h = heisenberg_1d(14)
    with pytest.raises(ResourceError, match="ceiling is 13 qubits"):
        gibbs_average(h, 1.0, observable=h)


def test_ground_space_fidelity_degenerate():
    # maxcut ground space of the triangle graph is 6-fold degenerate
    h = maxcut(3, [(0, 1), (1, 2), (0, 2)])
    cuts = cut_values(h)
    best = cuts.max()
    amps = np.zeros(8)
    amps[np.argmax(cuts == best)] = 1.0
    assert abs(ground_space_fidelity(from_amplitudes(amps), h) - 1.0) < 1e-12
    assert abs(ground_space_fidelity(plus_state(3), h) - 6 / 8) < 1e-12


def _assert_lanczos_matches_spectral(h, rng, tol=1e-9):
    """E0, the ground dimension and ground fidelities of Lanczos against the
    dense ground space."""
    dense = spectral(h).ground(tol)
    ground = lanczos_ground(h.operator, tol)
    assert ground.route == "lanczos" and ground.matvecs > 0
    assert abs(ground.e0 - dense.e0) < 1e-10
    assert ground.dim == dense.dim
    for _ in range(3):
        state = StateVector(random_state(h.n_qubits, rng), h.n_qubits)
        assert abs(ground.fidelity(state) - dense.fidelity(state)) < 1e-10
    for vector in ground.basis.T:  # each ground vector: all its mass in the ground space
        assert abs(dense.fidelity(StateVector(vector.astype(complex), h.n_qubits)) - 1) < 1e-10


@st.composite
def _pauli_sums(draw, max_qubits=8):
    """Random real-weighted Pauli sums, real or complex (odd-Y strings), with
    a ground space of any degeneracy."""
    n = draw(st.integers(1, max_qubits))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    entries = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), label), min_size=1, max_size=8))
    return _pauli_hamiltonian(n, entries)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(h=_pauli_sums(), seed=st.integers(0, 2**32 - 1))
def test_lanczos_ground_matches_spectral_property(h, seed):
    _assert_lanczos_matches_spectral(h, np.random.default_rng(seed))


@pytest.mark.parametrize(
    "h, dim",
    [
        (maxcut_six_vertex_instance(), 6),  # three Z2 pairs of best cuts
        (maxcut(3, [(0, 1), (1, 2), (0, 2)]), 6),
        (tfi_1d(6, 1.0, 0.0), 2),  # diagonal: the two Neel strings
        (heisenberg_1d(5), 2),  # odd-n doublets
        (heisenberg_1d(7), 2),
        (heisenberg_1d(8), 1),
        (heisenberg_long_range(6), 1),
        (_pauli_hamiltonian(5, [(0.7, "XYIZI"), (0.4, "ZZIII"), (-0.3, "IXZYY")]), 8),
    ],
    ids=["maxcut6", "triangle", "diagonal_tfi6", "heisenberg5", "heisenberg7",
         "heisenberg8", "long_range6", "complex5"],
)
def test_lanczos_ground_on_degenerate_ground_spaces(h, dim, rng):
    _assert_lanczos_matches_spectral(h, rng)
    assert spectral(h).ground(1e-9).dim == dim


def test_lanczos_ground_refuses_a_ground_space_it_cannot_store():
    # H = X_0 on 9 qubits has a 256-fold ground space; Lanczos stores at most
    # 200 ground vectors (from 2^n = 512 on ground_space takes Lanczos)
    h = _pauli_hamiltonian(9, [(1.0, "X" + "I" * 8)])
    with pytest.raises(ResourceError, match="on 9 qubits has at least 200 dimensions"):
        ground_space(h, 1e-9)


def test_ground_space_routes():
    # a diagonal H reads its ground set off the diagonal, at any size
    ground = ground_space(maxcut_six_vertex_instance(), 1e-9)
    assert ground.route == "diagonal" and ground.matvecs == 0
    assert list(cut_values(maxcut_six_vertex_instance())[ground.basis]) == [5] * 6
    # below 2^n = 512 the dense eigh, from there on Lanczos
    assert ground_space(heisenberg_1d(8), 1e-9).route == "dense"
    ground = ground_space(heisenberg_1d(10), 1e-9)
    assert ground.route == "lanczos" and ground.dim == 1
    e0, vector = exact_ground(heisenberg_1d(10))
    assert e0 == ground.e0
    assert abs(energy(vector, heisenberg_1d(10)) - e0) < 1e-12


def test_dense_oracle_refuses_above_its_ceiling():
    # one ceiling, MAX_DENSE_QUBITS
    with pytest.raises(ResourceError, match=r"about 10\.7 GB .* ceiling is 13 qubits"):
        spectral(tfi_1d(14, 1.0, 1.0))
    complex_h = _pauli_hamiltonian(14, [(1.0, "Y" + "I" * 13)])
    with pytest.raises(ResourceError, match=r"about 21\.5 GB"):
        spectral(complex_h)


def test_mutual_information_known_states():
    assert abs(mutual_information(product_state("00"), 0, 1)) < 1e-12
    assert abs(mutual_information(plus_state(2), 0, 1)) < 1e-12
    bell = from_amplitudes([1, 0, 0, 1])
    assert abs(mutual_information(bell, 0, 1) - 2 * np.log(2)) < 1e-10
    ghz = from_amplitudes([1, 0, 0, 0, 0, 0, 0, 1])
    # tracing out the third qubit leaves classical correlation only
    assert abs(mutual_information(ghz, 0, 1) - np.log(2)) < 1e-10
    assert abs(mutual_information(ghz, 1, 0) - np.log(2)) < 1e-10
    with pytest.raises(DimensionError):
        mutual_information(bell, 1, 1)


def test_mutual_information_pairs_match_per_pair_sum_bytes(rng):
    state = StateVector(random_state(4, rng), 4)
    pairs = [(0, 1), (2, 0), (1, 3), (2, 3), (0, 3)]

    def entropy(qubits):
        return _entropy(reduced_density_matrix(state, qubits).matrix)

    want = [entropy((min(p),)) + entropy((max(p),)) - entropy(tuple(sorted(p))) for p in pairs]
    assert _mutual_information_pairs(state, pairs) == want
    with pytest.raises(DimensionError):
        _mutual_information_pairs(state, [(0, 1), (2, 2)])


def test_cut_values_and_success():
    h = maxcut(3, [(0, 1), (1, 2), (0, 2)])
    cuts = cut_values(h)
    assert cuts[0] == 0 and cuts[0b111] == 0
    assert cuts[0b001] == 2  # vertex 0 alone across from 1 and 2
    assert cuts.max() == 2
    state = from_amplitudes(np.eye(8)[0b001])
    assert abs(maxcut_success(state, h) - 1.0) < 1e-12
    assert abs(maxcut_success(zero_state(3), h)) < 1e-12
    assert abs(maxcut_success(plus_state(3), h) - 6 / 8) < 1e-12
    # explicit target overrides the computed optimum
    assert abs(maxcut_success(zero_state(3), h, c_max=0) - 1.0) < 1e-12
    with pytest.raises(DimensionError):
        cut_values(heisenberg_1d(2))


def test_maxcut_six_instance_statistics():
    h = maxcut_six_vertex_instance()
    cuts = cut_values(h)
    assert cuts.max() == 5
    assert int((cuts == 5).sum()) == 6
    assert abs(maxcut_success(plus_state(6), h) - 6 / 64) < 1e-12


def test_measurement_count_goldens():
    cases = [
        (CostQuery(4, 7, 4, False), 12544),
        (CostQuery(4, 7, 4, True), 5880),
        (CostQuery(6, 17, 4, False), 47872),
        (CostQuery(6, 17, 4, True), 22440),
        (CostQuery(6, 8, 4, False), 22528),
        (CostQuery(6, 8, 4, True), 10560),
    ]
    for query, want in cases:
        assert qite_measurement_count(query) == want, query
    with pytest.raises(ValueError):
        qite_measurement_count(CostQuery(0, 1, 2))
    with pytest.raises(ValueError):
        qite_measurement_count(CostQuery(1, 0, 2))
    with pytest.raises(ValueError):
        qite_measurement_count(CostQuery(1, 1, 0))


def test_vqe_reference_counts_present():
    assert VQE_REFERENCE_COUNTS[("heisenberg_field", 4)] == 25600
    assert VQE_REFERENCE_COUNTS[("heisenberg_field", 6)] == 403200
    assert VQE_REFERENCE_COUNTS[("tfi", 4)] == 12800
    assert VQE_REFERENCE_COUNTS[("tfi", 6)] == 69360
