import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qitekit.errors import DimensionError, ResourceError
from qitekit.pauli import OperatorPool, PauliString, enumerate_pool
from qitekit.statevector import (
    _pauli_masks,
    _pauli_traces,
    _signs,
    PauliOperator,
    StateVector,
    apply_pauli,
    apply_pauli_sum,
    apply_term_exp,
    dense_on_support,
    expectation,
    expectation_sum,
    fidelity,
    from_amplitudes,
    inner_product,
    measure_collapse,
    neel_state,
    plus_state,
    product_state,
    reduced_density_matrix,
    singlet_dimer_state,
    zero_state,
)

from conftest import (
    dense_expm_hermitian,
    dense_pauli_string,
    dense_string,
    random_state,
)


def as_state(amps):
    return StateVector(np.asarray(amps, dtype=complex), int(np.log2(len(amps))))


def rdm_oracle(amps, n_qubits, qubits):
    """Partial trace by explicit bit bookkeeping, independent of the package."""
    k = len(qubits)
    rho = np.zeros((2**k, 2**k), dtype=complex)
    rest = [q for q in range(n_qubits) if q not in qubits]
    for a in range(2**k):
        for b in range(2**k):
            acc = 0j
            for r in range(2 ** len(rest)):
                ia = ib = 0
                for j, q in enumerate(qubits):
                    ia |= ((a >> j) & 1) << q
                    ib |= ((b >> j) & 1) << q
                for j, q in enumerate(rest):
                    bit = ((r >> j) & 1) << q
                    ia |= bit
                    ib |= bit
                acc += amps[ia] * np.conj(amps[ib])
            rho[a, b] = acc
    return rho


# ---------------------------------------------------------------- builders


def test_zero_state():
    s = zero_state(3)
    assert s.amplitudes[0] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_product_state_indexing():
    # qubit 0 is the least significant bit: |10> puts qubit 0 in |1>
    s = product_state("10")
    assert s.amplitudes[0b01] == 1.0
    s = product_state("01")
    assert s.amplitudes[0b10] == 1.0


def test_product_state_plus_minus():
    s = product_state("+-")
    expected = np.kron(
        np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2)
    )
    assert np.allclose(s.amplitudes, expected)
    with pytest.raises(ValueError):
        product_state("0q")


def test_neel_and_plus_states():
    assert np.argmax(np.abs(neel_state(4).amplitudes)) == 0b1010
    assert neel_state(5).amplitudes[0b01010] == 1.0
    assert np.allclose(plus_state(3).amplitudes, np.full(8, 1 / np.sqrt(8)))


def test_singlet_dimer_state():
    s = singlet_dimer_state(2)
    assert np.allclose(s.amplitudes, [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0])
    # four qubits: tensor of singlets on (0,1) and (2,3)
    s4 = singlet_dimer_state(4)
    two = singlet_dimer_state(2).amplitudes
    assert np.allclose(s4.amplitudes, np.kron(two, two))
    # annihilated by total spin lowering+raising structure: S^z_total = 0
    sz = sum(dense_string({q: "Z"}, 4) for q in range(4))
    assert np.allclose(sz @ s4.amplitudes, 0.0)
    with pytest.raises(ValueError):
        singlet_dimer_state(3)


def test_from_amplitudes_normalizes():
    s = from_amplitudes([2.0, 0, 0, 0])
    assert s.amplitudes[0] == 1.0
    with pytest.raises(DimensionError):
        from_amplitudes([1.0, 0, 0])
    with pytest.raises(DimensionError):
        from_amplitudes([0.0, 0, 0, 0])


def test_statevector_validation():
    with pytest.raises(DimensionError):
        StateVector(np.ones(4) / 2.0, 1)
    with pytest.raises(DimensionError):
        StateVector(np.ones(4), 2)  # unnormalized
    with pytest.raises(DimensionError):
        StateVector(np.full(4, np.nan), 2)  # a NaN norm compares false with anything
    with pytest.raises(DimensionError):
        StateVector(np.array([np.inf, 0, 0, 0]), 2)
    with pytest.raises(DimensionError):
        zero_state(0)


# ------------------------------------------------- Pauli action and overlap


def test_apply_pauli_matches_dense(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        amps = random_state(n, rng)
        label = "".join(rng.choice(list("IXYZ"), size=n))
        string = PauliString.from_label(label)
        got = apply_pauli(as_state(amps), string).amplitudes
        want = dense_pauli_string(string) @ amps
        assert np.allclose(got, want), label


def test_expectation_matches_dense(rng):
    amps = random_state(3, rng)
    state = as_state(amps)
    for label in ["XIZ", "YYI", "ZZZ", "III", "IXY"]:
        string = PauliString.from_label(label)
        want = np.vdot(amps, dense_pauli_string(string) @ amps).real
        assert abs(expectation(state, string) - want) < 1e-12


def test_pauli_sum_helpers(rng):
    amps = random_state(2, rng)
    state = as_state(amps)
    pauli_sum = [
        (0.5, PauliString.from_label("XI")),
        (-1.25, PauliString.from_label("ZY")),
    ]
    want = 0.5 * dense_string({0: "X"}, 2) @ amps - 1.25 * dense_string(
        {0: "Z", 1: "Y"}, 2
    ) @ amps
    assert np.allclose(apply_pauli_sum(state, pauli_sum), want)
    assert abs(expectation_sum(state, pauli_sum) - np.vdot(amps, want).real) < 1e-12


def test_inner_product_and_fidelity():
    a = product_state("0")
    b = product_state("+")
    assert abs(inner_product(a, b) - 1 / np.sqrt(2)) < 1e-12
    assert abs(fidelity(a, b) - 0.5) < 1e-12
    with pytest.raises(DimensionError):
        inner_product(a, product_state("00"))
    with pytest.raises(DimensionError):
        apply_pauli(a, PauliString.from_label("XX"))


# -------------------------------------------------- imaginary-time kernels


def test_apply_term_exp_matches_dense(rng):
    n = 4
    amps = random_state(n, rng)
    term = [
        (0.7, PauliString.from_label("IZZI")),
        (-0.3, PauliString.from_label("IXII")),
        (0.1, PauliString.from_label("IYZI")),
    ]
    dtau = 0.17
    hmat = sum(c * dense_pauli_string(s) for c, s in term)
    prop = dense_expm_hermitian(hmat, -dtau)
    want = prop @ amps
    c_want = float(np.vdot(want, want).real)
    out, c = apply_term_exp(as_state(amps), term, dtau)
    assert abs(c - c_want) < 1e-10
    assert np.allclose(out.amplitudes, want / np.sqrt(c_want), atol=1e-10)


def test_apply_term_exp_norm_closed_form():
    # <+| e^{-2 dtau Z} |+> = cosh(2 dtau)
    dtau = 0.1
    _, c = apply_term_exp(product_state("+"), [(1.0, PauliString.from_label("Z"))], dtau)
    assert abs(c - np.cosh(2 * dtau)) < 1e-12
    # and c ~ 1 - 2 dtau <h> up to O(dtau^2); <Z>=0 here
    assert abs(c - 1.0) < 3 * dtau**2


def test_apply_term_exp_identity_only():
    state = product_state("01")
    out, c = apply_term_exp(state, [(0.75, PauliString.identity(2))], 0.2)
    assert np.allclose(out.amplitudes, state.amplitudes)
    assert abs(c - np.exp(-2 * 0.2 * 0.75)) < 1e-14
    out, c = apply_term_exp(state, [], 0.2)
    assert c == 1.0
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_apply_term_exp_eigenstate():
    # |0> is the ground state of -Z; propagation only rescales the norm
    out, c = apply_term_exp(product_state("0"), [(-1.0, PauliString.from_label("Z"))], 0.3)
    assert np.allclose(out.amplitudes, [1.0, 0.0])
    assert abs(c - np.exp(0.6)) < 1e-12


def test_dense_on_support_convention(rng):
    # support bit 0 is the first listed qubit
    mat = dense_on_support([(1.0, PauliString.from_label("IZX"))], (1, 2))
    want = np.kron(dense_string({0: "X"}, 1), dense_string({0: "Z"}, 1))
    assert np.allclose(mat, want)
    # weighted sums with Y letters and identities on a non-contiguous support
    support = (0, 2, 3)
    labels = ["IIII", "YIYI", "XIZY", "IIYI", "ZIIX", "YIYY", "IIII"]
    for _ in range(3):
        coeffs = rng.normal(size=len(labels))
        strings = [PauliString.from_label(label) for label in labels]
        mat = dense_on_support(list(zip(coeffs, strings)), support)
        want = sum(
            c * dense_string({support.index(q): l for q, l in s.items}, 3)
            for c, s in zip(coeffs, strings)
        )
        assert np.allclose(mat, want)
    with pytest.raises(DimensionError):
        dense_on_support([(1.0, PauliString.from_label("ZII"))], (1, 2))


@pytest.mark.parametrize("kind", ["pauli_full", "pauli_odd_y"])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_dense_from_masks_matches_add_at_bytes(kind, k, rng):
    strings = enumerate_pool(OperatorPool(kind, tuple(range(k))), k)
    masks = _pauli_masks(tuple(strings), tuple(range(k)))
    coeffs = rng.normal(size=len(strings))
    # the scatter it replaced: complex np.add.at in input order
    xmask, yzmask, phase = masks
    cols = np.arange(2**k)
    values = coeffs[:, None] * (phase[:, None] * _signs(cols, yzmask[:, None]))
    rows = cols ^ xmask[:, None]
    want = np.zeros((2**k, 2**k), dtype=complex)
    np.add.at(want, (rows, np.broadcast_to(cols, rows.shape)), values)
    got = PauliOperator.from_masks(coeffs, masks, k).dense()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _weighted_strings(draw, qubits, n_qubits, min_size=0):
    """A list of (coefficient, string) with letters on ``qubits`` only."""
    letters = st.lists(st.sampled_from("IXYZ"), min_size=len(qubits), max_size=len(qubits))
    pairs = st.tuples(st.floats(-1.0, 1.0), letters)
    entries = draw(st.lists(pairs, min_size=min_size, max_size=8))
    return [
        (c, PauliString.from_letters(dict(zip(qubits, word)), n_qubits)) for c, word in entries
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_dense_on_support_non_contiguous_property(data):
    n = data.draw(st.integers(3, 7))
    support = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True))
    local = sorted(support)
    assume(local[-1] - local[0] >= len(local))  # a gap inside the support
    pauli_sum = _weighted_strings(data.draw, local, n, min_size=1)
    want = sum(
        c * dense_string({local.index(q): letter for q, letter in s.items}, len(local))
        for c, s in pauli_sum
    )
    # the support's listed order does not matter: local bit j is its j-th smallest qubit
    got = dense_on_support(pauli_sum, tuple(support))
    assert got.dtype == complex and np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_cancelled_strings_leave_no_x_group_property(data):
    n = data.draw(st.integers(1, 5))
    qubits = list(range(n))
    kept = _weighted_strings(data.draw, qubits, n)
    cancelled = _weighted_strings(data.draw, qubits, n, min_size=1)
    pairs = [pair for c, s in cancelled for pair in ((c, s), (-c, s))]
    vanished = PauliOperator.from_pauli_sum(pairs, n)
    assert vanished.sources.shape == vanished.diagonals.shape == (0, 2**n)
    assert vanished.is_diagonal and not vanished.diagonal().any()
    assert not vanished.dense().any()
    amps = random_state(n, np.random.default_rng(n))
    assert not vanished.apply(amps).any()
    # each pair sums to exact zeros first, so the kept strings alone decide the rest
    op = PauliOperator.from_pauli_sum(pairs + kept, n)
    alone = PauliOperator.from_pauli_sum(kept, n)
    assert op.sources.tobytes() == alone.sources.tobytes()
    assert op.diagonals.tobytes() == alone.diagonals.tobytes()
    want = sum((c * dense_pauli_string(s) for c, s in kept), np.zeros((2**n, 2**n)))
    assert np.max(np.abs(op.dense() - want)) < 1e-12
    state = StateVector(amps, n)
    assert np.max(np.abs(apply_pauli_sum(state, pairs + kept) - want @ amps)) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_apply_pauli_sum_refuses_wrong_width_property(data):
    n = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 5).filter(lambda m: m != n))
    good = _weighted_strings(data.draw, list(range(n)), n)
    label = data.draw(st.text(alphabet="IXYZ", min_size=width, max_size=width))
    position = data.draw(st.integers(0, len(good)))
    pauli_sum = good[:position] + [(1.0, PauliString.from_label(label))] + good[position:]
    state = StateVector(random_state(n, np.random.default_rng(width)), n)
    with pytest.raises(DimensionError, match="widths differ"):
        apply_pauli_sum(state, pauli_sum)
    with pytest.raises(DimensionError, match="widths differ"):
        expectation_sum(state, pauli_sum)


@pytest.mark.parametrize("kind", ["pauli_full", "pauli_odd_y", "fermionic_number_conserving"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_pauli_traces_match_dense_traces(kind, k, rng):
    strings = enumerate_pool(OperatorPool(kind, tuple(range(k))), k)
    masks = _pauli_masks(tuple(strings), tuple(range(k)))
    matrix = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    want = [np.trace(dense_on_support([(1.0, s)], tuple(range(k))) @ matrix) for s in strings]
    assert np.max(np.abs(_pauli_traces(matrix, masks) - want)) < 1e-12


# ----------------------------------------------------- RDMs and collapse


def test_reduced_density_matrix_against_oracle(rng):
    amps = random_state(4, rng)
    state = as_state(amps)
    for qubits in [(0,), (2,), (0, 1), (1, 3), (0, 2, 3)]:
        rho = reduced_density_matrix(state, qubits).matrix
        want = rdm_oracle(amps, 4, qubits)
        assert np.allclose(rho, want), qubits
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_reduced_density_matrix_bell_is_maximally_mixed():
    bell = from_amplitudes([1, 0, 0, 1])
    rho = reduced_density_matrix(bell, (0,)).matrix
    assert np.allclose(rho, np.eye(2) / 2)


def test_reduced_density_matrix_guards():
    state = zero_state(4)
    with pytest.raises(DimensionError):
        reduced_density_matrix(state, ())
    with pytest.raises(DimensionError):
        reduced_density_matrix(state, (1, 1))
    with pytest.raises(DimensionError):
        reduced_density_matrix(state, (3, 1))
    with pytest.raises(DimensionError):
        reduced_density_matrix(state, (0, 9))
    with pytest.raises(ResourceError):
        reduced_density_matrix(zero_state(9), tuple(range(9)))


def test_measure_collapse_deterministic_on_product_states(rng):
    label, post = measure_collapse(product_state("01"), "ZZ", rng)
    assert label == "01"
    assert np.allclose(post.amplitudes, product_state("01").amplitudes)
    label, post = measure_collapse(product_state("+-"), "XX", rng)
    assert label == "+-"
    assert np.allclose(post.amplitudes, product_state("+-").amplitudes)


def test_measure_collapse_statistics():
    # qubit in |+>: Z outcomes should be a fair coin
    rng = np.random.default_rng(11)
    ones = sum(
        measure_collapse(product_state("+"), "Z", rng)[0] == "1" for _ in range(4000)
    )
    assert abs(ones / 4000 - 0.5) < 0.03  # ~4 sigma of a fair coin


def test_measure_collapse_label_charset(rng):
    label, post = measure_collapse(plus_state(3), "ZXZ", rng)
    assert label[0] in "01" and label[1] in "+-" and label[2] in "01"
    # collapsed state is exactly the labeled product state
    assert np.allclose(post.amplitudes, product_state(label).amplitudes)


def test_measure_collapse_seed_determinism():
    a = measure_collapse(plus_state(4), "ZZZZ", np.random.default_rng(7))[0]
    b = measure_collapse(plus_state(4), "ZZZZ", np.random.default_rng(7))[0]
    assert a == b


def test_measure_collapse_guards(rng):
    with pytest.raises(DimensionError):
        measure_collapse(zero_state(2), "Z", rng)
    with pytest.raises(ValueError):
        measure_collapse(zero_state(1), "Q", rng)
