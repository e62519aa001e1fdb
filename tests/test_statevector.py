import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qitekit.errors import DimensionError, ResourceError
from qitekit.hamiltonians import heisenberg_1d, tfi_1d
from qitekit.pauli import OperatorPool, PauliString, enumerate_pool
from qitekit.statevector import (
    _butterfly,
    _collapse_label,
    _Pcg64,
    _norm,
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


def test_start_states_equal_their_kron_chains_byte_for_byte():
    # one outer product per factor, most significant first, as np.kron forms it
    vectors = {"0": [1, 0], "1": [0, 1], "+": [1, 1], "-": [1, -1]}
    vectors = {ch: np.array(v, dtype=complex) / np.linalg.norm(v) for ch, v in vectors.items()}
    for n in range(1, 7):
        for label in map("".join, itertools.product("01+-", repeat=n)):
            want = np.array([1.0 + 0j])
            for ch in reversed(label):
                want = np.kron(want, vectors[ch])
            assert product_state(label).amplitudes.tobytes() == want.tobytes(), label
    singlet, zero = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0), np.ones(1, dtype=complex)
    for n in range(1, 13):
        zero = np.kron(zero, vectors["0"])
        assert zero_state(n).amplitudes.tobytes() == zero.tobytes(), n
        if n % 2 == 0:
            want = np.ones(1)
            for _ in range(n // 2):
                want = np.kron(singlet, want)
            got = singlet_dimer_state(n).amplitudes
            assert got.tobytes() == want.astype(complex).tobytes(), n


def test_from_amplitudes_normalizes():
    s = from_amplitudes([2.0, 0, 0, 0])
    assert s.amplitudes[0] == 1.0
    with pytest.raises(DimensionError):
        from_amplitudes([1.0, 0, 0])
    with pytest.raises(DimensionError):
        from_amplitudes([0.0, 0, 0, 0])


@pytest.mark.parametrize(
    "amplitudes", [[], np.ones((2, 2)), np.ones((1, 4)), 1.0],
    ids=["empty", "matrix", "row", "scalar"],
)
def test_from_amplitudes_refuses_empty_and_non_vector_input(amplitudes):
    # refused before any arithmetic: no log2(0) warning, no OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError):
            from_amplitudes(amplitudes)


@pytest.mark.parametrize("stack", [(), (3,), (2, 2)], ids=["vector", "stack", "stack2d"])
@pytest.mark.parametrize("size", [1, 2, 7, 64, 777, 2**14])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_norm_and_vecdot_reduce_as_norm_and_vdot(kind, size, stack, rng):
    # the QITE step kernel reduces a state and a stack of states by these
    # expressions; a one-state output stays byte-identical to np.linalg.norm
    # and np.vdot, and a stack's row to its state alone, only while they hold
    def draw():
        x = rng.normal(size=stack + (size,))
        return x + 1j * rng.normal(size=x.shape) if kind == "complex" else x

    for _ in range(5):
        a, b = draw(), draw()
        norms, dots = _norm(a), np.vecdot(a, b).real
        assert norms.shape == dots.shape == stack
        for row in np.ndindex(stack):
            assert norms[row] == np.linalg.norm(a[row])
            assert dots[row] == np.vdot(a[row], b[row]).real


def test_statevector_validation():
    with pytest.raises(DimensionError):
        StateVector(np.ones(4) / 2.0, 1)
    with pytest.raises(DimensionError):
        StateVector(np.ones(4), 2)  # unnormalized
    with pytest.raises(DimensionError):
        StateVector(np.full(4, np.nan), 2)  # a NaN norm compares false with anything
    with pytest.raises(DimensionError):
        StateVector(np.array([np.inf, 0, 0, 0]), 2)
    for empty in (lambda: zero_state(0), lambda: from_amplitudes([1.0]),
                  lambda: StateVector(np.ones(1), 0), lambda: product_state("")):
        with pytest.raises(DimensionError, match="need at least one qubit"):
            empty()


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


def test_dense_identity_sum_on_empty_support_matches_add_at_bytes(rng):
    # k = 0: the one x-group is a single column, which a reduce would sum pairwise
    coeffs = rng.normal(size=40)
    identity = PauliString.from_label("III")
    want = np.zeros((1, 1), dtype=complex)
    np.add.at(want, (np.zeros(40, int), np.zeros(40, int)), coeffs)
    got = dense_on_support([(c, identity) for c in coeffs], ())
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


def _apply_by_group(op, vector):
    """(H - offset) vector one x-group at a time: out += D_x * v[j ^ x]."""
    out = np.zeros(vector.shape, np.result_type(op.diagonals, vector))
    for src, diag in zip(op.sources, op.diagonals):
        out += diag * vector[src]
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    n_strings=st.integers(0, 80),
    real_diagonals=st.booleans(),
    real_vector=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_matches_group_loop_and_dense_property(
    n, n_strings, real_diagonals, real_vector, seed
):
    # the one stacked gather sums the groups in another order once there
    # are many of them (about 50 and up), so agreement is to 1e-13 of the
    # sum of the terms' magnitudes
    rng = np.random.default_rng(seed)
    xmask = rng.integers(0, 2**n, n_strings)
    yzmask = rng.integers(0, 2**n, n_strings)
    phase = 1j ** np.bitwise_count(xmask & yzmask)  # Y where both bits are set
    op = PauliOperator.from_masks(rng.normal(size=n_strings), (xmask, yzmask, phase), n)
    if real_diagonals:
        op = dataclasses.replace(op, diagonals=op.diagonals.real.copy())
    vector = rng.normal(size=2**n) + (0.0 if real_vector else 1j * rng.normal(size=2**n))
    got = op.apply(vector)
    want = _apply_by_group(op, vector)
    assert got.dtype == want.dtype and got.shape == (2**n,)
    scale = np.abs(op.diagonals).sum(axis=0).max(initial=0.0) * np.abs(vector).max()
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    assert np.max(np.abs(got - op.dense() @ vector)) <= 1e-13 * scale


@pytest.mark.parametrize("real_vector", [True, False], ids=["real", "complex"])
def test_apply_of_an_empty_operator_is_zero(real_vector):
    op = PauliOperator.from_masks([], _pauli_masks((), (0, 1, 2)), 3)
    assert op.sources.shape == op.diagonals.shape == (0, 8)
    vector = np.arange(8.0) if real_vector else np.arange(8.0) * (1 - 2j)
    got = op.apply(vector)
    assert got.dtype == complex and got.shape == (8,) and not got.any()


@pytest.mark.parametrize("n", range(2, 11))
def test_apply_of_model_hamiltonians_matches_group_loop_bytes(n, rng):
    # the shipped chains have at most n + 1 x-groups, which numpy sums
    # row by row, in the loop's order
    for op in (heisenberg_1d(n).operator, tfi_1d(n, -1.0, -1.25).operator):
        for vector in (rng.normal(size=2**n), random_state(n, rng)):
            assert op.apply(vector).tobytes() == _apply_by_group(op, vector).tobytes()


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


def test_measure_collapse_mixed_bases_on_product_states(rng):
    # each X-basis qubit is rotated on its own bit of the amplitude index
    for label in ("+0-1", "0+1-", "-1+0", "+-01"):
        bases = "".join("X" if ch in "+-" else "Z" for ch in label)
        assert measure_collapse(product_state(label), bases, rng)[0] == label


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


def test_butterfly_is_sqrt2_times_a_hadamard_on_one_bit(rng):
    values = rng.normal(size=16) + 1j * rng.normal(size=16)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
    for q in range(4):  # qubit q is bit q; the kron runs most significant first
        matrix = np.ones((1, 1))
        for k in reversed(range(4)):
            matrix = np.kron(matrix, hadamard if k == q else np.eye(2))
        got = _butterfly(values, 2**q)
        assert got.shape == values.shape and np.allclose(got, matrix @ values, rtol=0, atol=1e-14)


def test_measure_collapse_seed_determinism():
    a = measure_collapse(plus_state(4), "ZZZZ", np.random.default_rng(7))[0]
    b = measure_collapse(plus_state(4), "ZZZZ", np.random.default_rng(7))[0]
    assert a == b


def test_measure_collapse_guards(rng):
    with pytest.raises(DimensionError):
        measure_collapse(zero_state(2), "Z", rng)
    with pytest.raises(ValueError):
        measure_collapse(zero_state(1), "Q", rng)


def _bit_state(rng):
    """The bit generator state of a numpy generator or a stream, as numpy's
    ``(state, inc, has_uint32, uinteger)``."""
    if isinstance(rng, _Pcg64):
        return rng.state, rng.inc, rng.has_uint32, rng.uinteger
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**200), n=st.integers(1, 14))
@example(seed=0, n=1)
@example(seed=2**32 - 1, n=4)
@example(seed=2**32, n=4)
@example(seed=2**64, n=7)
@example(seed=2**128, n=14)
def test_stream_is_default_rng_bit_for_bit_property(seed, n):
    stream, numpy_rng = _Pcg64(seed), np.random.default_rng(seed)
    assert stream.integers(0, 2, size=n) == numpy_rng.integers(0, 2, size=n).tolist()
    for _ in range(64):
        assert stream.random() == numpy_rng.random()
    assert _bit_state(stream) == _bit_state(numpy_rng)


def test_stream_refuses_what_it_does_not_reproduce():
    with pytest.raises(ValueError):
        _Pcg64(-1)
    with pytest.raises(ValueError):
        _Pcg64(0).integers(0, 3, size=2)


@pytest.mark.parametrize(
    "amps",
    [[0.5, 0.5, np.nan, 0.5], [0.5, 0.5, np.inf, 0.5], [0.0, 0.0, 0.0, 0.0]],
    ids=["nan", "inf", "zero"],
)
@pytest.mark.parametrize("kind", ["numpy", "stream"])
def test_collapse_refuses_non_finite_probabilities_before_drawing(amps, kind):
    # what Generator.choice refused (a NaN or inf amplitude, or no weight at
    # all) is refused before anything is drawn, whichever generator is passed
    rng = np.random.default_rng(3) if kind == "numpy" else _Pcg64(3)
    before = _bit_state(rng)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        _collapse_label(np.asarray(amps, complex), "ZX", rng)
    assert _bit_state(rng) == before


def _choice_label(amps, bases, rng):
    """The collapse label as ``Generator.choice`` drew it."""
    for q, basis in enumerate(bases):
        if basis == "X":
            amps = _butterfly(amps, 2**q)
    probs = np.abs(amps) ** 2
    probs = probs / probs.sum()
    outcome = int(rng.choice(probs.size, p=probs))
    return "".join(("+-" if basis == "X" else "01")[outcome >> q & 1]
                   for q, basis in enumerate(bases))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_collapse_label_is_the_label_choice_drew_property(data):
    n = data.draw(st.integers(1, 6))
    bases = data.draw(st.text(alphabet="ZX", min_size=n, max_size=n))
    amps = random_state(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    seed = data.draw(st.integers(0, 2**64))
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        assert _collapse_label(amps, bases, mine) == _choice_label(amps, bases, theirs)
    assert _bit_state(mine) == _bit_state(theirs)
