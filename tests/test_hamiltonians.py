import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitekit.errors import ConfigError, DataFormatError, DimensionError
from qitekit.hamiltonians import (
    Hamiltonian,
    LocalTerm,
    energy,
    h2_bk,
    h2_from_table,
    heisenberg_1d,
    heisenberg_long_range,
    hubbard_1d_jw,
    load_h2_table,
    maxcut,
    maxcut_six_vertex_instance,
    one_qubit_field,
    tfi_1d,
    to_dense,
)
from qitekit.pauli import PauliString
from qitekit.statevector import StateVector, product_state, singlet_dimer_state

from conftest import dense_hamiltonian, random_state


def eigvals(h):
    return np.linalg.eigvalsh(dense_hamiltonian(h))


def test_local_term_validation():
    with pytest.raises(DimensionError):
        LocalTerm((0,), ((1.0, PauliString.from_label("IX")),))
    with pytest.raises(ValueError):
        LocalTerm((0,), ((1.0j, PauliString.from_label("X")),))


def test_to_dense_matches_oracle():
    for h in [
        one_qubit_field(0.3, -0.7),
        heisenberg_1d(3, 1.0, 0.2),
        tfi_1d(3, 1.0, -0.5),
        h2_bk([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
        hubbard_1d_jw(2, 4.0),
        heisenberg_long_range(4),
        maxcut_six_vertex_instance(),
    ]:
        assert np.allclose(to_dense(h), dense_hamiltonian(h))


@st.composite
def _pauli_sums(draw, max_qubits=8):
    """Random Pauli sums with an offset, split into random terms."""
    n = draw(st.integers(1, max_qubits))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    entries = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), label), min_size=1, max_size=8))
    cuts = sorted(draw(st.sets(st.integers(1, len(entries)), max_size=3)) | {len(entries)})
    terms, begin = [], 0
    for end in cuts:
        pauli_sum = tuple((c, PauliString.from_label(text)) for c, text in entries[begin:end])
        support = sorted({q for _, s in pauli_sum for q in s.support})
        terms.append(LocalTerm(tuple(support), pauli_sum))
        begin = end
    return Hamiltonian(n, tuple(terms), offset=draw(st.floats(-2.0, 2.0)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(h=_pauli_sums(), seed=st.integers(0, 2**32 - 1))
def test_operator_matches_per_term_sums_property(h, seed):
    state = StateVector(random_state(h.n_qubits, np.random.default_rng(seed)), h.n_qubits)
    dense, want = to_dense(h), dense_hamiltonian(h)
    # the per-term kron sums of the oracle, not the operator energy runs on
    per_term = np.vdot(state.amplitudes, want @ state.amplitudes).real
    assert abs(energy(state, h) - per_term) < 1e-12
    assert np.max(np.abs(dense - want)) < 1e-12
    assert np.iscomplexobj(dense) == bool(want.imag.any())  # float64 when H is real


def test_operator_groups_by_x_mask():
    # Heisenberg n=14: the diagonal plus one XX + YY group per bond
    op = heisenberg_1d(14).operator
    assert op.diagonals.shape == (14, 2**14) and op.diagonals.dtype == np.float64
    assert sorted(op.sources[:, 0].tolist()) == [0] + [3 << i for i in range(13)]
    assert not op.is_diagonal and maxcut_six_vertex_instance().operator.is_diagonal


def test_one_qubit_field_spectrum():
    alpha, beta = 0.6, -1.1
    w = eigvals(one_qubit_field(alpha, beta))
    r = np.hypot(alpha, beta)
    assert np.allclose(w, [-r, r])
    s = 1 / np.sqrt(2)
    assert np.allclose(eigvals(one_qubit_field(s, s)), [-1.0, 1.0])


def test_energy_function():
    h = one_qubit_field(0.0, 1.0)
    assert abs(energy(product_state("0"), h) - 1.0) < 1e-12
    assert abs(energy(product_state("1"), h) + 1.0) < 1e-12
    assert abs(energy(product_state("+"), h)) < 1e-12
    with pytest.raises(DimensionError):
        energy(product_state("00"), h)


def test_heisenberg_two_site_singlet():
    h = heisenberg_1d(2)
    w = eigvals(h)
    # S.S spectrum: singlet -3/4 below the triplet +1/4
    assert np.allclose(w, [-0.75, 0.25, 0.25, 0.25])
    assert abs(energy(singlet_dimer_state(2), h) + 0.75) < 1e-12


def test_heisenberg_term_layout():
    h = heisenberg_1d(4, coupling=2.0, field=0.3)
    assert h.n_qubits == 4
    # 3 bonds then 4 field terms, in that order
    assert h.n_terms == 7
    assert [t.support for t in h.terms] == [
        (0, 1), (1, 2), (2, 3), (0,), (1,), (2,), (3,),
    ]
    bond = h.terms[0]
    assert all(abs(c - 0.5) < 1e-15 for c, _ in bond.pauli_sum)  # coupling/4
    assert heisenberg_1d(4, field=0.0).n_terms == 3
    with pytest.raises(DimensionError):
        heisenberg_1d(1)


def test_heisenberg_chain_ground_energy():
    # open 4-site chain: resonance pushes the ground energy below the
    # product of two disconnected dimers at -1.5
    w = eigvals(heisenberg_1d(4))
    assert w[0] < -1.5
    assert abs(w[0] - (-1.6160254037844388)) < 1e-12


def test_heisenberg_long_range_weights():
    h = heisenberg_long_range(4, coupling=1.0)
    assert h.n_terms == 6
    pairs = [t.support for t in h.terms]
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for term in h.terms:
        i, j = term.support
        want = 1.0 / (abs(i - j) + 1.0) / 4.0
        assert all(abs(c - want) < 1e-15 for c, _ in term.pauli_sum)


def test_tfi_matches_oracle_and_layout():
    h = tfi_1d(4, 1.0, -1.25)
    assert h.n_terms == 3 + 4
    zz = h.terms[0].pauli_sum
    assert len(zz) == 1 and zz[0][1].to_label() == "ZZII"
    x = h.terms[3].pauli_sum
    assert x[0][1].to_label() == "XIII" and x[0][0] == -1.25
    # 2-site closed form: eigenvalues of J ZZ + f(X1+X2)
    w = eigvals(tfi_1d(2, 1.0, 0.5))
    want = np.linalg.eigvalsh(
        np.array(
            [
                [1, 0.5, 0.5, 0],
                [0.5, -1, 0, 0.5],
                [0.5, 0, -1, 0.5],
                [0, 0.5, 0.5, 1],
            ]
        )
    )
    assert np.allclose(w, want)


def test_hubbard_layout_and_limits():
    h = hubbard_1d_jw(2, interaction=4.0)
    assert h.n_qubits == 4
    # 2 hoppings (orbital chain of 4 has p=0,1) and 2 on-site terms; mu=0 omitted
    assert h.n_terms == 4
    assert [t.support for t in h.terms] == [(0, 1, 2), (1, 2, 3), (0, 1), (2, 3)]
    assert hubbard_1d_jw(2, 4.0, chem_potential=0.5).n_terms == 4 + 4

    # particle number is conserved, so the half-filled block can be cut out
    # directly; the 2-site ground energy there is (U - sqrt(U^2 + 16 t^2))/2
    occ = np.array([bin(i).count("1") for i in range(16)])
    sector = occ == 2
    for u in (0.0, 4.0, 100.0):
        mat = dense_hamiltonian(hubbard_1d_jw(2, u))
        off_block = mat[np.ix_(sector, ~sector)]
        assert np.allclose(off_block, 0.0)
        e0 = np.linalg.eigvalsh(mat[np.ix_(sector, sector)])[0]
        want = (u - np.hypot(u, 4.0)) / 2.0
        assert abs(e0 - want) < 1e-9, u
    # U = 0 sanity: that closed form is the free-hopping value -2t
    assert abs((0.0 - np.hypot(0.0, 4.0)) / 2.0 + 2.0) < 1e-15


def test_h2_bk_structure():
    g = [0.2, 0.3, -0.3, 0.1, 0.0, 0.0]
    h = h2_bk(g)
    assert h.offset == 0.2
    assert h.n_terms == 5  # zero coefficients keep their terms
    # g4=g5=0 makes it diagonal
    mat = dense_hamiltonian(h)
    assert np.allclose(mat, np.diag(np.diag(mat)))
    assert abs(mat[0, 0] - (0.2 + 0.3 - 0.3 + 0.1)) < 1e-12
    with pytest.raises(ValueError):
        h2_bk([1.0, 2.0])


def test_h2_table_roundtrip():
    table = load_h2_table()
    assert len(table) >= 2
    bond = sorted(table)[0]
    h = h2_from_table(bond)
    assert h.metadata["bond_length"] == bond
    # ground energy must match the dense oracle of the same coefficients
    w = np.linalg.eigvalsh(dense_hamiltonian(h))
    assert w[0] < w[-1]
    with pytest.raises(ConfigError):
        h2_from_table(123.456)


def test_h2_table_error_lines(tmp_path):
    bad = tmp_path / "bad.dat"
    bad.write_text("# comment\n0.5 1 2 3 4 5 6\n0.6 1 2 3\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_h2_table(str(bad))
    bad.write_text("0.5 1 2 3 4 5 six\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_h2_table(str(bad))
    bad.write_text("# nothing here\n")
    with pytest.raises(DataFormatError, match="empty"):
        load_h2_table(str(bad))


def test_maxcut_diagonal_exhaustive():
    edges = [(0, 1), (1, 2), (0, 2)]
    h = maxcut(3, edges)
    mat = dense_hamiltonian(h)
    assert np.allclose(mat, np.diag(np.diag(mat)))
    for idx in range(8):
        bits = [(idx >> q) & 1 for q in range(3)]
        cut = sum(1 for i, j in edges if bits[i] != bits[j])
        assert abs(mat[idx, idx] + cut) < 1e-12
    with pytest.raises(DimensionError):
        maxcut(3, [(0, 0)])
    with pytest.raises(DimensionError):
        maxcut(3, [])
    with pytest.raises(DimensionError):
        maxcut(3, [(0, 5)])


def test_maxcut_six_vertex_instance():
    h = maxcut_six_vertex_instance()
    assert h.n_qubits == 6 and h.n_terms == 6
    diag = np.diag(dense_hamiltonian(h)).real
    assert abs(diag.min() + 5.0) < 1e-12
    # six optimal assignments (three cuts and their complements)
    assert int(np.sum(np.abs(diag - diag.min()) < 1e-9)) == 6
