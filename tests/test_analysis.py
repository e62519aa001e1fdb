import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qitekit.analysis import (
    VQE_REFERENCE_COUNTS,
    CostQuery,
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
    _echelon,
    _symmetries,
    energy,
    heisenberg_1d,
    heisenberg_long_range,
    hubbard_1d_jw,
    maxcut,
    maxcut_six_vertex_instance,
    one_qubit_field,
    tfi_1d,
    to_dense,
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

from conftest import (
    dense_expm_hermitian,
    dense_hamiltonian,
    dense_pauli_string,
    random_real_state,
    random_state,
)


def test_spectral_and_exact_ground():
    h = one_qubit_field(0.6, 0.8)
    dec = spectral(h)
    assert np.allclose(dec.evals, [-1.0, 1.0])
    e0, ground = exact_ground(h)
    assert abs(e0 + 1.0) < 1e-12
    assert abs(energy(ground, h) + 1.0) < 1e-12
    # a diagonal H: the ground state is one of its ground basis states
    h = maxcut_six_vertex_instance()
    e0, ground = exact_ground(h)
    assert e0 == -5.0
    assert np.count_nonzero(ground.amplitudes) == 1
    assert abs(energy(ground, h) - e0) < 1e-12


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
    vectors = dec.ground(np.inf).basis
    assert dec.evals.dtype == np.float64 and vectors.dtype == np.float64
    evals, evecs = _complex_reference(h)
    assert np.max(np.abs(dec.evals - evals)) < 1e-12
    assert np.max(np.abs(_ground_projector(dec.evals, vectors)
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
    assert dec.ground(np.inf).basis.dtype == complex
    evals, evecs = _complex_reference(h)
    assert np.max(np.abs(dec.evals - evals)) < 1e-12
    state = StateVector(random_state(3, rng), 3)
    for beta in (0.3, 1.7):
        got = dec.ite(state, beta).amplitudes
        assert np.max(np.abs(got - _ite_reference(evals, evecs, state.amplitudes, beta))) < 1e-10


def _assert_symmetries_commute(h, masks):
    """X^a sigma X^a = sigma for every mask a and every string sigma of H,
    on the kron-built matrices: the conjugation permutes rows and columns
    by j -> j ^ a."""
    index = np.arange(2**h.n_qubits)
    for string in {s for term in h.terms for _, s in term.pauli_sum}:
        mat = dense_pauli_string(string)
        for a in masks:
            assert np.array_equal(mat[np.ix_(index ^ a, index ^ a)], mat), (string, a)


@pytest.mark.parametrize(
    "h, k",
    [
        (tfi_1d(6, 1.0, 1.0), 1),  # the global flip
        (heisenberg_1d(6), 1),
        (one_qubit_field(0.6, 0.8), 0),
        (_pauli_hamiltonian(5, [(0.3, "XIIII"), (-0.7, "IXXII"), (1.1, "IIIXX")]), 5),
    ],
    ids=["tfi6", "heisenberg6", "one_qubit_field", "x_only5"],
)
def test_x_symmetry_count(h, k):
    symmetries = _symmetries(h)[0]
    assert len(symmetries) == k
    _assert_symmetries_commute(h, symmetries.values())


@pytest.mark.parametrize(
    "h",
    [
        # ZZ bonds with a transverse and a longitudinal field: the X field
        # joins every basis state, and the Z field breaks the global flip
        _pauli_hamiltonian(5, [(1.0, "ZZIII"), (0.8, "IZZII"), (1.1, "IIZZI"), (0.9, "IIIZZ")]
                           + [(0.7, "I" * q + "X" + "I" * (4 - q)) for q in range(5)]
                           + [(0.3, "I" * q + "Z" + "I" * (4 - q)) for q in range(5)]),
        one_qubit_field(0.6, 0.8),
        _pauli_hamiltonian(3, [(0.7, "XYI"), (0.4, "ZZI"), (-0.3, "IXZ"), (0.2, "IIY")]),
    ],
    ids=["ising5_fields", "one_qubit_field", "complex3"],
)
def test_spectral_without_x_symmetry_is_one_eigh(h):
    assert not _symmetries(h)[0]
    dec = spectral(h)
    ((grid, block_evals, block_evecs),) = dec.blocks  # one sector, one block
    assert np.array_equal(grid, np.arange(2**h.n_qubits).reshape(1, 1, 1, -1))
    evals, evecs = np.linalg.eigh(to_dense(h))
    assert block_evals.tobytes() == evals.tobytes() and block_evecs.tobytes() == evecs.tobytes()
    vectors = dec.ground(np.inf).basis
    assert dec.evals.dtype == evals.dtype and vectors.dtype == evecs.dtype
    assert dec.evals.tobytes() == evals.tobytes()
    # the unit-coefficient product gives a -0.0 imaginary part as +0.0
    assert np.array_equal(vectors, evecs)


@st.composite
def _blockable_pauli_sums(draw, max_qubits=8):
    """Random Pauli sums, real or complex: any strings, X-only strings (every
    X-type string is a symmetry), or any strings plus a Z field on every
    qubit (none is)."""
    n = draw(st.integers(1, max_qubits))
    kind = draw(st.sampled_from(["any", "x_only", "z_field"]))
    label = st.text(alphabet="IX" if kind == "x_only" else "IXYZ", min_size=n, max_size=n)
    entries = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), label), min_size=1, max_size=8))
    if kind == "z_field":
        field = st.floats(0.1, 1.0)
        entries += [(draw(field), "I" * q + "Z" + "I" * (n - 1 - q)) for q in range(n)]
    return _pauli_hamiltonian(n, entries)


def _assert_matches_one_eigh(h, seed):
    """spectral(h) against one eigh of the dense H: the grids tile the
    register; the eigenvalues, the residual and orthonormality of every
    eigenvector, the ground projector, and ite, ite_energy and gibbs with
    and without a random observable agree."""
    n, mat = h.n_qubits, to_dense(h)
    dec, (evals, evecs) = spectral(h), np.linalg.eigh(mat)
    states = np.concatenate([grid.ravel() for grid, _, _ in dec.blocks])
    assert np.array_equal(np.sort(states), np.arange(2**n))
    for grid, block_evals, block_evecs in dec.blocks:
        assert block_evals.shape == grid.shape[1:]
        assert block_evecs.shape == grid.shape[1:] + grid.shape[-1:]
    vectors = dec.ground(np.inf).basis
    assert vectors.dtype == evecs.dtype
    assert np.all(np.diff(dec.evals) >= 0)
    assert np.max(np.abs(dec.evals - evals)) <= 1e-12
    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(2**n), 2) <= 1e-12
    scale = max(np.linalg.norm(mat, 2), 1.0)
    assert np.linalg.norm(mat @ vectors - vectors * dec.evals, 2) / scale <= 1e-12
    # Davis-Kahan: a ground projector is fixed only to (backward error) / gap
    above = evals[evals > evals[0] + 1e-9]
    gap = above[0] - evals[0] if above.size else np.inf
    bound = 1e-10 + 1e-13 * np.linalg.norm(mat, 2) / gap
    assert np.max(np.abs(_ground_projector(dec.evals, vectors)
                         - _ground_projector(evals, evecs))) <= bound
    ground = dec.ground(1e-9).basis
    assert np.max(np.abs(ground @ ground.conj().T - _ground_projector(evals, evecs))) <= bound
    rng = np.random.default_rng(seed)
    state = StateVector(random_state(n, rng), n)
    noise = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
    observable = noise + noise.conj().T
    populations = np.abs(evecs.conj().T @ state.amplitudes) ** 2
    for beta in (0.0, 0.3, 1.7):
        want = _ite_reference(evals, evecs, state.amplitudes, beta)
        assert np.max(np.abs(dec.ite(state, beta).amplitudes - want)) <= 1e-10
        weights = populations * np.exp(-2.0 * beta * (evals - evals[0]))
        want = (weights @ evals) / weights.sum()
        assert abs(dec.ite_energy(state, beta) - want) <= 1e-10 * scale
        weights = np.exp(-beta * (evals - evals[0]))
        want = (weights @ evals) / weights.sum()
        assert abs(dec.gibbs(beta) - want) <= 1e-10 * scale
        want = (weights @ np.einsum("ik,ij,jk->k", evecs.conj(), observable, evecs).real
                ) / weights.sum()
        assert abs(dec.gibbs(beta, observable) - want) <= 1e-10 * np.linalg.norm(observable, 2)
    return dec


@settings(max_examples=40, deadline=None, derandomize=True)
@given(h=_blockable_pauli_sums(), seed=st.integers(0, 2**32 - 1))
# a ground gap of 2.4e-7: the two ground projectors differ by 6.1e-10
@example(h=_pauli_hamiltonian(7, [(1.0, "IIIIIYZ"), (1.192092896e-07, "IIIIIXX")]), seed=0)
# two layout groups of one width
@example(h=_pauli_hamiltonian(3, [(0.5, "IXZ"), (0.5, "ZXI"), (1.0, "IIZ")]), seed=0)
def test_blocked_spectral_matches_one_eigh_property(h, seed):
    n = h.n_qubits
    symmetries = _symmetries(h)[0]
    _assert_symmetries_commute(h, symmetries.values())
    masks = [sum(1 << q for q, c in s.items if c != "X") for t in h.terms for _, s in t.pauli_sum]
    commuting = [a for a in range(2**n) if all(bin(a & z).count("1") % 2 == 0 for z in masks)]
    assert len(commuting) == 2 ** len(symmetries)
    _assert_matches_one_eigh(h, seed)


@st.composite
def _number_conserving_sums(draw, max_qubits=7):
    """Random Pauli sums that conserve the number of 1 bits: XX + YY hops,
    XY - YX hops (complex), ZZ couplings and, unless ``flip`` is drawn, Z
    fields, which break the global flip X^n that every other term commutes
    with."""
    n = draw(st.integers(2, max_qubits))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    weight = st.floats(-1.0, 1.0).filter(lambda w: abs(w) > 1e-3)

    def label(letters):
        chars = ["I"] * n
        for q, letter in letters.items():
            chars[q] = letter
        return "".join(chars)

    entries = []
    for (i, j), t, kind in draw(st.lists(st.tuples(pair, weight, st.sampled_from(
            ["real", "complex", "zz"])), min_size=1, max_size=8)):
        if kind == "real":
            entries += [(t, label({i: "X", j: "X"})), (t, label({i: "Y", j: "Y"}))]
        elif kind == "complex":
            entries += [(t, label({i: "X", j: "Y"})), (-t, label({i: "Y", j: "X"}))]
        else:
            entries.append((t, label({i: "Z", j: "Z"})))
    if not draw(st.booleans()):  # no global flip
        entries += [(draw(weight), label({q: "Z"})) for q in range(n)]
    return _pauli_hamiltonian(n, entries)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(h=_number_conserving_sums(), seed=st.integers(0, 2**32 - 1))
@example(h=heisenberg_1d(6, field=0.3), seed=0)
@example(h=heisenberg_1d(7), seed=1)
def test_sectored_spectral_matches_one_eigh_property(h, seed):
    # every sector is a set of basis states with one count of 1 bits (a U(1)
    # sector, or a finer one where the hops do not join it)
    dec = _assert_matches_one_eigh(h, seed)
    assert sum(grid.shape[0] * grid.shape[1] for grid, _, _ in dec.blocks) > 1
    for grid, _, _ in dec.blocks:
        assert np.all(np.bitwise_count(grid) == np.bitwise_count(grid[..., :1, :1]))


@st.composite
def _paired_sums(draw, max_qubits=7):
    """Random Pauli sums, real or complex, that commute with X X on each of
    two or more disjoint qubit pairs: on a pair both letters lie in {I, X}
    or both in {Y, Z}.  Each pair also holds an X X term of weight above 6,
    which the at most six other strings of weight at most 1 cannot cancel,
    so X X joins every state to its partner and every sector's stabilizer
    holds the pairs' group: s >= 2."""
    n = draw(st.integers(4, max_qubits))
    qubits = draw(st.permutations(range(n)))
    pairs = [qubits[2 * p : 2 * p + 2] for p in range(draw(st.integers(2, n // 2)))]
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        letters = draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))
        for pair in pairs:
            kinds = draw(st.sampled_from(["IX", "YZ"]))
            for q in pair:
                letters[q] = draw(st.sampled_from(kinds))
        entries.append((draw(st.floats(-1.0, 1.0)), "".join(letters)))
    for pair in pairs:
        entries.append((draw(st.floats(6.5, 7.0)), "".join("X" if q in pair else "I" for q in range(n))))
    return _pauli_hamiltonian(n, entries)


# XX and ZZ on the pairs (0, 1) and (2, 3) joined by an XX, and ZZ on (4, 5):
# the flip of (4, 5) carries each sector onto an image (T = 2, s = 2); a YZ
# string makes it complex and joins qubits 0 to 3 into one sector per (4, 5)
_PAIRED6 = [(7.0, "XXIIII"), (0.5, "ZZIIII"), (6.8, "IIXXII"), (-0.4, "IIZZII"),
            (0.3, "IXXIII"), (0.9, "IIIIZZ")]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(h=_paired_sums(), seed=st.integers(0, 2**32 - 1))
@example(h=_pauli_hamiltonian(6, _PAIRED6), seed=0)
@example(h=_pauli_hamiltonian(6, _PAIRED6 + [(0.6, "YZIIII")]), seed=1)
def test_multi_bit_stabilizer_spectral_matches_one_eigh_property(h, seed):
    # the Walsh transform of two or more butterflies carries states into
    # the blocks and out for ite, ite_energy and gibbs with an observable
    dec = _assert_matches_one_eigh(h, seed)
    assert min(grid.shape[2] for grid, _, _ in dec.blocks) >= 4


def _component_labels(h):
    """Each basis state's smallest state over its connected component of the
    graph that H's nonzero off-diagonal matrix entries draw, by union-find."""
    parent = list(range(2**h.n_qubits))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for i, j in zip(*np.nonzero(to_dense(h))):
        a, b = root(i), root(j)
        parent[max(a, b)] = min(a, b)
    return np.array([root(j) for j in range(len(parent))])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(h=st.one_of(_blockable_pauli_sums(), _number_conserving_sums()))
@example(h=heisenberg_1d(6, field=0.3))
@example(h=tfi_1d(5, 1.0, 1.0))
def test_layout_contract_property(h):
    n, layout, operator = h.n_qubits, h.layout, h.operator
    index, components = np.arange(2**n), _component_labels(h)
    cosets, group = layout.x_orbits
    states = np.concatenate([grid.ravel() for grid in layout.grids])
    assert np.array_equal(np.sort(states), index), "the grids tile the register"
    sector = np.empty_like(index)  # each state's sector, named by its smallest state
    for grid in layout.grids:
        images, _, size, width = grid.shape
        slices = grid.reshape(-1, size * width)  # one row per (image, sector)
        sector[slices] = slices.min(axis=1, keepdims=True)
        assert np.array_equal(layout.place[grid], np.broadcast_to(
            np.arange(size * width).reshape(size, width), grid.shape))
        for image in grid:  # each image is grid[0] ^ a for one element a
            shift = image[0, 0, 0] ^ grid[0, 0, 0, 0]
            assert shift in group and np.array_equal(image, grid[0] ^ shift)
        # d carries every representative r, ascending, to r ^ a_d: the 2^s
        # elements of the group that map the sector onto itself, its T images
        # the other cosets
        reps = grid[0, :, 0]
        assert np.all(np.diff(reps, axis=-1) > 0)
        elements = grid[0] ^ reps[:, None]
        assert np.all(elements == elements[:1, :, :1]) and np.all(np.isin(elements, group))
        stabilizer = elements[0, :, 0]
        assert np.array_equal(np.sort(stabilizer), np.sort(group[
            components[reps[0, 0] ^ group] == components[reps[0, 0]]]))
        assert images * size == len(group)
        # the d = 0 states clear the pivot bits of the stabilizer's echelon basis
        pivots = sum(1 << pivot for pivot in _echelon(cosets[stabilizer].tolist()))
        assert not np.any(cosets[reps] & pivots)
    assert np.array_equal(sector, components)  # so each slice is one component
    joins = operator.diagonals != 0  # no nonzero D_x joins two sectors
    assert np.array_equal(sector[operator.sources][joins], np.broadcast_to(sector, joins.shape)[joins])
    strings = [s for term in h.terms for _, s in term.pauli_sum]
    for letter, (cosets, group) in zip("XZ", (layout.x_orbits, layout.z_orbits)):
        masks = [sum(1 << q for q, c in s.items if c not in (letter, "I")) for s in strings]
        assert all(bin(a & m).count("1") % 2 == 0 for a in group.tolist() for m in masks)
        reps = index ^ group[cosets]  # each orbit's representative is fixed by the map
        assert np.array_equal(reps[reps], reps)
        assert all(np.array_equal(reps[index ^ a], reps) for a in group)


@pytest.mark.parametrize(
    "h", [heisenberg_1d(6), tfi_1d(5, 1.0, 1.0), hubbard_1d_jw(2, 4.0), one_qubit_field(0.6, 0.8)],
    ids=["heisenberg6", "tfi5", "hubbard2", "one_qubit_field"],
)
def test_spectral_keeps_the_layout_grids(h):
    dec = spectral(h)
    assert len(dec.blocks) == len(h.layout.grids)
    assert all(block[0] is grid for block, grid in zip(dec.blocks, h.layout.grids))


def test_spectral_runs_one_eigh_per_layout_group(monkeypatch):
    # two groups of one width, 1 row each: one eigh apiece, each returning
    # what an eigh of that group's blocks returns, byte for byte
    import qitekit.analysis

    h = _pauli_hamiltonian(3, [(0.5, "IXZ"), (0.5, "ZXI"), (1.0, "IIZ")])
    grids = h.layout.grids
    assert [grid.shape for grid in grids] == [(1, 2, 2, 1), (2, 2, 1, 1)]
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    dec = spectral(h)
    assert len(calls) == len(grids) == 2
    monkeypatch.undo()
    for grid, evals, evecs in dec.blocks:
        want_evals, want_evecs = np.linalg.eigh(
            qitekit.analysis._blocks(h.operator, h.layout.place, grid))
        shape = grid.shape[1:]
        assert evals.tobytes() == want_evals.reshape(shape).tobytes()
        assert evecs.tobytes() == want_evecs.reshape(*shape, shape[-1]).tobytes()


def test_ground_moves_out_only_the_group_of_the_ground_level(monkeypatch):
    # heisenberg_1d(6) has 4 sector groups: Sz = +-3, +-2, +-1 (each with its
    # image) and Sz = 0 (two flip blocks of 10 rows), which holds the ground
    # level alone; ground multiplies eigenvectors in that group only
    import qitekit.analysis

    h = heisenberg_1d(6)
    dec = spectral(h)
    assert len(h.layout.grids) == 4
    calls, times = [], qitekit.analysis._times
    monkeypatch.setattr(qitekit.analysis, "_times",
                        lambda matrix, vectors: calls.append(matrix.shape)
                        or times(matrix, vectors))
    ground = dec.ground(1e-9)
    assert calls == [(1, 2, 10, 10)]
    assert ground.dim == 1 and abs(ground.e0 + 2.49358) < 1e-5
    assert np.linalg.norm(to_dense(h) @ ground.basis - ground.e0 * ground.basis) < 1e-12


def test_exact_ite_settles_on_the_lowest_level_of_its_sector():
    # |000011> has two 1 bits, and a Heisenberg chain keeps it among the 15
    # states with two: the lowest level there (Sz = 1) is -2.00200, above
    # E0 = -2.49358 (Sz = 0)
    h, state = heisenberg_1d(6), product_state("000011")
    sector = np.flatnonzero(np.bitwise_count(np.arange(64)) == 2)
    level = np.linalg.eigvalsh(to_dense(h)[np.ix_(sector, sector)])[0]
    assert abs(level + 2.00200) < 1e-5 and abs(spectral(h).evals[0] + 2.49358) < 1e-5
    for beta in (100.0, 1000.0):
        assert abs(exact_ite_energy(state, h, beta) - level) < 1e-10


@pytest.mark.parametrize("label", ["101", "1"], ids=["wider", "narrower"])
def test_exact_oracles_refuse_a_state_of_another_width(label):
    # each read of a state's amplitudes against a two-qubit H: the moves into
    # the blocks, a ground basis of columns or of a diagonal H's mask, and
    # ground_space_fidelity on every route before it builds one
    state, h, diagonal = product_state(label), heisenberg_1d(2), maxcut(2, [(0, 1)])
    dec = spectral(h)
    calls = [
        lambda: exact_ite(state, h, 0.5),
        lambda: exact_ite_energy(state, h, 0.5),
        lambda: exact_ite_squared_norm(state, h, 0.5),
        lambda: dec.coefficients(state),
        lambda: dec.ite(state, 0.5),
        lambda: dec.ite_energy(state, 0.5),
        lambda: dec.ite_squared_norm(state, 0.5),
        lambda: dec.ground(1e-9).fidelity(state),
        lambda: lanczos_ground(h.operator, 1e-9).fidelity(state),
        lambda: ground_space(diagonal, 1e-9).fidelity(state),
        lambda: ground_space_fidelity(state, h),
        lambda: ground_space_fidelity(state, diagonal),
    ]
    for call in calls:
        with pytest.raises(DimensionError, match="widths differ"):
            call()


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
    assert dec.ground(np.inf).basis.dtype == np.float64
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


@pytest.mark.parametrize(
    "bits, h, want",
    [
        ("0000", tfi_1d(4, 1.0, 0.0), 3.0),  # an eigenstate above the ground level
        ("0000", heisenberg_1d(4), 0.75),
        ("0001", heisenberg_1d(4), -0.25 - np.sqrt(0.5)),  # the lowest Sz = 1 level
    ],
    ids=["tfi-0000", "heisenberg-0000", "heisenberg-0001"],
)
def test_exact_ite_without_ground_weight(bits, h, want):
    # psi0 has no weight on the ground level, so e^{-beta H} psi0 settles on
    # the lowest level psi0 populates, at any beta
    state = product_state(bits)
    for beta in (100.0, 1000.0):
        assert exact_ite_energy(state, h, beta) == pytest.approx(want, abs=1e-12)
        assert energy(exact_ite(state, h, beta), h) == pytest.approx(want, abs=1e-12)
    want_state = dense_expm_hermitian(dense_hamiltonian(h), -2.0) @ state.amplitudes
    got = exact_ite(state, h, 2.0).amplitudes
    assert abs(abs(np.vdot(got, want_state)) / np.linalg.norm(want_state) - 1.0) < 1e-12


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


def test_exact_ite_refuses_negative_beta():
    # every exact-ITE path and gibbs pass one check: ite_energy used to read
    # the beta = 0 energy at beta = -1 (-0.75 from |0101> on a chain of 4)
    h, state = heisenberg_1d(4), product_state("0101")
    dec = spectral(h)
    assert dec.ite_energy(state, 0.0) == pytest.approx(-0.75, abs=1e-12)
    for call in (lambda: dec.ite(state, -1.0), lambda: dec.ite_energy(state, -1.0),
                 lambda: dec.ite_squared_norm(state, -1.0), lambda: dec.gibbs(-1.0),
                 lambda: exact_ite_energy(state, h, -1.0),
                 lambda: exact_ite_squared_norm(state, h, -1.0), lambda: gibbs_average(h, -1.0)):
        with pytest.raises(ValueError, match="beta must be non-negative"):
            call()


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


@pytest.mark.parametrize(
    "h, observables",
    [
        (
            tfi_1d(4, 1.0, 0.7),
            [heisenberg_1d(4), _pauli_hamiltonian(4, [(0.5, "YIII"), (0.3, "XYZI")])],
        ),
        (
            _pauli_hamiltonian(3, [(0.7, "XYI"), (0.4, "ZZI"), (-0.3, "IXZ"), (0.2, "IIY")]),
            [heisenberg_1d(3), _pauli_hamiltonian(3, [(0.5, "YII"), (0.3, "XYZ")])],
        ),
    ],
    ids=["real", "complex"],
)
def test_gibbs_observable_against_plain_eigh(h, observables, rng):
    # Tr(O e^{-beta H}) / Tr(e^{-beta H}) for real and complex O, and for a
    # dense Hermitian O with no Pauli structure
    mat, dim = dense_hamiltonian(h), 2**h.n_qubits
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    dense, dec = noise + noise.conj().T, spectral(h)
    for beta in (0.0, 0.6, 2.5):
        rho = dense_expm_hermitian(mat, -beta)
        for observable in observables:
            want = np.trace(dense_hamiltonian(observable) @ rho).real / np.trace(rho).real
            assert abs(gibbs_average(h, beta, observable) - want) < 1e-10
        want = np.trace(dense @ rho).real / np.trace(rho).real
        assert abs(dec.gibbs(beta, dense) - want) < 1e-10


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


@pytest.mark.parametrize("max_basis", [6, 10])
@pytest.mark.parametrize("h", [heisenberg_1d(6), tfi_1d(6, 1.0, 1.0)], ids=["heisenberg6", "tfi6"])
def test_lanczos_ground_restarts_from_its_ritz_vector(monkeypatch, h, max_basis):
    # a basis this short does not converge on 64 amplitudes, so each
    # Lanczos run restarts from its Ritz vector until it does
    import qitekit.analysis

    monkeypatch.setattr(qitekit.analysis, "_LANCZOS_MAX_BASIS", max_basis)
    assert abs(lanczos_ground(h.operator, 1e-9).e0 - spectral(h).evals[0]) < 1e-12


@pytest.mark.parametrize(
    "h, matvecs, dim",
    [
        (heisenberg_1d(9), 125, 2),  # a doublet: three runs, the last rejected
        (tfi_1d(8, -1.0, -1.25), 105, 1),
        (heisenberg_1d(12), 110, 1),
    ],
    ids=["heisenberg9", "tfi8", "heisenberg12"],
)
def test_lanczos_ground_check_schedule(h, matvecs, dim):
    # the products with H that each run makes before its converged check
    # (every _LANCZOS_CHECK vectors, then a restart or deflation run);
    # a change to the loop must not move them
    ground = lanczos_ground(h.operator, 1e-10)
    assert (ground.matvecs, ground.dim) == (matvecs, dim)
    if h.n_qubits == 9:
        assert abs(ground.e0 - spectral(h).evals[0]) <= 1e-12


def test_lanczos_ground_refuses_a_ground_space_it_cannot_store():
    # H = X_0 on 9 qubits has a 256-fold ground space; Lanczos stores at most
    # 200 ground vectors (ground_space takes H's 1-row blocks instead)
    h = _pauli_hamiltonian(9, [(1.0, "X" + "I" * 8)])
    with pytest.raises(ResourceError, match="on 9 qubits has at least 200 dimensions"):
        lanczos_ground(h.operator, 1e-9)


def test_ground_space_routes():
    # a diagonal H reads its ground set off the diagonal, at any size
    ground = ground_space(maxcut_six_vertex_instance(), 1e-9)
    assert ground.route == "diagonal" and ground.matvecs == 0
    assert list(cut_values(maxcut_six_vertex_instance())[ground.basis]) == [5] * 6
    assert ground.dim == 6 and isinstance(ground.dim, int)  # the manifest serializes it
    # H's blocks while the widest has at most _DENSE_MAX_ROWS = 128 rows (56
    # on the Heisenberg chain of 8), Lanczos beyond (210 on the chain of 10)
    assert ground_space(heisenberg_1d(8), 1e-9).route == "dense"
    ground = ground_space(heisenberg_1d(10), 1e-9)
    assert ground.route == "lanczos" and ground.dim == 1
    e0, vector = exact_ground(heisenberg_1d(10))
    assert e0 == ground.e0
    assert abs(energy(vector, heisenberg_1d(10)) - e0) < 1e-12


@pytest.mark.parametrize(
    "h, width, route, dim",
    [
        (heisenberg_1d(9), 126, "dense", 2),  # the Sz = +-1/2 pair, one block
        (heisenberg_1d(10), 210, "lanczos", 1),  # the Sz = +-1 pair
        (tfi_1d(8, 1.0, 1.0), 128, "dense", 1),  # no sector: the flip's two blocks
        (tfi_1d(9, 1.0, 1.0), 256, "lanczos", 1),
        (_pauli_hamiltonian(9, [(1.0, "X" + "I" * 8)]), 1, "dense", 256),
    ],
    ids=["heisenberg9", "heisenberg10", "tfi8", "tfi9", "x0_9"],
)
def test_ground_route_follows_the_widest_block(h, width, route, dim):
    assert max(grid.shape[-1] for grid in h.layout.grids) == width
    ground = ground_space(h, 1e-9)
    assert (ground.route, ground.dim) == (route, dim)
    assert abs(ground.e0 - lanczos_ground(h.operator, 1e-9).e0 if dim < 200
               else ground.e0 + 1.0) < 1e-12
    basis = ground.basis
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(dim), 2) < 1e-12
    assert np.linalg.norm(to_dense(h) @ basis - ground.e0 * basis, 2) < 1e-10


def test_dense_oracle_refuses_above_its_ceiling():
    # one ceiling, MAX_DENSE_QUBITS, read off n alone: chains with and
    # without the global flip, with a field, and a complex H
    message = r"on 14 qubits: the dense ceiling is 13 qubits"
    for h in (heisenberg_1d(14), tfi_1d(14, 1.0, 1.0), heisenberg_1d(14, 1.0, 0.3),
              _pauli_hamiltonian(14, [(1.0, "Y" + "I" * 13)])):
        with pytest.raises(ResourceError, match=message):
            spectral(h)


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


def _per_pair_mutual_information(state, i, j):
    """The loop the stacked kernel replaced: one reduced state and eigvalsh per support."""

    def entropy(qubits):
        evals = np.clip(np.linalg.eigvalsh(reduced_density_matrix(state, qubits).matrix), 0.0, 1.0)
        nonzero = evals[evals > 1e-15]
        return float(-(nonzero * np.log(nonzero)).sum())

    lo, hi = min(i, j), max(i, j)
    return entropy((lo,)) + entropy((hi,)) - entropy((lo, hi))


def test_mutual_information_pairs_match_per_pair_sum_bytes(rng):
    cases = [
        (2, [(0, 1), (1, 0)]),
        (4, [(0, 1), (2, 0), (1, 3), (2, 3), (0, 3), (3, 1), (2, 0)]),
        (6, [(0, 5), (5, 0), (2, 3), (4, 1), (2, 3), (3, 2), (1, 0)]),
    ]  # reversed and repeated pairs included
    for n, pairs in cases:
        ghz = from_amplitudes(np.eye(2**n)[0] + np.eye(2**n)[-1])
        states = [StateVector(random_state(n, rng), n), StateVector(random_real_state(n, rng), n),
                  StateVector(random_state(n, rng), n), zero_state(n), plus_state(n), ghz]
        want = [[_per_pair_mutual_information(s, i, j) for i, j in pairs] for s in states]
        got = _mutual_information_pairs(states, pairs)
        assert got.shape == (len(states), len(pairs))
        assert got.tobytes() == np.array(want).tobytes()
        with pytest.raises(DimensionError):
            _mutual_information_pairs(states, [(0, 1), (1, 1)])
        with pytest.raises(DimensionError):
            _mutual_information_pairs(states, [(0, n)])


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
