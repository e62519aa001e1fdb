"""Model Hamiltonians as ordered lists of few-qubit Hermitian terms.

Every Hamiltonian is a sum of LocalTerm objects, each a real linear
combination of Pauli strings confined to a small support.  The term order
is part of the contract because sweep-based propagation follows it.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataFormatError, DimensionError
from .pauli import PauliString
from .statevector import PauliOperator, StateVector, _pauli_masks

PauliSum = Tuple[Tuple[float, PauliString], ...]


@dataclass(frozen=True)
class LocalTerm:
    """One Hermitian summand h_m with its qubit support."""

    support: Tuple[int, ...]
    pauli_sum: PauliSum

    def __post_init__(self) -> None:
        covered = set()
        for coeff, string in self.pauli_sum:
            if abs(complex(coeff).imag) > 0:
                raise ValueError("term coefficients must be real")
            covered.update(string.support)
        if not covered <= set(self.support):
            raise DimensionError(
                f"pauli_sum acts on {sorted(covered)} outside support {self.support}"
            )


@dataclass
class Hamiltonian:
    n_qubits: int
    terms: Tuple[LocalTerm, ...]
    offset: float = 0.0
    metadata: Dict = field(default_factory=dict)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @functools.cached_property
    def operator(self) -> PauliOperator:
        """H as a PauliOperator, built on first use from the terms and offset;
        its diagonals are float64 when every D_x is real."""
        pauli_sum = [pair for term in self.terms for pair in term.pauli_sum]
        operator = PauliOperator.from_pauli_sum(pauli_sum, self.n_qubits, self.offset)
        if operator.diagonals.imag.any():
            return operator
        return dataclasses.replace(operator, diagonals=operator.diagonals.real.copy())

    @functools.cached_property
    def layout(self) -> _Layout:
        """H's Pauli symmetry orbits and sectors (``_layout``), built on first use."""
        return _layout(self)


def _term(n_qubits: int, support: Sequence[int], entries) -> LocalTerm:
    pauli_sum = tuple(
        (float(coeff), PauliString.from_letters(letters, n_qubits))
        for coeff, letters in entries
    )
    return LocalTerm(tuple(sorted(support)), pauli_sum)


def energy(state: StateVector, hamiltonian: Hamiltonian) -> float:
    """<psi|H|psi> including the scalar offset."""
    if state.n_qubits != hamiltonian.n_qubits:
        raise DimensionError("state and Hamiltonian widths differ")
    amps = state.amplitudes
    return hamiltonian.offset + float(np.vdot(amps, hamiltonian.operator.apply(amps)).real)


def to_dense(hamiltonian: Hamiltonian) -> np.ndarray:
    """Full 2^n x 2^n matrix, offset included; float64 when H is real."""
    return hamiltonian.operator.dense()


# ---------------------------------------------------------------------------
# Pauli symmetries and sectors


def _echelon(vectors) -> Dict[int, int]:
    """The GF(2) span of the bit vectors ``vectors`` as a basis in reduced
    echelon form, pivot bit -> vector: each vector has its own pivot bit set
    and every other pivot bit clear."""
    rows: Dict[int, int] = {}
    for vector in sorted(set(vectors)):
        for pivot, row in rows.items():
            if vector >> pivot & 1:
                vector ^= row
        if vector:
            pivot = (vector & -vector).bit_length() - 1
            for other in list(rows):
                if rows[other] >> pivot & 1:
                    rows[other] ^= vector
            rows[pivot] = vector
    return rows


def _symmetries(hamiltonian: Hamiltonian) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Bases {pivot bit: a} of the strings X^a and of the strings Z^a that
    commute with every string of H, from one pass over its Pauli masks.

    X^a commutes with a string when popcount(a & z) is even, z the string's
    mask of Y and Z letters; Z^a when popcount(a & x) is even, x its mask of
    X and Y letters.  So the a form the GF(2) null space of those masks; each
    basis vector has its own pivot bit set and every other pivot bit clear.
    """
    strings = tuple(s for term in hamiltonian.terms for _, s in term.pauli_sum)
    xmask, yzmask, _ = _pauli_masks(strings, tuple(range(hamiltonian.n_qubits)))
    return tuple(
        {free: 1 << free | sum(1 << pivot for pivot, row in rows.items() if row >> free & 1)
         for free in range(hamiltonian.n_qubits) if free not in rows}
        for rows in (_echelon(yzmask.tolist()), _echelon(xmask.tolist()))  # the row spaces
    )


def _coordinates(values: np.ndarray, basis: Dict[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """(coords, elements) over the echelon basis ``basis`` (pivot bit ->
    vector): coords[j] holds values[j]'s pivot bits, one bit per vector in
    pivot order, and elements[c] is the XOR of the vectors that c's bits
    pick, so values[j] ^ elements[coords[j]] has every pivot bit clear."""
    coords = np.zeros_like(values)
    elements = np.zeros(2 ** len(basis), np.int64)
    for bit, pivot in enumerate(sorted(basis)):
        coords |= (values >> pivot & 1) << bit
        elements[2**bit : 2 ** (bit + 1)] = elements[: 2**bit] ^ basis[pivot]
    return coords, elements


def _min_labels(labels: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """Each state's smallest state over the connected component that the
    edges j ~ neighbours[e, j] join, from ``labels`` that already name a
    state of that component no larger than each state (np.arange, or a
    finer partition's labels): min-label propagation, each pass followed by
    one shortcut of every label to its own label."""
    while True:
        lower = np.minimum(labels, labels[neighbours].min(axis=0, initial=labels.size))
        lower = lower[lower]
        if np.array_equal(lower, labels):
            return labels
        labels = lower


class _Layout(NamedTuple):
    """``Hamiltonian.layout``: the (cosets, group) ``_coordinates`` of every
    state over the ``_symmetries`` of each letter, so j ^ group[cosets[j]] is
    the representative of j's orbit; H's sectors, one of each X orbit, as
    ``grids``; and place[j] = d W + r, j's address in its grid.

    A grid (T, Q, 2^s, W) holds Q sectors of one size whose stabilizers in
    the group are the same 2^s elements a_d (a_0 = 0), and the T - 1 images
    of each: at (0, q, d, r) the state r ^ a_d of sector q, r its W
    representatives in ascending order, and at (t, q, d, r) that state
    shifted by the X mask that carries the sector onto its image t."""

    x_orbits: Tuple[np.ndarray, np.ndarray]
    z_orbits: Tuple[np.ndarray, np.ndarray]
    place: np.ndarray
    grids: List[np.ndarray]


def _layout(hamiltonian: Hamiltonian) -> _Layout:
    """H's symmetry orbits and sectors.

    The sectors are the connected components of H's off-diagonal graph
    (j ~ j ^ x wherever D_x[j] != 0), each labelled by its smallest state.
    Each X^a of the group maps them onto each other, so each orbit is
    diagonalized once, on its sector with the smallest state; the other
    sectors of the orbit are its images.  The elements that map that sector
    onto itself, its stabilizer S, split it further: for each S-orbit of its
    states the representative clears the pivot bits of S's echelon basis.
    """
    operator = hamiltonian.operator
    index = np.arange(2**hamiltonian.n_qubits)
    hops = operator.sources[:, 0] != 0  # the x != 0 groups
    labels = _min_labels(
        index, np.where(operator.diagonals[hops] != 0, operator.sources[hops], index)
    )
    x_basis, z_basis = _symmetries(hamiltonian)
    cosets, group = x_orbits = _coordinates(index, x_basis)
    orbits = _min_labels(labels, index ^ group[2 ** np.arange(len(group).bit_length() - 1), None])
    order = np.argsort(labels, kind="stable")  # the states, sector by sector
    kept = np.flatnonzero(orbits == index)  # each orbit's sector with its smallest state
    first = np.searchsorted(labels[order], kept)  # where each kept sector starts
    sizes = np.bincount(labels)[kept].tolist()
    stabilizers = labels[kept[:, None] ^ group] == kept[:, None]
    keys: Dict[tuple, list] = {}
    for member, key in enumerate(zip(sizes, map(bytes, stabilizers))):
        keys.setdefault(key, []).append(member)
    place, grids = np.empty_like(index), []
    for members in keys.values():
        size, stabilizer = sizes[members[0]], np.flatnonzero(stabilizers[members[0]])
        states = order[first[members][:, None] + np.arange(size)]
        walsh, picked = _coordinates(cosets[states], _echelon(stabilizer.tolist()))
        reps = states[walsh == 0].reshape(len(members), 1, -1)
        # each image's smallest element: the first to map the sector onto it
        shifts = group[np.sort(np.unique(labels[kept[members[0]] ^ group], return_index=True)[1])]
        grid = reps ^ group[picked, None] ^ shifts[:, None, None, None]
        place[grid] = np.arange(size).reshape(grid.shape[2:])
        grids.append(grid)
    return _Layout(x_orbits, _coordinates(index, z_basis), place, grids)


# ---------------------------------------------------------------------------
# spin models


def one_qubit_field(alpha: float, beta: float) -> Hamiltonian:
    """Single-qubit field alpha*X + beta*Z as one term."""
    term = _term(1, (0,), [(alpha, {0: "X"}), (beta, {0: "Z"})])
    return Hamiltonian(1, (term,), metadata={"model": "one_qubit_field", "alpha": alpha, "beta": beta})


def _spin_exchange(n_qubits: int, i: int, j: int, coeff: float) -> LocalTerm:
    # S_i . S_j with S = sigma/2, so each Pauli product carries coeff/4
    quarter = coeff / 4.0
    return _term(
        n_qubits,
        (i, j),
        [
            (quarter, {i: "X", j: "X"}),
            (quarter, {i: "Y", j: "Y"}),
            (quarter, {i: "Z", j: "Z"}),
        ],
    )


def heisenberg_1d(n_qubits: int, coupling: float = 1.0, field: float = 0.0) -> Hamiltonian:
    """Open-chain spin-1/2 exchange model, optional uniform Z field.

    H = coupling * sum_i S_i . S_{i+1} + field * sum_i Z_i.
    Term order: bonds left to right, then per-site field terms.
    """
    if n_qubits < 2:
        raise DimensionError("chain needs at least 2 sites")
    terms: List[LocalTerm] = [
        _spin_exchange(n_qubits, i, i + 1, coupling) for i in range(n_qubits - 1)
    ]
    if field != 0.0:
        terms.extend(
            _term(n_qubits, (i,), [(field, {i: "Z"})]) for i in range(n_qubits)
        )
    return Hamiltonian(
        n_qubits,
        tuple(terms),
        metadata={"model": "heisenberg_1d", "coupling": coupling, "field": field},
    )


def heisenberg_long_range(n_qubits: int, coupling: float = 1.0) -> Hamiltonian:
    """All-to-all exchange with 1/(|i-j|+1) falloff, pairs ordered (0,1), (0,2), ..."""
    if n_qubits < 2:
        raise DimensionError("need at least 2 sites")
    terms = [
        _spin_exchange(n_qubits, i, j, coupling / (abs(i - j) + 1.0))
        for i in range(n_qubits - 1)
        for j in range(i + 1, n_qubits)
    ]
    return Hamiltonian(
        n_qubits,
        tuple(terms),
        metadata={"model": "heisenberg_long_range", "coupling": coupling},
    )


def tfi_1d(n_qubits: int, coupling: float, field: float) -> Hamiltonian:
    """Open-chain Ising model H = coupling * sum ZZ + field * sum X.

    Antiferromagnetic convention uses positive arguments; the ferromagnetic
    variant is obtained with coupling=-1 and a negative field.
    """
    if n_qubits < 2:
        raise DimensionError("chain needs at least 2 sites")
    terms: List[LocalTerm] = [
        _term(n_qubits, (i, i + 1), [(coupling, {i: "Z", i + 1: "Z"})])
        for i in range(n_qubits - 1)
    ]
    terms.extend(_term(n_qubits, (i,), [(field, {i: "X"})]) for i in range(n_qubits))
    return Hamiltonian(
        n_qubits,
        tuple(terms),
        metadata={"model": "tfi_1d", "coupling": coupling, "field": field},
    )


# ---------------------------------------------------------------------------
# fermions on a chain, occupation-parity encoded


def hubbard_1d_jw(
    n_sites: int, interaction: float, chem_potential: float = 0.0, hopping: float = 1.0
) -> Hamiltonian:
    """One-band Hubbard chain on 2*n_sites qubits (site-major spin-orbital order).

    Qubit 2i is (site i, up) and qubit 2i+1 is (site i, down); an occupied
    orbital is qubit value 1, n_p = (1 - Z_p)/2.  Hopping terms carry the
    parity Z on the orbital they jump across:

        -hopping/2 * (X_p Z_{p+1} X_{p+2} + Y_p Z_{p+1} Y_{p+2})

    Term order: hoppings left to right, then on-site interaction terms, then
    chemical-potential terms (omitted entirely when chem_potential == 0).
    """
    if n_sites < 1:
        raise DimensionError("need at least one site")
    n_qubits = 2 * n_sites
    terms: List[LocalTerm] = []
    for p in range(n_qubits - 2):
        half = -hopping / 2.0
        terms.append(
            _term(
                n_qubits,
                (p, p + 1, p + 2),
                [
                    (half, {p: "X", p + 1: "Z", p + 2: "X"}),
                    (half, {p: "Y", p + 1: "Z", p + 2: "Y"}),
                ],
            )
        )
    for i in range(n_sites):
        up, down = 2 * i, 2 * i + 1
        quarter = interaction / 4.0
        terms.append(
            _term(
                n_qubits,
                (up, down),
                [
                    (quarter, {}),
                    (-quarter, {up: "Z"}),
                    (-quarter, {down: "Z"}),
                    (quarter, {up: "Z", down: "Z"}),
                ],
            )
        )
    if chem_potential != 0.0:
        for p in range(n_qubits):
            half = chem_potential / 2.0
            terms.append(_term(n_qubits, (p,), [(half, {}), (-half, {p: "Z"})]))
    return Hamiltonian(
        n_qubits,
        tuple(terms),
        metadata={
            "model": "hubbard_1d_jw",
            "n_sites": n_sites,
            "interaction": interaction,
            "chem_potential": chem_potential,
            "hopping": hopping,
        },
    )


# ---------------------------------------------------------------------------
# two-qubit molecular Hamiltonian from a coefficient table


def h2_bk(g: Sequence[float]) -> Hamiltonian:
    """Two-qubit hydrogen-molecule Hamiltonian from six tabulated coefficients.

    H = g0 + g1 Z_0 + g2 Z_1 + g3 Z_0 Z_1 + g4 X_0 X_1 + g5 Y_0 Y_1.
    The identity coefficient g0 is carried as the energy offset, and all
    five operator terms are kept even when a coefficient is zero so the
    term count stays constant across geometries.
    """
    if len(g) != 6:
        raise ValueError(f"expected 6 coefficients, got {len(g)}")
    g = [float(x) for x in g]
    terms = (
        _term(2, (0,), [(g[1], {0: "Z"})]),
        _term(2, (1,), [(g[2], {1: "Z"})]),
        _term(2, (0, 1), [(g[3], {0: "Z", 1: "Z"})]),
        _term(2, (0, 1), [(g[4], {0: "X", 1: "X"})]),
        _term(2, (0, 1), [(g[5], {0: "Y", 1: "Y"})]),
    )
    return Hamiltonian(
        2, terms, offset=g[0], metadata={"model": "h2_bk", "g": tuple(g)}
    )


def load_h2_table(path: Optional[str] = None) -> Dict[float, Tuple[float, ...]]:
    """Parse a bond-length -> (g0..g5) table.

    Format: whitespace-separated columns ``R g0 g1 g2 g3 g4 g5``; blank
    lines and '#' comments ignored.  Defaults to the packaged table.
    """
    if path is None:
        text = (
            resources.files("qitekit").joinpath("data/h2_sto6g.dat").read_text()
        )
        source = "packaged h2_sto6g.dat"
    else:
        source = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DataFormatError(f"{source}: cannot read table: {exc}") from exc
    table: Dict[float, Tuple[float, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 7:
            raise DataFormatError(
                f"{source}, line {lineno}: expected 7 columns, got {len(fields)}"
            )
        try:
            values = [float(x) for x in fields]
        except ValueError as exc:
            raise DataFormatError(f"{source}, line {lineno}: {exc}") from exc
        table[values[0]] = tuple(values[1:])
    if not table:
        raise DataFormatError(f"{source}: table is empty")
    return table


def h2_from_table(bond_length: float, path: Optional[str] = None) -> Hamiltonian:
    table = load_h2_table(path)
    for key, coeffs in table.items():
        if abs(key - bond_length) <= 1e-9:
            ham = h2_bk((coeffs[0],) + coeffs[1:])
            ham.metadata["bond_length"] = key
            return ham
    available = ", ".join(f"{k:g}" for k in sorted(table))
    raise ConfigError(
        f"bond length {bond_length:g} not in table (available: {available})"
    )


# ---------------------------------------------------------------------------
# graph optimization


def maxcut(n_vertices: int, edges: Sequence[Tuple[int, int]]) -> Hamiltonian:
    """Cut-counting cost operator, one term -(1 - Z_i Z_j)/2 per edge.

    The spectrum lies in {0, -1, ..., -|edges|}; the best cut has the
    minimum eigenvalue -C_max.
    """
    if n_vertices < 2:
        raise DimensionError("need at least 2 vertices")
    cleaned = []
    for i, j in edges:
        for vertex in (i, j):  # bool is an int subclass, and 1.0 == 1
            if isinstance(vertex, bool) or not isinstance(vertex, (int, np.integer)):
                raise DimensionError(f"edge ({i!r}, {j!r}): vertex {vertex!r} is not an integer")
        if i == j or not (0 <= i < n_vertices and 0 <= j < n_vertices):
            raise DimensionError(f"bad edge ({i}, {j})")
        cleaned.append((min(i, j), max(i, j)))
    if not cleaned:
        raise DimensionError("edge list is empty")
    terms = tuple(
        _term(n_vertices, (i, j), [(-0.5, {}), (0.5, {i: "Z", j: "Z"})])
        for i, j in cleaned
    )
    return Hamiltonian(
        n_vertices,
        terms,
        metadata={"model": "maxcut", "n_vertices": n_vertices, "edges": cleaned},
    )


def maxcut_six_vertex_instance() -> Hamiltonian:
    """Six-vertex benchmark graph with best cut value 5 and six optimal strings."""
    return maxcut(6, [(0, 3), (1, 4), (2, 3), (2, 4), (2, 5), (4, 5)])
