"""Pauli-string algebra and operator-pool enumeration.

Strings are stored sparsely as (qubit, letter) pairs over a fixed qubit
count.  Qubit 0 is the least significant bit of a statevector index
everywhere in this package.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from .errors import DimensionError, PoolError

LETTERS = ("I", "X", "Y", "Z")
_LETTER_INDEX = {c: i for i, c in enumerate(LETTERS)}

# Single-qubit products: (left, right) -> (phase, letter).
_SINGLE_PRODUCT: Dict[Tuple[str, str], Tuple[complex, str]] = {
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis on ``n_qubits`` wires.

    ``items`` holds only the non-identity factors, sorted by qubit index.
    Instances are hashable and totally ordered by qubit-major letter order
    (I < X < Y < Z), which fixes pool enumeration order.
    """

    n_qubits: int
    items: Tuple[Tuple[int, str], ...]

    @staticmethod
    def from_letters(letters: Mapping[int, str], n_qubits: int) -> "PauliString":
        cleaned = []
        for qubit, letter in sorted(letters.items()):
            qubit = operator.index(qubit)  # an int or a numpy integer, not 1.0
            if letter not in LETTERS:
                raise ValueError(f"unknown Pauli letter {letter!r}")
            if not 0 <= qubit < n_qubits:
                raise DimensionError(
                    f"qubit {qubit} outside register of {n_qubits} qubits"
                )
            if letter != "I":
                cleaned.append((qubit, letter))
        return PauliString(n_qubits, tuple(cleaned))

    @staticmethod
    def identity(n_qubits: int) -> "PauliString":
        return PauliString(n_qubits, ())

    @staticmethod
    def from_label(label: str) -> "PauliString":
        """Build from a dense letter string, qubit 0 first."""
        return PauliString.from_letters(
            {q: c for q, c in enumerate(label)}, len(label)
        )

    def letter(self, qubit: int) -> str:
        for q, c in self.items:
            if q == qubit:
                return c
        return "I"

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self.items)

    @property
    def weight(self) -> int:
        return len(self.items)

    @property
    def y_count(self) -> int:
        return sum(1 for _, c in self.items if c == "Y")

    @property
    def is_identity(self) -> bool:
        return not self.items

    def to_label(self) -> str:
        out = ["I"] * self.n_qubits
        for q, c in self.items:
            out[q] = c
        return "".join(out)

    def sort_key(self) -> Tuple[int, ...]:
        return tuple(_LETTER_INDEX[self.letter(q)] for q in range(self.n_qubits))

    def __lt__(self, other: "PauliString") -> bool:
        self._check_width(other)
        return self.sort_key() < other.sort_key()

    def _check_width(self, other: "PauliString") -> None:
        if self.n_qubits != other.n_qubits:
            raise DimensionError(
                f"mixing strings on {self.n_qubits} and {other.n_qubits} qubits"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PauliString({self.to_label()!r})"


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli string together with a scalar phase from {+1, -1, +i, -i}."""

    phase: complex
    string: PauliString


def multiply(a: PauliString, b: PauliString) -> PhasedPauli:
    """Product a*b with the accumulated phase tracked exactly."""
    a._check_width(b)
    phase = 1 + 0j
    letters: Dict[int, str] = dict(a.items)
    for qubit, right in b.items:
        left = letters.pop(qubit, "I")
        if left == "I":
            letters[qubit] = right
        elif left == right:
            pass  # squares to identity
        else:
            ph, out = _SINGLE_PRODUCT[(left, right)]
            phase *= ph
            letters[qubit] = out
    return PhasedPauli(phase, PauliString.from_letters(letters, a.n_qubits))


def commutes(a: PauliString, b: PauliString) -> bool:
    """True when the strings commute (even number of anticommuting overlaps)."""
    a._check_width(b)
    b_letters = dict(b.items)
    anti = 0
    for qubit, left in a.items:
        right = b_letters.get(qubit, "I")
        if right != "I" and right != left:
            anti += 1
    return anti % 2 == 0


def odd_y_count(domain_size: int) -> int:
    """Number of Pauli strings on ``domain_size`` qubits with an odd number of Y factors.

    Closed form 2^D (2^D - 1) / 2; equivalently y(D+1) = 3 y(D) + (4^D - y(D)).
    """
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    full = 2**domain_size
    return full * (full - 1) // 2


@dataclass(frozen=True)
class OperatorPool:
    """Recipe for the expansion basis used by a unitary-reconstruction step.

    kind: 'pauli_full', 'pauli_odd_y' or 'fermionic_number_conserving'.
    domain: ordered qubit indices the pool acts on.
    """

    kind: str
    domain: Tuple[int, ...]


POOL_KINDS = ("pauli_full", "pauli_odd_y", "fermionic_number_conserving")


def enumerate_pool(pool: OperatorPool, n_qubits: int) -> List[PauliString]:
    """Deterministically enumerate the pool as concrete Pauli strings.

    pauli_full produces all 4^D strings on the domain in qubit-major
    lexicographic letter order (identity first); pauli_odd_y keeps the
    odd-Y subset.  fermionic_number_conserving maps products of per-site
    field operators with equal creation and annihilation counts through
    the occupation-parity encoding and collects the distinct strings;
    parity tails between non-adjacent domain qubits may extend the
    returned supports beyond the domain itself.
    """
    if pool.kind not in POOL_KINDS:
        raise PoolError(f"unknown pool kind {pool.kind!r}")
    domain = tuple(pool.domain)
    if not domain:
        raise PoolError("pool domain is empty")
    if len(set(domain)) != len(domain):
        raise PoolError(f"pool domain has repeated qubits: {domain}")
    for q in domain:
        if not 0 <= q < n_qubits:
            raise PoolError(f"pool domain qubit {q} outside {n_qubits}-qubit register")

    if pool.kind in ("pauli_full", "pauli_odd_y"):
        # the items of from_letters, built directly from the checked domain
        order = sorted(range(len(domain)), key=domain.__getitem__)
        strings = []
        for assignment in itertools.product(LETTERS, repeat=len(domain)):
            if pool.kind == "pauli_odd_y" and assignment.count("Y") % 2 == 0:
                continue
            items = tuple((domain[j], assignment[j]) for j in order if assignment[j] != "I")
            strings.append(PauliString(n_qubits, items))
        return strings

    return _fermionic_pool(domain, n_qubits)


def _fermionic_pool(domain: Tuple[int, ...], n_qubits: int) -> List[PauliString]:
    """The parity-encoded number-conserving products on ``domain``, in closed form.

    Products of {1, f, f^dag, f^dag f} per site with balanced creation and
    annihilation counts expand to every assignment of I, X, Y, Z to the
    domain with an even number of X/Y letters, where each qubit between two
    domain sites carries the parity Z when an odd number of X/Y letters lie
    below it.  A gap letter follows from the letters below it, so the
    product order of the assignments is already the order of sort_key.
    """
    sites = sorted(domain)
    strings = []
    for assignment in itertools.product(LETTERS, repeat=len(sites)):
        letters = dict(zip(sites, assignment))
        items, odd = [], False
        for q in range(sites[0], sites[-1] + 1):
            letter = letters.get(q, "Z" if odd else "I")
            odd ^= letter in "XY"
            if letter != "I":
                items.append((q, letter))
        if not odd:
            strings.append(PauliString(n_qubits, tuple(items)))
    return strings
