import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitekit.errors import DimensionError, PoolError
from qitekit.pauli import (
    LETTERS,
    OperatorPool,
    PauliString,
    commutes,
    enumerate_pool,
    multiply,
    odd_y_count,
)

from conftest import dense_pauli_string


def all_strings(n_qubits):
    for assignment in itertools.product(LETTERS, repeat=n_qubits):
        yield PauliString.from_label("".join(assignment))


def test_from_label_roundtrip():
    s = PauliString.from_label("XIZY")
    assert s.n_qubits == 4
    assert s.to_label() == "XIZY"
    assert s.items == ((0, "X"), (2, "Z"), (3, "Y"))
    assert s.support == (0, 2, 3)
    assert s.weight == 3
    assert s.y_count == 1
    assert not s.is_identity
    assert PauliString.identity(3).is_identity


def test_from_letters_rejects_bad_input():
    with pytest.raises(ValueError):
        PauliString.from_letters({0: "Q"}, 2)
    with pytest.raises(DimensionError):
        PauliString.from_letters({5: "X"}, 2)
    for qubit in (1.5, 1.0):  # a qubit index is an integer
        with pytest.raises(TypeError):
            PauliString.from_letters({0: "Z", qubit: "Z"}, 2)
    # a numpy integer is one, and the string stores it as an int
    string = PauliString.from_letters({np.int64(1): "Z"}, 2)
    assert string == PauliString.from_label("IZ") and type(string.items[0][0]) is int


def test_multiply_matches_dense_all_pairs_two_qubits():
    strings = list(all_strings(2))
    for a in strings:
        for b in strings:
            prod = multiply(a, b)
            lhs = dense_pauli_string(a) @ dense_pauli_string(b)
            rhs = prod.phase * dense_pauli_string(prod.string)
            assert np.allclose(lhs, rhs), (a, b)


def test_multiply_matches_dense_sample_three_qubits(rng):
    strings = list(all_strings(3))
    idx = rng.choice(len(strings), size=(40, 2))
    for i, j in idx:
        a, b = strings[i], strings[j]
        prod = multiply(a, b)
        lhs = dense_pauli_string(a) @ dense_pauli_string(b)
        assert np.allclose(lhs, prod.phase * dense_pauli_string(prod.string))


def test_square_is_identity():
    for s in all_strings(2):
        prod = multiply(s, s)
        assert prod.phase == 1
        assert prod.string.is_identity


def test_multiply_width_mismatch():
    with pytest.raises(DimensionError):
        multiply(PauliString.from_label("X"), PauliString.from_label("XX"))


def test_commutes_matches_dense():
    for a in all_strings(2):
        for b in all_strings(2):
            ma, mb = dense_pauli_string(a), dense_pauli_string(b)
            expected = np.allclose(ma @ mb, mb @ ma)
            assert commutes(a, b) == expected, (a, b)


def test_odd_y_count_closed_form_and_recursion():
    assert [odd_y_count(d) for d in range(1, 6)] == [1, 6, 28, 120, 496]
    for d in range(1, 10):
        # y(D+1) = 3 y(D) + (4^D - y(D))
        assert odd_y_count(d + 1) == 3 * odd_y_count(d) + (4**d - odd_y_count(d))
    with pytest.raises(ValueError):
        odd_y_count(0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_full_pool_size(d):
    pool = enumerate_pool(OperatorPool("pauli_full", tuple(range(d))), d)
    assert len(pool) == 4**d
    assert len(set(pool)) == 4**d
    # identity is a legitimate pool member
    assert pool[0].is_identity


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_odd_y_pool_size_and_property(d):
    pool = enumerate_pool(OperatorPool("pauli_odd_y", tuple(range(d))), d)
    assert len(pool) == odd_y_count(d)
    assert len(set(pool)) == len(pool)
    for s in pool:
        assert s.y_count % 2 == 1


def test_pool_enumeration_order_snapshot():
    pool = enumerate_pool(OperatorPool("pauli_full", (0, 1)), 2)
    labels = [s.to_label() for s in pool]
    assert labels == [
        "II", "IX", "IY", "IZ",
        "XI", "XX", "XY", "XZ",
        "YI", "YX", "YY", "YZ",
        "ZI", "ZX", "ZY", "ZZ",
    ]
    odd = enumerate_pool(OperatorPool("pauli_odd_y", (0, 1)), 2)
    assert [s.to_label() for s in odd] == ["IY", "XY", "YI", "YX", "YZ", "ZY"]


@pytest.mark.parametrize("kind", ["pauli_full", "pauli_odd_y"])
@pytest.mark.parametrize("domain", [(2,), (0, 1), (3, 1), (4, 0, 2)])
def test_pool_strings_match_from_letters(kind, domain):
    # the pool builds its strings directly; from_letters is the reference
    want = []
    for letters in itertools.product("IXYZ", repeat=len(domain)):
        s = PauliString.from_letters(dict(zip(domain, letters)), 5)
        if kind == "pauli_full" or s.y_count % 2:
            want.append(s)
    assert enumerate_pool(OperatorPool(kind, domain), 5) == want


def test_pool_off_domain_qubits_untouched():
    pool = enumerate_pool(OperatorPool("pauli_full", (1, 3)), 5)
    assert len(pool) == 16
    for s in pool:
        assert set(s.support) <= {1, 3}


def test_pool_validation():
    with pytest.raises(PoolError):
        enumerate_pool(OperatorPool("nope", (0,)), 2)
    with pytest.raises(PoolError):
        enumerate_pool(OperatorPool("pauli_full", ()), 2)
    with pytest.raises(PoolError):
        enumerate_pool(OperatorPool("pauli_full", (0, 0)), 2)
    with pytest.raises(PoolError):
        enumerate_pool(OperatorPool("pauli_full", (0, 7)), 2)


def test_fermionic_pool_adjacent_pair():
    pool = enumerate_pool(OperatorPool("fermionic_number_conserving", (0, 1)), 2)
    labels = sorted(s.to_label() for s in pool)
    # particle-number conserving products on two adjacent sites:
    # identity, the two densities and their product, and the hopping quadratics
    assert labels == sorted(
        ["II", "ZI", "IZ", "ZZ", "XX", "XY", "YX", "YY"]
    )


def test_fermionic_pool_parity_tail():
    # sites 0 and 2: the hopping strings must carry the parity letter on qubit 1
    pool = enumerate_pool(OperatorPool("fermionic_number_conserving", (0, 2)), 3)
    labels = {s.to_label() for s in pool}
    assert "XZX" in labels and "YZY" in labels
    assert "XIX" not in labels
    # supports may exceed the domain, by design
    assert any(1 in s.support for s in pool)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.integers(1, 5), start=st.integers(0, 2), tail=st.integers(0, 1))
def test_contiguous_fermionic_pool_is_the_parity_even_strings(k, start, tail):
    # number conservation keeps the parity Z^k of a contiguous domain, and
    # no parity tail leaves it, so the pool is every string with an even
    # number of X/Y letters on the domain: the span QITE solves block-wise
    n = start + k + tail
    domain = tuple(range(start, start + k))
    pool = enumerate_pool(OperatorPool("fermionic_number_conserving", domain), n)
    even = [
        PauliString.from_letters(dict(zip(domain, letters)), n)
        for letters in itertools.product(LETTERS, repeat=k)
        if sum(c in "XY" for c in letters) % 2 == 0
    ]
    assert len(pool) == len(set(pool)) == 4**k // 2
    assert set(pool) == set(even)


def test_fermionic_pool_strings_hermitian_closed(rng):
    # every member is a plain Pauli string, so a real combination is Hermitian
    pool = enumerate_pool(OperatorPool("fermionic_number_conserving", (0, 1)), 2)
    coeffs = rng.normal(size=len(pool))
    acc = sum(c * dense_pauli_string(s) for c, s in zip(coeffs, pool))
    assert np.allclose(acc, acc.conj().T)


# Fock-product reference for the fermionic pool: products of
# {1, f, f^dag, f^dag f} per domain site, kept only when creation and
# annihilation counts balance, expanded through the parity encoding.


def _lowering_sum(site, n_qubits):
    # f_site = Z_0 .. Z_{site-1} (X_site + i Y_site) / 2 with occupied <-> bit 1
    tail = {q: "Z" for q in range(site)}
    x = PauliString.from_letters({**tail, site: "X"}, n_qubits)
    y = PauliString.from_letters({**tail, site: "Y"}, n_qubits)
    return [(x, 0.5), (y, 0.5j)]


def _site_operator_sums(site, n_qubits):
    lower = _lowering_sum(site, n_qubits)
    raise_ = [(s, p.conjugate()) for s, p in lower]
    ident = PauliString.identity(n_qubits)
    z = PauliString.from_letters({site: "Z"}, n_qubits)
    number = [(ident, 0.5), (z, -0.5)]  # f^dag f = (1 - Z)/2
    return {
        "1": ([(ident, 1.0)], 0, 0),
        "f": (lower, 0, 1),
        "f+": (raise_, 1, 0),
        "n": (number, 1, 1),
    }


def _multiply_sums(left, right, n_qubits):
    out = {}
    for litems, lphase in left.items():
        ls = PauliString(n_qubits, litems)
        for ritems, rphase in right.items():
            prod = multiply(ls, PauliString(n_qubits, ritems))
            key = prod.string.items
            out[key] = out.get(key, 0j) + lphase * rphase * prod.phase
    return {k: v for k, v in out.items() if abs(v) > 1e-14}


def fock_product_pool(domain, n_qubits):
    sites = sorted(domain)
    tables = [_site_operator_sums(q, n_qubits) for q in sites]
    seen = set()
    for choice in itertools.product(("1", "f", "f+", "n"), repeat=len(sites)):
        creations = sum(tables[i][c][1] for i, c in enumerate(choice))
        annihilations = sum(tables[i][c][2] for i, c in enumerate(choice))
        if creations != annihilations:
            continue
        acc = {PauliString.identity(n_qubits).items: 1.0 + 0j}
        for i, c in enumerate(choice):
            acc = _multiply_sums(acc, {s.items: p for s, p in tables[i][c][0]}, n_qubits)
        seen.update(acc.keys())
    strings = [PauliString(n_qubits, items) for items in seen]
    strings.sort(key=PauliString.sort_key)
    return strings


def test_fermionic_pool_matches_fock_products():
    # the closed form lists the same strings as the Fock products, in order,
    # on every domain of up to 4 of 6 qubits, (0, 1, 4, 5) among them
    for n, k in itertools.product(range(1, 7), range(1, 5)):
        for domain in itertools.combinations(range(n), k):
            pool = enumerate_pool(OperatorPool("fermionic_number_conserving", domain), n)
            assert pool == fock_product_pool(domain, n), (n, domain)


def test_ordering_is_total_and_stable():
    pool = enumerate_pool(OperatorPool("pauli_full", (0, 1, 2)), 3)
    assert pool == sorted(pool)
