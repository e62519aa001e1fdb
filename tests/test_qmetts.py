import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitekit.analysis import gibbs_average, ground_space, spectral
from qitekit.errors import ConfigError, DimensionError
from qitekit.hamiltonians import (
    Hamiltonian,
    LocalTerm,
    energy,
    heisenberg_1d,
    heisenberg_long_range,
    hubbard_1d_jw,
    maxcut_six_vertex_instance,
    one_qubit_field,
    tfi_1d,
)
from qitekit.pauli import PauliString, commutes
from qitekit.qite import QiteConfig, _propagate, _term_plans
from qitekit.qmetts import MettsConfig, _typical_states, block_error, metts_chain
from qitekit.statevector import product_state


def test_config_validation():
    good = MettsConfig(beta=1.0, n_samples=30)
    good.validate()
    assert good.n_steps_per_sample() == 5  # beta/2 / dtau = 0.5/0.1
    assert MettsConfig(beta=2.0, n_samples=30, qite=QiteConfig(dtau=0.25)).n_steps_per_sample() == 4
    assert MettsConfig(beta=0.0, n_samples=30).n_steps_per_sample() == 0
    with pytest.raises(ConfigError):
        MettsConfig(beta=-1.0, n_samples=30).validate()
    with pytest.raises(ConfigError):
        MettsConfig(beta=1.0, n_samples=30, basis_cycle="y_only").validate()
    with pytest.raises(ConfigError):
        MettsConfig(beta=1.0, n_samples=30, n_warmup=-1).validate()
    with pytest.raises(ConfigError):
        MettsConfig(beta=1.0, n_samples=12, n_warmup=10).validate()
    # beta must be an even multiple of dtau
    with pytest.raises(ConfigError):
        MettsConfig(beta=1.0, n_samples=30, qite=QiteConfig(dtau=0.3)).validate()
    # a chain has no generator for noise, and its qite settings are checked first
    with pytest.raises(ConfigError, match="noise_sigma"):
        MettsConfig(beta=1.0, n_samples=30, qite=QiteConfig(noise_sigma=1e-3)).validate()
    with pytest.raises(ConfigError, match="dtau"):
        MettsConfig(beta=1.0, n_samples=30, qite=QiteConfig(dtau=0.0)).validate()


def test_chain_enumerates_each_pool_once(monkeypatch):
    import qitekit.qmetts as qmetts_module

    calls = []
    original = qmetts_module._term_plans
    monkeypatch.setattr(
        qmetts_module, "_term_plans", lambda *a: calls.append(a) or original(*a)
    )
    config = MettsConfig(beta=0.4, n_samples=10, n_warmup=2,
                         qite=QiteConfig(dtau=0.1, domain_size=3))
    metts_chain(heisenberg_1d(4), config, np.random.default_rng(0))
    # plans, and with them any pool, are built once per chain, not once per sample
    assert len(calls) == 1


@pytest.mark.parametrize("trotter_order", [1, 2])
def test_chain_at_beta_zero_evolves_nothing(trotter_order):
    # no plans and no steps: each typical state is its start label's product state
    h = heisenberg_1d(4)
    config = MettsConfig(beta=0.0, n_samples=12, n_warmup=2,
                         qite=QiteConfig(trotter_order=trotter_order, b_mode="exact_delta0"))
    result = metts_chain(h, config, np.random.default_rng(0))
    for sample in result.samples:
        assert sample.value == energy(product_state(sample.start_label), h)


def _field_term(n, qubit, letter, coeff):
    label = "".join(letter if q == qubit else "I" for q in range(n))
    return LocalTerm((qubit,), ((coeff, PauliString.from_label(label)),))


def _with_fields(h, fields):
    """H plus a field ``coeff`` * letter on every qubit, per (letter, coeff)."""
    n = h.n_qubits
    extra = tuple(_field_term(n, q, letter, c) for letter, c in fields for q in range(n))
    return Hamiltonian(n, h.terms + extra)


def _orbit(label, h):
    """Every label that an X-type (Z-basis label) or Z-type (X-basis label)
    string commuting with each string of H maps ``label`` to, by brute force."""
    n = h.n_qubits
    letters, kind = ("+-", "Z") if label[0] in "+-" else ("01", "X")
    strings = [s for term in h.terms for _, s in term.pauli_sum]
    orbit = set()
    for a in range(2**n):
        symmetry = PauliString.from_label("".join(kind if a >> q & 1 else "I" for q in range(n)))
        if all(commutes(symmetry, s) for s in strings):
            orbit.add("".join(letters[letters.index(ch) ^ (a >> q & 1)]
                              for q, ch in enumerate(label)))
    return frozenset(orbit)


def _record_evolutions(monkeypatch, stacks):
    """Append to ``stacks`` the start amplitudes of every QITE propagation a
    chain makes, as a (states, 2^n) stack; a lone state is a stack of one."""
    import qitekit.qmetts as qmetts_module

    original = qmetts_module._propagate

    def propagate(amps, *args):
        stacks.append(np.atleast_2d(amps).copy())
        return original(amps, *args)

    monkeypatch.setattr(qmetts_module, "_propagate", propagate)


def _start_labels(stacks, n):
    """The product-state label of every state the chain propagated."""
    labels = {
        product_state(label).amplitudes.tobytes(): label
        for letters in ("01", "+-")
        for label in map("".join, itertools.product(letters, repeat=n))
    }
    return [labels[row.tobytes()] for stack in stacks for row in stack]


def test_chain_evolves_each_start_label_once(monkeypatch):
    import qitekit.qmetts as qmetts_module

    stacks = []
    _record_evolutions(monkeypatch, stacks)
    config = MettsConfig(beta=0.4, n_samples=15, n_warmup=4,
                         qite=QiteConfig(dtau=0.1, domain_size=2))
    symmetric = heisenberg_1d(3)
    # X and Z fields on every site: no X- or Z-type string commutes with H
    asymmetric = _with_fields(symmetric, [("X", 0.3), ("Z", 0.5)])
    for h in (symmetric, asymmetric):
        stacks.clear()
        if h is asymmetric:  # evolve each orbit on its first visit
            monkeypatch.setattr(qmetts_module, "_STACK_AMPLITUDES", 0)
        res = metts_chain(h, config, np.random.default_rng(0))
        labels = [s.start_label for s in res.samples]
        orbits = {_orbit(label, h) for label in labels}
        starts = _start_labels(stacks, h.n_qubits)
        evolved = [_orbit(label, h) for label in starts]
        # the chain revisits labels, and no symmetry orbit is evolved twice
        assert len(set(labels)) < len(labels)
        assert len(set(evolved)) == len(evolved) == res.evolved_states
        assert orbits <= set(evolved)
        if h is symmetric:
            # 4 + 4 orbits of 8 amplitudes: one stack
            assert len(orbits) < len(set(labels))
            assert [len(stack) for stack in stacks] == [8]
        else:  # 8 + 8 one-label orbits
            assert all(len(orbit) == 1 for orbit in orbits)
            assert starts == list(dict.fromkeys(labels))
        # a revisited label reports the value of its first visit
        first = {}
        for s in res.samples:
            assert first.setdefault(s.start_label, s.value) == s.value


_COVARIANCE_MODELS = [
    (heisenberg_1d(4), ("pauli_full", "pauli_odd_y")),
    (tfi_1d(4, 1.0, 0.7), ("pauli_full", "pauli_odd_y")),
    (maxcut_six_vertex_instance(), ("pauli_full", "pauli_odd_y")),
    (hubbard_1d_jw(2, 4.0), ("fermionic_number_conserving",)),
    (heisenberg_long_range(4), ("pauli_full", "pauli_odd_y")),
]
_COVARIANCE_SETTINGS = [  # (b_mode, trotter_order, delta, tolerance)
    ("exact_delta0", 1, 0.01, 1e-12),
    ("measurable", 1, 0.05, 1e-12),
    ("exact_delta0", 2, 0.05, 1e-12),
    ("measurable", 2, 0.01, 1e-12),
    # without regularization a step's solve on a near-product state is
    # ill-conditioned: a 1e-16 relative perturbation of a maxcut start state
    # moves its own odd-Y evolution by up to 8e-12, so two evolutions that
    # differ by roundoff agree only to that
    ("exact_delta0", 2, 0.0, 1e-10),
    ("measurable", 1, 0.0, 1e-10),
]


@pytest.mark.parametrize(
    "h, pools", _COVARIANCE_MODELS,
    ids=["heisenberg4", "tfi4", "maxcut6", "hubbard2", "long_range4"],
)
def test_mapped_typical_state_matches_its_own_evolution(h, pools):
    n = h.n_qubits
    rng = np.random.default_rng(n)
    labels = ["".join(rng.choice(list(letters), n)) for letters in ("01", "+-") for _ in range(3)]
    mapped = 0
    for pool, (b_mode, order, delta, tol) in itertools.product(pools, _COVARIANCE_SETTINGS):
        cfg = QiteConfig(dtau=0.05, n_steps=3, domain_size=2, pool_kind=pool,
                         b_mode=b_mode, trotter_order=order, delta=delta)
        plans = _term_plans(h.terms, cfg, n)
        typical_state, _ = _typical_states(h, plans, cfg, "alternating")
        for label in labels:
            got = typical_state(label).amplitudes
            want = _propagate(product_state(label).amplitudes, plans, cfg)
            phase = np.vdot(got, want)
            where = (pool, b_mode, order, delta, label)
            assert abs(abs(phase) - 1.0) <= tol, where
            assert np.max(np.abs(want - phase / abs(phase) * got)) <= tol, where
            mapped += min(_orbit(label, h)) != label
    assert mapped  # some labels are not their orbit's representative


def test_chain_matches_the_chain_without_symmetries(monkeypatch):
    import qitekit.hamiltonians as hamiltonians_module

    # Z_0 flips sign under the global X flip and X_0 under the global Z flip
    observable = Hamiltonian(4, (_field_term(4, 0, "Z", 0.7), _field_term(4, 0, "X", 0.4)))
    config = MettsConfig(beta=2.0, n_samples=60, n_warmup=4,
                         qite=QiteConfig(dtau=0.1, domain_size=4, pool_kind="pauli_odd_y"))
    stacks = []
    _record_evolutions(monkeypatch, stacks)

    def chains():
        """(result, states evolved) per seed and observable, on a fresh H that
        builds its own layout."""
        runs, h = [], heisenberg_1d(4)
        for seed, obs in itertools.product((0, 1), (None, observable)):
            stacks.clear()
            res = metts_chain(h, config, np.random.default_rng(seed), observable=obs)
            runs.append((res, sum(len(stack) for stack in stacks)))
            assert runs[-1][1] == res.evolved_states
        return runs

    with_symmetries = chains()
    monkeypatch.setattr(hamiltonians_module, "_symmetries", lambda hamiltonian: ({}, {}))
    for (got, got_evolved), (want, want_evolved) in zip(with_symmetries, chains()):
        assert [s.start_label for s in got.samples] == [s.start_label for s in want.samples]
        assert [s.next_label for s in got.samples] == [s.next_label for s in want.samples]
        assert np.max(np.abs(got.values - want.values)) <= 1e-12
        assert got_evolved < want_evolved


def test_each_hamiltonian_builds_its_layout_once(monkeypatch):
    # the exact oracles and a chain read H's symmetry orbits and sectors off
    # Hamiltonian.layout, built once per H
    import qitekit.hamiltonians as hamiltonians_module

    built = []
    layout = hamiltonians_module._layout
    monkeypatch.setattr(hamiltonians_module, "_layout", lambda h: built.append(h) or layout(h))
    config = MettsConfig(beta=1.0, n_samples=12, n_warmup=4,
                         qite=QiteConfig(dtau=0.25, domain_size=2, b_mode="exact_delta0"))
    h = heisenberg_1d(4)
    assert ground_space(h, 1e-9).route == "dense"
    spectral(h)
    metts_chain(h, config, np.random.default_rng(0))
    assert len(built) == 1 and built[0] is h
    twin = heisenberg_1d(4)
    spectral(twin)
    assert len(built) == 2 and built[1] is twin


def test_stacked_chain_matches_the_chain_one_at_a_time(monkeypatch):
    # Heisenberg n = 4 has 8 + 8 orbit representatives: a chain evolves them
    # as one stack, or, with no amplitudes to stack, one at a time on first visits
    import qitekit.qmetts as qmetts_module

    h = heisenberg_1d(4)
    config = MettsConfig(beta=2.0, n_samples=12, n_warmup=4,
                         qite=QiteConfig(dtau=0.1, domain_size=4, pool_kind="pauli_odd_y"))
    stacks = []
    _record_evolutions(monkeypatch, stacks)
    for seed in (0, 1):
        stacks.clear()
        stacked = metts_chain(h, config, np.random.default_rng(seed))
        assert [len(stack) for stack in stacks] == [16] and stacked.evolved_states == 16
        stacks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(qmetts_module, "_STACK_AMPLITUDES", 0)
            single = metts_chain(h, config, np.random.default_rng(seed))
        assert {len(stack) for stack in stacks} == {1}
        assert single.evolved_states == len(stacks) < 16
        assert [s.start_label for s in stacked.samples] == [s.start_label for s in single.samples]
        assert [s.next_label for s in stacked.samples] == [s.next_label for s in single.samples]
        assert np.max(np.abs(stacked.values - single.values)) <= 1e-12


def test_short_chain_stacks_every_reachable_representative(monkeypatch):
    # 10 samples reach at most 10 of Heisenberg n = 4's 8 + 8 representatives;
    # their 256 amplitudes fit _STACK_AMPLITUDES, so all 16 evolve as one stack
    stacks = []
    _record_evolutions(monkeypatch, stacks)
    config = MettsConfig(beta=2.0, n_samples=10, n_warmup=2,
                         qite=QiteConfig(dtau=0.1, domain_size=4, pool_kind="pauli_odd_y"))
    res = metts_chain(heisenberg_1d(4), config, np.random.default_rng(0))
    assert [len(stack) for stack in stacks] == [16] and res.evolved_states == 16


def test_z_only_chain_stacks_no_x_basis_state(monkeypatch):
    stacks = []
    _record_evolutions(monkeypatch, stacks)
    config = MettsConfig(beta=1.0, n_samples=20, n_warmup=4, basis_cycle="z_only")
    res = metts_chain(heisenberg_1d(4), config, np.random.default_rng(0))
    # the global X flip pairs the 16 Z-basis labels into 8 orbits
    starts = _start_labels(stacks, 4)
    assert [len(stack) for stack in stacks] == [8] and res.evolved_states == 8
    assert all(set(label) <= set("01") for label in starts)


@pytest.mark.parametrize("n, stack", [(5, 32), (6, None), (13, None)])
def test_chain_stacks_at_most_its_amplitude_bound(monkeypatch, n, stack):
    # Heisenberg has 2^(n-1) Z-basis and 2^(n-1) X-basis orbit representatives,
    # all reachable on the alternating cycle: the 32 of n = 5 (1024 amplitudes)
    # stack, the 64 of n = 6 and the 8192 of n = 13 wait for their first visits
    import qitekit.qmetts as qmetts_module

    def propagate(amps, *args):
        raise AssertionError(f"stacked {len(amps)} states")

    monkeypatch.setattr(qmetts_module, "_propagate", propagate)
    # stand-in start states, so a wrong rule builds no 2^13-amplitude stack
    monkeypatch.setattr(qmetts_module, "product_state",
                        lambda label: SimpleNamespace(amplitudes=np.zeros(1)))
    args = (heisenberg_1d(n), [], QiteConfig(), "alternating")
    if stack:
        with pytest.raises(AssertionError, match=f"stacked {stack} states"):
            _typical_states(*args)
    else:
        assert _typical_states(*args)[1] == {}


def test_block_error_constant_series():
    mean, err = block_error(np.full(32, 1.75))
    assert mean == 1.75
    assert err == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    value=st.floats(allow_nan=False, allow_infinity=False),
    retained=st.integers(8, 300),
    discard=st.integers(0, 300),
)
def test_block_error_constant_series_property(value, retained, discard):
    # np.mean of a constant is off by roundoff for most values (0.1 x 10),
    # and the level standard errors with it
    mean, err = block_error(np.full(retained + discard, value), discard)
    assert (mean, err) == (value, 0.0)


def test_block_error_iid_gaussian():
    rng = np.random.default_rng(12)
    n = 2**14
    vals = rng.normal(0.0, 1.0, n)
    mean, err = block_error(vals)
    assert abs(mean) < 5 / np.sqrt(n)
    # for iid data blocking reproduces the naive standard error
    naive = np.std(vals, ddof=1) / np.sqrt(n)
    assert err == pytest.approx(naive, rel=0.2)


def test_block_error_ar1_inflation():
    # AR(1) with rho = 0.9: true stderr is naive * sqrt((1+rho)/(1-rho)) ~ naive * sqrt(19)
    rng = np.random.default_rng(7)
    rho = 0.9
    n = 2**15
    x = np.empty(n)
    x[0] = rng.normal()
    for i in range(1, n):
        x[i] = rho * x[i - 1] + rng.normal() * np.sqrt(1 - rho**2)
    mean, err = block_error(x)
    naive = np.std(x, ddof=1) / np.sqrt(n)
    inflation = err / naive
    assert inflation == pytest.approx(np.sqrt(19), rel=0.3)


def test_block_error_discard_and_size_guard():
    vals = np.concatenate([np.full(4, 100.0), np.ones(16)])
    mean, err = block_error(vals, discard=4)
    assert mean == 1.0 and err == 0.0
    with pytest.raises(DimensionError):
        block_error(np.ones(7))
    with pytest.raises(DimensionError):
        block_error(np.ones(20), discard=13)


def chain(h, beta, n_samples, seed, **kwargs):
    cfg = MettsConfig(
        beta=beta,
        n_samples=n_samples,
        qite=QiteConfig(dtau=0.1, domain_size=h.n_qubits, pool_kind="pauli_odd_y",
                        b_mode="exact_delta0"),
        **kwargs,
    )
    return metts_chain(h, cfg, np.random.default_rng(seed))


def test_one_qubit_thermal_energy():
    # exact thermal energy of a Z field is -tanh(beta)
    h = one_qubit_field(0.0, 1.0)
    for beta in (1.0, 2.0):
        res = chain(h, beta, 120, seed=3)
        want = -np.tanh(beta)
        tol = 3 * max(res.stderr, 1e-3)
        assert abs(res.mean - want) < tol, (beta, res.mean, res.stderr)


def test_beta_zero_is_infinite_temperature():
    # no propagation at all: samples are random product states and the mean
    # estimates the trace average (zero for a traceless Hamiltonian)
    h = one_qubit_field(0.0, 1.0)
    res = chain(h, 0.0, 400, seed=5)
    assert abs(res.mean) < 4 * res.stderr + 1e-12


def test_chain_bookkeeping_and_alternation():
    h = heisenberg_1d(2)
    res = chain(h, 1.0, 12, seed=0, n_warmup=2)
    assert len(res.samples) == 12
    for s in res.samples:
        assert len(s.start_label) == 2 and len(s.next_label) == 2
        # odd 1-based samples collapse in X, even in Z
        charset = "+-" if s.index % 2 == 1 else "01"
        assert all(ch in charset for ch in s.next_label), s
        assert s.index >= 2 or set(s.start_label) <= {"0", "1"}
    # each start is the previous collapse outcome
    for prev, cur in zip(res.samples, res.samples[1:]):
        assert cur.start_label == prev.next_label
    # blocked statistics discard the warmup prefix
    mean, err = block_error(res.values, discard=2)
    assert res.mean == pytest.approx(mean)
    assert res.stderr == pytest.approx(err)


def test_z_only_cycle():
    h = heisenberg_1d(2)
    res = chain(h, 1.0, 10, seed=1, n_warmup=0, basis_cycle="z_only")
    for s in res.samples:
        assert set(s.next_label) <= {"0", "1"}


def test_seed_determinism_and_variation():
    h = heisenberg_1d(2)
    a = chain(h, 1.0, 25, seed=9)
    b = chain(h, 1.0, 25, seed=9)
    c = chain(h, 1.0, 25, seed=10)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert [s.next_label for s in a.samples] == [s.next_label for s in b.samples]
    assert a.values.tolist() != c.values.tolist()


def test_small_chain_against_gibbs():
    h = heisenberg_1d(2)
    beta = 2.0
    res = chain(h, beta, 200, seed=0)
    want = gibbs_average(h, beta)
    assert abs(res.mean - want) < 3 * max(res.stderr, 5e-3)


def test_observable_override():
    h = heisenberg_1d(2)
    zz = heisenberg_1d(2, coupling=4.0)  # 4 * S.S = sum of bare Pauli products
    cfg = MettsConfig(
        beta=1.0,
        n_samples=20,
        n_warmup=4,
        qite=QiteConfig(dtau=0.1, domain_size=2, pool_kind="pauli_odd_y",
                        b_mode="exact_delta0"),
    )
    res_h = metts_chain(h, cfg, np.random.default_rng(4))
    res_o = metts_chain(h, cfg, np.random.default_rng(4), observable=zz)
    # same chain, observable scaled by 4
    assert res_o.values == pytest.approx(4 * res_h.values)
    with pytest.raises(DimensionError):
        metts_chain(h, cfg, np.random.default_rng(4), observable=heisenberg_1d(3))
