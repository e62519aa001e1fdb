import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitekit.analysis import gibbs_average
from qitekit.errors import ConfigError, DimensionError
from qitekit.hamiltonians import heisenberg_1d, one_qubit_field
from qitekit.qite import QiteConfig
from qitekit.qmetts import MettsConfig, block_error, metts_chain


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


def test_chain_evolves_each_start_label_once(monkeypatch):
    import qitekit.qmetts as qmetts_module

    starts = []
    original = qmetts_module._propagate
    monkeypatch.setattr(
        qmetts_module,
        "_propagate",
        lambda state, *a: starts.append(state.amplitudes.copy()) or original(state, *a),
    )
    config = MettsConfig(beta=0.4, n_samples=24, n_warmup=4,
                         qite=QiteConfig(dtau=0.1, domain_size=2))
    res = metts_chain(heisenberg_1d(3), config, np.random.default_rng(0))
    labels = [s.start_label for s in res.samples]
    # the chain revisits labels, and each one is evolved only the first time
    assert len(set(labels)) < len(labels)
    assert len(starts) == len(set(labels))
    # a revisited label reports the value of its first visit
    first = {}
    for s in res.samples:
        assert first.setdefault(s.start_label, s.value) == s.value


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
