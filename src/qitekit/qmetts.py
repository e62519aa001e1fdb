"""Thermal averaging by sampling minimally entangled typical states.

Each chain step evolves a product state to half the target inverse
temperature in imaginary time, records the observable on the normalized
result, then collapses it in a single-qubit basis to seed the next step.
Alternating the collapse basis between X and Z decorrelates successive
samples; the remaining autocorrelation is absorbed into the error bar by
pairwise blocking.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DimensionError
from .hamiltonians import Hamiltonian, energy
from .qite import QiteConfig, _propagate, _term_plans
from .statevector import measure_collapse, product_state

BASIS_CYCLES = ("alternating", "z_only")


@dataclass(frozen=True)
class MettsConfig:
    """Chain controls; the propagator settings ride along as ``qite``.

    ``qite.n_steps`` is derived from ``beta`` and ``qite.dtau`` (each chain
    step runs to beta/2), so the value stored in ``qite`` is ignored.
    """

    beta: float
    n_samples: int
    qite: QiteConfig = field(default_factory=lambda: QiteConfig(b_mode="exact_delta0"))
    n_warmup: int = 10
    basis_cycle: str = "alternating"

    def validate(self) -> None:
        self.qite.validate()
        if self.qite.noise_sigma != 0:  # each start label evolves once, with no generator
            raise ConfigError("qite.noise_sigma must be 0 for a METTS chain")
        if self.beta < 0:
            raise ConfigError("beta must be non-negative")
        if self.basis_cycle not in BASIS_CYCLES:
            raise ConfigError(f"basis_cycle must be one of {BASIS_CYCLES}")
        if self.n_warmup < 0:
            raise ConfigError("n_warmup must be non-negative")
        if self.n_samples - self.n_warmup < 8:
            raise ConfigError("need at least 8 samples after warmup for blocking")
        self.n_steps_per_sample()  # commensurability check

    def n_steps_per_sample(self) -> int:
        """beta/2 expressed in whole time steps; beta must be commensurate."""
        raw = self.beta / (2.0 * self.qite.dtau)
        steps = round(raw)
        if abs(raw - steps) > 1e-9:
            raise ConfigError(
                f"beta {self.beta} is not an even multiple of dtau {self.qite.dtau}"
            )
        return int(steps)


@dataclass
class MettsSample:
    index: int
    start_label: str
    value: float
    next_label: str


@dataclass
class MettsResult:
    samples: List[MettsSample]
    mean: float
    stderr: float
    config: MettsConfig

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])


def _collapse_bases(sample_index: int, n_qubits: int, cycle: str) -> str:
    # odd sample indices (1-based) collapse in X, even in Z
    if cycle == "z_only" or sample_index % 2 == 0:
        return "Z" * n_qubits
    return "X" * n_qubits


def metts_chain(
    hamiltonian: Hamiltonian,
    config: MettsConfig,
    rng: np.random.Generator,
    observable: Optional[Hamiltonian] = None,
) -> MettsResult:
    """Run the sampling chain and return blocked statistics for the observable.

    The observable defaults to the Hamiltonian itself.  The first
    ``config.n_warmup`` samples are discarded from the mean and error bar
    but are kept in ``samples`` for inspection.
    """
    config.validate()
    n = hamiltonian.n_qubits
    obs = hamiltonian if observable is None else observable
    if obs.n_qubits != n:
        raise DimensionError("observable qubit count differs from Hamiltonian")
    steps = config.n_steps_per_sample()
    qite_config = dataclasses.replace(config.qite, n_steps=steps)
    plans = _term_plans(hamiltonian.terms, qite_config, n) if steps > 0 else []

    bits = rng.integers(0, 2, size=n)
    label = "".join("1" if b else "0" for b in bits)
    samples: List[MettsSample] = []
    typical = {}  # label -> (state, value); the evolution draws no random numbers
    for k in range(1, config.n_samples + 1):
        if label not in typical:
            state = _propagate(product_state(label), plans, qite_config)
            typical[label] = (state, energy(state, obs))
        state, value = typical[label]
        bases = _collapse_bases(k, n, config.basis_cycle)
        next_label, _ = measure_collapse(state, bases, rng)
        samples.append(MettsSample(k, label, value, next_label))
        label = next_label

    values = np.array([s.value for s in samples])
    mean, stderr = block_error(values, discard=config.n_warmup)
    return MettsResult(samples, mean, stderr, config)


def block_error(values: np.ndarray, discard: int = 0) -> Tuple[float, float]:
    """Mean and autocorrelation-aware error bar by pairwise blocking.

    The series is halved repeatedly by averaging adjacent pairs; each level
    with at least 8 blocks contributes the naive standard error of its
    blocks, and the largest such estimate is returned.  A constant series
    yields a zero error bar.
    """
    data = np.asarray(values, dtype=float)[discard:]
    if data.size < 8:
        raise DimensionError("blocking needs at least 8 retained samples")
    mean = float(np.mean(data))
    estimate = 0.0
    while data.size >= 8:
        level = float(np.std(data, ddof=1) / np.sqrt(data.size))
        estimate = max(estimate, level)
        half = data.size // 2
        data = (data[: 2 * half : 2] + data[1 : 2 * half : 2]) / 2.0
    return mean, estimate
