"""Thermal averaging by sampling minimally entangled typical states.

Each chain step evolves a product state to half the target inverse
temperature in imaginary time, records the observable on the normalized
result, then collapses it in a single-qubit basis to seed the next step.
Alternating the collapse basis between X and Z decorrelates successive
samples; the remaining autocorrelation is absorbed into the error bar by
pairwise blocking.  A Pauli symmetry of H maps one start label's typical
state to another's, so the chain evolves one label per symmetry orbit, and
every orbit it can reach in one stacked propagation when they are few.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DimensionError
from .hamiltonians import Hamiltonian, energy
from .qite import QiteConfig, _propagate, _TermPlan, _term_plans
from .statevector import StateVector, _collapse_label, _signs, product_state

BASIS_CYCLES = ("alternating", "z_only")

# A chain evolves its reachable orbit representatives as one stack only
# while per-call numpy overhead dominates the stack's steps, so that the
# stack costs a few single evolutions however few orbits the chain visits.
# Heisenberg chains with d <= 5, one BLAS thread, against evolving each
# visited orbit on its first visit: stacks of 16 and 32 states (n = 4, 5;
# at most 1024 amplitudes) took 0.22-0.78x the time at beta 0.4-16, on
# chains of 10-31 samples too; stacks of 64 (n = 6) and 256 (n = 8) took
# 1.9-2.0x at beta 4-8, where the chain visits few orbits, and 1024
# (n = 10) 1.0x at beta = 0.4.
_STACK_AMPLITUDES = 2**10


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
        if self.qite.noise_sigma != 0:  # each start orbit evolves once, with no generator
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
    evolved_states: int  # the typical states QITE propagated

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])


def _collapse_bases(sample_index: int, n_qubits: int, cycle: str) -> str:
    # odd sample indices (1-based) collapse in X, even in Z
    if cycle == "z_only" or sample_index % 2 == 0:
        return "Z" * n_qubits
    return "X" * n_qubits


def _typical_states(
    hamiltonian: Hamiltonian,
    plans: List[_TermPlan],
    config: QiteConfig,
    cycle: str,
) -> Tuple[Callable[[str], StateVector], Dict[str, StateVector]]:
    """A map from a single-basis start label to its typical state, the
    normalized e^{-beta H / 2}|label> through QITE on ``plans``, that
    evolves one label per orbit of H's Pauli symmetries; and the map from
    each evolved representative's label to its typical state.

    An X-type string X^a that commutes with every string of H maps the
    Z-basis state of bits j to that of bits j ^ a, and such a Z-type string
    Z^b the X-basis state of bits j ('-' read as 1) to that of j ^ b.  Every
    QITE step is covariant under such a string: G commutes with it, and the
    pools, rho's eigenbasis solve and the odd-Y pool's real columns all map
    through the signed permutation it makes on the unitary support.  So the
    typical state of a label is X^a or Z^b times that of its orbit's
    representative (``Hamiltonian.layout``'s ``x_orbits`` and ``z_orbits``,
    which ``spectral`` reads too); only representatives are propagated.

    A chain on the basis ``cycle`` starts in the Z basis and reaches X-basis
    labels only on the alternating cycle.  When the representatives it can
    reach hold at most _STACK_AMPLITUDES amplitudes, they are evolved up
    front as one stack, however few of them the chain visits.  Otherwise
    each representative is evolved on its first visit.
    """
    n = hamiltonian.n_qubits
    index = np.arange(2**n)
    orbits = {"01": hamiltonian.layout.x_orbits, "+-": hamiltonian.layout.z_orbits}
    evolved = {}  # representative label -> its typical state

    def label_of(bits: int, letters: str) -> str:
        return "".join(letters[bits >> q & 1] for q in range(n))

    bases = ("01", "+-") if cycle == "alternating" else ("01",)
    reachable = [label_of(int(rep), letters)
                 for letters in bases for rep in np.flatnonzero(orbits[letters][0] == 0)]
    if len(reachable) * 2**n <= _STACK_AMPLITUDES:
        stack = _propagate(np.stack([product_state(key).amplitudes for key in reachable]),
                           plans, config)
        evolved.update((key, StateVector(amps, n)) for key, amps in zip(reachable, stack))

    def typical_state(label: str) -> StateVector:
        letters = "+-" if label[0] in "+-" else "01"
        bits = sum(1 << q for q, ch in enumerate(label) if ch == letters[1])
        cosets, group = orbits[letters]
        shift = int(group[cosets[bits]])
        key = label_of(bits ^ shift, letters)
        if key not in evolved:
            evolved[key] = StateVector(_propagate(product_state(key).amplitudes, plans, config), n)
        state = evolved[key]
        if not shift:
            return state
        amps = state.amplitudes
        mapped = amps * _signs(index, shift) if letters == "+-" else amps[index ^ shift]
        return StateVector(mapped, n)

    return typical_state, evolved


def metts_chain(
    hamiltonian: Hamiltonian,
    config: MettsConfig,
    rng,
    observable: Optional[Hamiltonian] = None,
) -> MettsResult:
    """Run the sampling chain and return blocked statistics for the observable.

    The observable defaults to the Hamiltonian itself; it is evaluated on
    each label's own typical state, so it need not share H's symmetries.
    The first ``config.n_warmup`` samples are discarded from the mean and
    error bar but are kept in ``samples`` for inspection.  ``rng`` is a numpy
    ``Generator`` or a ``statevector._Pcg64``; the chain asks it for
    ``integers(0, 2, size=n)`` once and one ``random()`` per sample.
    """
    config.validate()
    n = hamiltonian.n_qubits
    obs = hamiltonian if observable is None else observable
    if obs.n_qubits != n:
        raise DimensionError("observable qubit count differs from Hamiltonian")
    steps = config.n_steps_per_sample()
    qite_config = dataclasses.replace(config.qite, n_steps=steps)
    plans = _term_plans(hamiltonian.terms, qite_config, n) if steps > 0 else []
    typical_state, evolved = _typical_states(hamiltonian, plans, qite_config, config.basis_cycle)

    bits = rng.integers(0, 2, size=n)
    label = "".join("1" if b else "0" for b in bits)
    samples: List[MettsSample] = []
    typical = {}  # label -> (state, value); the evolution draws no random numbers
    for k in range(1, config.n_samples + 1):
        if label not in typical:
            state = typical_state(label)
            typical[label] = (state, energy(state, obs))
        state, value = typical[label]
        bases = _collapse_bases(k, n, config.basis_cycle)
        next_label = _collapse_label(state.amplitudes, bases, rng)
        samples.append(MettsSample(k, label, value, next_label))
        label = next_label

    values = np.array([s.value for s in samples])
    mean, stderr = block_error(values, discard=config.n_warmup)
    return MettsResult(samples, mean, stderr, config, len(evolved))


def block_error(values: np.ndarray, discard: int = 0) -> Tuple[float, float]:
    """Mean and autocorrelation-aware error bar by pairwise blocking.

    The series is halved repeatedly by averaging adjacent pairs; each level
    with at least 8 blocks contributes the naive standard error of its
    blocks, and the largest such estimate is returned.  A constant series
    yields its value and a zero error bar exactly (np.mean of it can be off
    by roundoff, and every level's error with it).
    """
    data = np.asarray(values, dtype=float)[discard:]
    if data.size < 8:
        raise DimensionError("blocking needs at least 8 retained samples")
    if (data == data[0]).all():
        return float(data[0]), 0.0
    mean = float(np.mean(data))
    estimate = 0.0
    while data.size >= 8:
        level = float(np.std(data, ddof=1) / np.sqrt(data.size))
        estimate = max(estimate, level)
        half = data.size // 2
        data = (data[: 2 * half : 2] + data[1 : 2 * half : 2]) / 2.0
    return mean, estimate
