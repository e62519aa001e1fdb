"""Krylov-subspace acceleration built from imaginary-time sweep ledgers.

The trajectory recorder keeps, for every sweep l, the energy E_l and the
squared norm 1/n_l^2 of the unnormalized imaginary-time state.  Overlap
and Hamiltonian matrix elements between sweep states follow from those
scalars alone:

    S_{ll'} = n_l n_{l'} / n_r^2          with r = (l + l')/2,
    H_{ll'} = S_{ll'} * E_r,

so the subspace eigenproblem never touches the statevectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .hamiltonians import Hamiltonian
from .qite import QiteConfig, Trajectory, qite_evolve
from .statevector import StateVector


@dataclass
class KrylovLedger:
    """Scalars recorded per sweep: beta_l = l * dtau."""

    dtau: float
    energies: np.ndarray
    inv_sq_norms: np.ndarray

    def __post_init__(self) -> None:
        self.energies = np.asarray(self.energies, dtype=float)
        self.inv_sq_norms = np.asarray(self.inv_sq_norms, dtype=float)
        if self.energies.shape != self.inv_sq_norms.shape or self.energies.ndim != 1:
            raise DimensionError("ledger arrays must be 1-d and equal length")
        if self.energies.size == 0:
            raise DimensionError("ledger is empty")
        if not np.all(np.isfinite(self.energies)) or not np.all(
            np.isfinite(self.inv_sq_norms)
        ):
            raise NumericalError("ledger contains non-finite entries")
        if np.any(self.inv_sq_norms <= 0):
            raise NumericalError("ledger squared norms must stay positive")

    @property
    def n_sweeps(self) -> int:
        return self.energies.size - 1


def ledger_from_trajectory(trajectory: Trajectory) -> KrylovLedger:
    return KrylovLedger(
        trajectory.config.dtau, trajectory.energies, trajectory.inv_sq_norms
    )


def overlap_from_norms(ledger: KrylovLedger, l1: int, l2: int) -> float:
    """<Phi_l1|Phi_l2> from the norm identity; l1 + l2 must be even."""
    return float(build_matrices(ledger, [l1, l2])[0][0, 1])


def build_matrices(
    ledger: KrylovLedger, indices: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Subspace overlap and Hamiltonian matrices over the chosen sweeps."""
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0:
        raise DimensionError("need at least one sweep index")
    if np.any((idx[:, None] + idx) % 2):
        raise DimensionError("overlap needs indices of equal parity")
    inv = ledger.inv_sq_norms
    if idx.min() < 0 or idx.max() >= inv.size:
        raise DimensionError(f"sweep indices {idx.tolist()} outside ledger")
    r = (idx[:, None] + idx) // 2
    smat = inv[r] / np.sqrt(inv[idx[:, None]] * inv[idx])
    return smat, smat * ledger.energies[r]


def stabilize(
    ledger: KrylovLedger,
    overlap_threshold: float,
    max_index: Optional[int] = None,
) -> List[int]:
    """Greedy even-sweep selection keeping consecutive overlaps below threshold.

    Starts at sweep 0 and accepts the next even sweep only when its overlap
    with the last accepted one has magnitude below ``overlap_threshold``.
    Always returns at least [0].
    """
    check_options(overlap_threshold)
    last = ledger.n_sweeps if max_index is None else max_index
    accepted = [0]
    for l in range(2, last + 1, 2):
        ov = overlap_from_norms(ledger, accepted[-1], l)
        if abs(ov) < overlap_threshold:
            accepted.append(l)
    return accepted


def solve_gevp(
    smat: np.ndarray, hmat: np.ndarray, eig_cutoff: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Generalized eigenproblem H x = E S x with spectral filtering of S.

    Eigendirections of S below ``eig_cutoff`` (absolute) are projected out
    before the reduced ordinary eigenproblem is solved.  Returns the full
    ascending eigenvalue list and the coefficient vector of the lowest one
    in the original (unprojected) basis.
    """
    smat = np.asarray(smat, dtype=float)
    hmat = np.asarray(hmat, dtype=float)
    if smat.shape != hmat.shape or smat.ndim != 2 or smat.shape[0] != smat.shape[1]:
        raise DimensionError("S and H must be square matrices of equal shape")
    w, v = np.linalg.eigh((smat + smat.T) / 2.0)
    keep = w >= eig_cutoff
    if not np.any(keep):
        raise NumericalError(
            f"no overlap eigenvalue reaches the cutoff {eig_cutoff:g}"
        )
    basis = v[:, keep] / np.sqrt(w[keep])
    reduced = basis.T @ ((hmat + hmat.T) / 2.0) @ basis
    reduced = (reduced + reduced.T) / 2.0
    evals, evecs = np.linalg.eigh(reduced)
    if not np.all(np.isfinite(evals)):
        raise NumericalError("subspace eigenvalues are not finite")
    ground = basis @ evecs[:, 0]
    return evals, ground


def check_options(overlap_threshold=0.95, eig_cutoff=1e-14, ledger_noise_sigma=0.0) -> None:
    """Refuse ``qlanczos_run``'s options out of bounds; the defaults are its own."""
    if not (0 < overlap_threshold <= 1 and eig_cutoff > 0 and ledger_noise_sigma >= 0):
        raise ConfigError("qlanczos: overlap_threshold must lie in (0, 1], "
                          "eig_cutoff be > 0 and ledger_noise_sigma >= 0")


@dataclass
class QLanczosResult:
    """Accelerated energies per even sweep prefix, next to the raw sweep energies."""

    betas: np.ndarray
    e_qite: np.ndarray
    e_qlanczos: np.ndarray
    n_retained: np.ndarray
    selected: List[int]
    trajectory: Trajectory
    ledger: KrylovLedger


def qlanczos_run(
    hamiltonian: Hamiltonian,
    state0: StateVector,
    qite_config: QiteConfig,
    overlap_threshold: float = 0.95,
    eig_cutoff: float = 1e-14,
    rng: Optional[np.random.Generator] = None,
    ledger_noise_sigma: float = 0.0,
) -> QLanczosResult:
    """Propagate, then solve the filtered subspace problem per even prefix.

    ``ledger_noise_sigma`` optionally perturbs the recorded scalars before
    post-processing (additive on energies, relative log-normal on squared
    norms) to emulate noisy estimates.
    """
    check_options(overlap_threshold, eig_cutoff, ledger_noise_sigma)
    if ledger_noise_sigma > 0 and rng is None:
        raise ConfigError("ledger_noise_sigma > 0 requires a random generator")
    trajectory = qite_evolve(state0, hamiltonian, qite_config, rng=rng)
    ledger = ledger_from_trajectory(trajectory)
    if ledger_noise_sigma > 0:
        ledger = perturb_ledger(ledger, ledger_noise_sigma, rng)
    accepted_all = stabilize(ledger, overlap_threshold)
    smat, hmat = build_matrices(ledger, accepted_all)  # each prefix is a leading block

    betas, e_raw, e_acc, retained = [], [], [], []
    for l in range(0, ledger.n_sweeps + 1, 2):
        m = int(np.searchsorted(accepted_all, l, side="right"))
        evals, _ = solve_gevp(smat[:m, :m], hmat[:m, :m], eig_cutoff)
        betas.append(l * ledger.dtau)
        e_raw.append(float(ledger.energies[l]))
        e_acc.append(float(evals[0]))
        retained.append(evals.size)  # one reduced eigenvalue per kept S direction
    return QLanczosResult(
        np.array(betas),
        np.array(e_raw),
        np.array(e_acc),
        np.array(retained, dtype=int),
        accepted_all,
        trajectory,
        ledger,
    )


def perturb_ledger(
    ledger: KrylovLedger, sigma: float, rng: np.random.Generator
) -> KrylovLedger:
    """Noisy copy: additive Gaussian on energies, log-normal on squared norms."""
    energies = ledger.energies + rng.normal(0.0, sigma, ledger.energies.shape)
    inv = ledger.inv_sq_norms * np.exp(rng.normal(0.0, sigma, ledger.inv_sq_norms.shape))
    return KrylovLedger(ledger.dtau, energies, inv)
