"""The four workloads: inputs made from a seed, and the checks on each op.

Each workload writes qitekit config files for one seed, names the CLI calls
of one op, reads the op's outputs back, and checks them.  At every seed the
outputs must keep the paper's invariants and agree with the independent
oracles in ``reference.py``; at ``DEFAULT_SEED`` they must also match the
outputs stored in ``goldens.json`` by ``make_goldens.py``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import reference

DEFAULT_SEED = 0
GOLDEN_TOL = 1e-10  # stored outputs, as in the ROADMAP's rule for energies
BOUND_TOL = 1e-9  # variational bound and QLanczos <= QITE, as in qitekit.cli
ORACLE_TOL = 1e-8  # program oracles against the independent dense ones

GOLDENS_PATH = Path(__file__).with_name("goldens.json")


def _read_csv(path: Path) -> List[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=1))
    return str(path)


def _up_spins(rng: np.random.Generator, n: int) -> str:
    """Random arrangement of n // 2 up spins (1 bits) on n sites."""
    ones = set(rng.permutation(n)[: n // 2].tolist())
    return "".join("1" if q in ones else "0" for q in range(n))


def _random_bits(rng: np.random.Generator, n: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, size=n))


class Workload:
    """Base class: subclasses set ``name`` and fill in the hooks.

    ``prepare`` writes the inputs for one seed into ``work`` and returns the
    config paths the op loads during set-up.  ``commands`` gives the CLI
    argument lists of one op writing into ``out``.  ``collect`` reads the
    values the goldens pin; ``check`` returns the list of broken invariants
    and the op's ``abs_err``.
    """

    name = ""

    def prepare(self, work: Path, seed: int) -> List[str]:
        raise NotImplementedError

    def commands(self, out: Path) -> List[List[str]]:
        raise NotImplementedError

    def collect(self, out: Path) -> Dict[str, list]:
        raise NotImplementedError

    def check(self, out: Path, values: Dict[str, list]) -> Tuple[List[str], float]:
        raise NotImplementedError

    def untimed_prep(self, work: Path) -> List[List[str]]:
        """CLI calls run once, untimed, before the first op."""
        return []


def golden_errors(values: Dict[str, list], golden: Dict[str, list]) -> List[str]:
    """Every column that differs from the golden by more than GOLDEN_TOL."""
    errors = []
    for key, expected in golden.items():
        got = values.get(key)
        if got is None or len(got) != len(expected):
            errors.append(f"golden {key}: length {None if got is None else len(got)} != {len(expected)}")
            continue
        if expected and isinstance(expected[0], str):
            bad = sum(a != b for a, b in zip(got, expected))
            if bad:
                errors.append(f"golden {key}: {bad} entries differ")
            continue
        dev = float(np.max(np.abs(np.asarray(got, float) - np.asarray(expected, float))))
        if not dev <= GOLDEN_TOL:
            errors.append(f"golden {key}: max deviation {dev:.3g} > {GOLDEN_TOL:g}")
    return errors


def load_goldens() -> Dict[str, Dict[str, list]]:
    return json.loads(GOLDENS_PATH.read_text()) if GOLDENS_PATH.exists() else {}


def _oracle_checks(spec: reference.Spectrum, bits: str, summary: dict, e_start: float) -> List[str]:
    """The reported E0 and the energy of the initial state against the reference."""
    errors = []
    for label, got, exact in (("e0_exact", summary["e0_exact"], spec.e0),
                              ("initial energy", e_start,
                               spec.ite_energy(reference.basis_state(bits), 0.0))):
        if not abs(got - exact) <= ORACLE_TOL:
            errors.append(f"{label} off the reference by {abs(got - exact):.3g}")
    return errors


class QiteWide(Workload):
    """QITE on Heisenberg n=9 with the 256-string full pool: each step solves a
    256 x 1024 system, wider than tall, so the solve and one dense oracle
    dominate.
    """

    name = "qite-wide"
    n, sweeps = 9, 1

    def prepare(self, work, seed):
        rng = np.random.default_rng(seed)
        self.bits = _up_spins(rng, self.n)
        self.spec = reference.Spectrum(reference.heisenberg_1d(self.n))
        self.config = _write_config(work / "qite_wide.json", {
            "algorithm": "qite",
            "seed": seed,
            "model": {"name": "heisenberg_1d", "params": {"n_qubits": self.n}},
            "initial_state": {"bits": self.bits},
            "qite": {"dtau": 0.1, "n_steps": self.sweeps, "domain_size": 4,
                     "pool_kind": "pauli_full", "b_mode": "measurable"},
        })
        return [self.config]

    def commands(self, out):
        return [["run", "--config", self.config, "--out", str(out)]]

    def collect(self, out):
        rows = _read_csv(out / "qite.csv")
        return {"energy": [float(r["energy"]) for r in rows],
                "beta": [float(r["beta"]) for r in rows]}

    def check(self, out, values):
        summary = json.loads((out / "summary.json").read_text())
        e0 = self.spec.e0
        errors = _oracle_checks(self.spec, self.bits, summary, values["energy"][0])
        if min(values["energy"]) < e0 - BOUND_TOL:
            errors.append("a sweep energy lies below E0")
        exact = self.spec.ite_energy(reference.basis_state(self.bits), values["beta"][-1])
        return errors, abs(values["energy"][-1] - exact)


class LanczosTall(Workload):
    """QLanczos on Heisenberg n=6 with the 2016-string odd-Y pool on the whole
    register: each step solves a 2016 x 128 system, taller than wide.
    """

    name = "lanczos-tall"
    n, sweeps = 6, 4

    def prepare(self, work, seed):
        rng = np.random.default_rng(seed)
        self.bits = bits = _up_spins(rng, self.n)
        self.spec = reference.Spectrum(reference.heisenberg_1d(self.n))
        self.config = _write_config(work / "lanczos_tall.json", {
            "algorithm": "qlanczos",
            "seed": seed,
            "model": {"name": "heisenberg_1d", "params": {"n_qubits": self.n}},
            "initial_state": {"bits": bits},
            "qlanczos": {
                "qite": {"dtau": 0.1, "n_steps": self.sweeps, "domain_size": self.n,
                         "pool_kind": "pauli_odd_y", "b_mode": "exact_delta0"},
                "overlap_threshold": 0.999999999999,
                "eig_cutoff": 1e-8,
            },
        })
        return [self.config]

    def commands(self, out):
        return [["run", "--config", self.config, "--out", str(out)]]

    def collect(self, out):
        rows = _read_csv(out / "qlanczos.csv")
        return {"e_qite": [float(r["e_qite"]) for r in rows],
                "e_qlanczos": [float(r["e_qlanczos"]) for r in rows],
                "n_retained": [int(r["n_retained"]) for r in rows]}

    def check(self, out, values):
        summary = json.loads((out / "summary.json").read_text())
        e0 = self.spec.e0
        errors = _oracle_checks(self.spec, self.bits, summary, values["e_qite"][0])
        if min(values["e_qite"]) < e0 - BOUND_TOL:
            errors.append("a QITE energy lies below E0")
        if any(el > eq + BOUND_TOL for eq, el in zip(values["e_qite"], values["e_qlanczos"])):
            errors.append("a QLanczos energy lies above the QITE energy")
        return errors, abs(values["e_qlanczos"][-1] - e0)


class MettsChain(Workload):
    """QMETTS on Heisenberg n=4 at beta=2: hundreds of tiny evolutions per op,
    so plan rebuilds and Python overhead dominate and the oracle is
    negligible.
    """

    name = "metts-chain"
    n, beta, samples, warmup = 4, 2.0, 24, 4

    def prepare(self, work, seed):
        self.spec = reference.Spectrum(reference.heisenberg_1d(self.n))
        self.config = _write_config(work / "metts_chain.json", {
            "algorithm": "qmetts",
            "seed": seed,
            "model": {"name": "heisenberg_1d", "params": {"n_qubits": self.n}},
            "qmetts": {
                "beta": self.beta, "n_samples": self.samples, "n_warmup": self.warmup,
                "basis_cycle": "alternating",
                "qite": {"dtau": 0.1, "domain_size": 4, "pool_kind": "pauli_odd_y"},
            },
        })
        return [self.config]

    def commands(self, out):
        return [["run", "--config", self.config, "--out", str(out)]]

    def collect(self, out):
        rows = _read_csv(out / "qmetts.csv")
        return {"label": [r["label"] for r in rows],
                "value": [float(r["value"]) for r in rows]}

    def check(self, out, values):
        summary = json.loads((out / "summary.json").read_text())
        errors = []
        if len(values["value"]) != self.samples:
            errors.append(f"{len(values['value'])} samples, expected {self.samples}")
        if any(len(l) != self.n or set(l) - set("01+-") for l in values["label"]):
            errors.append("a sample label is malformed")
        if min(values["value"]) < self.spec.e0 - BOUND_TOL:
            errors.append("a sample energy lies below E0")
        dev = abs(summary["gibbs_exact"] - self.spec.gibbs_energy(self.beta))
        if not dev <= ORACLE_TOL:
            errors.append(f"gibbs_exact off the reference by {dev:.3g}")
        return errors, float(summary["abs_error"])


class OracleSweep(Workload):
    """mutualinfo on TFI n=8 over 11 betas plus compare on a prepared 10-sweep
    run: dense diagonalizations dominate and no QITE step runs inside the op.
    """

    name = "oracle-sweep"
    n, sweeps = 8, 10
    betas = [float(k) for k in range(11)]
    model = {"name": "tfi_1d", "params": {"n_qubits": 8, "coupling": -1.0, "field": -1.25}}

    def prepare(self, work, seed):
        rng = np.random.default_rng(seed)
        bits = _random_bits(rng, self.n)
        params = self.model["params"]
        self.spec = reference.Spectrum(
            reference.tfi_1d(self.n, params["coupling"], params["field"]))
        self.psi0 = reference.basis_state(bits)
        self._mi_cache = {}
        self.mi_config = _write_config(work / "oracle_mi.json", {
            "algorithm": "mutualinfo", "seed": seed, "model": self.model,
            "initial_state": {"bits": bits},
            "mutualinfo": {"betas": self.betas, "pairs": "all"},
        })
        self.qite_config = _write_config(work / "oracle_qite.json", {
            "algorithm": "qite", "seed": seed, "model": self.model,
            "initial_state": {"bits": bits},
            "qite": {"dtau": 0.1, "n_steps": self.sweeps, "domain_size": 2,
                     "pool_kind": "pauli_full"},
        })
        self.qite_run = str(work / "oracle_qite_run")
        return [self.mi_config]

    def untimed_prep(self, work):
        return [["run", "--config", self.qite_config, "--out", self.qite_run]]

    def commands(self, out):
        return [["run", "--config", self.mi_config, "--out", str(out / "mi")],
                ["compare", "--run", self.qite_run, "--out", str(out / "compare.csv")]]

    def collect(self, out):
        mi = _read_csv(out / "mi" / "mutualinfo.csv")
        rows = _read_csv(out / "compare.csv")
        values = {"mutual_info": [float(r["mutual_info"]) for r in mi]}
        for key in ("beta", "energy", "e_exact_ite", "delta_exact", "delta_vs_first"):
            values[key] = [float(r[key]) for r in rows]
        values["bound_violation"] = [r["bound_violation"] for r in rows]
        values["mi_key"] = [f"{r['beta']}:{r['qubit_i']}:{r['qubit_j']}" for r in mi]
        return values

    def check(self, out, values):
        errors = []
        if any(flag != "0" for flag in values["bound_violation"]):
            errors.append("compare reports a bound_violation")
        if min(values["energy"]) < self.spec.e0 - BOUND_TOL:
            errors.append("a sweep energy lies below E0")
        ite = [self.spec.ite_energy(self.psi0, b) for b in values["beta"]]
        dev_ite = float(np.max(np.abs(np.subtract(values["e_exact_ite"], ite))))
        dev_mi = max((abs(got - self._mi_reference(key))
                      for key, got in zip(values["mi_key"], values["mutual_info"])), default=0.0)
        expected_rows = len(self.betas) * self.n * (self.n - 1) // 2
        if len(values["mutual_info"]) != expected_rows:
            errors.append(f"{len(values['mutual_info'])} mutual-information rows, expected {expected_rows}")
        dev_start = abs(values["energy"][0] - ite[0])
        for label, dev in (("e_exact_ite", dev_ite), ("mutual_info", dev_mi),
                           ("initial energy", dev_start)):
            if not dev <= ORACLE_TOL:
                errors.append(f"{label} off the reference by {dev:.3g}")
        return errors, max(dev_ite, dev_mi)

    def _mi_reference(self, key: str) -> float:
        if key not in self._mi_cache:
            beta, i, j = key.split(":")
            psi = self.spec.ite_state(self.psi0, float(beta))
            self._mi_cache[key] = reference.mutual_information(psi, int(i), int(j))
        return self._mi_cache[key]


WORKLOADS = {w.name: w for w in (QiteWide(), LanczosTall(), MettsChain(), OracleSweep())}
