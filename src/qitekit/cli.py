"""Experiment runner: validated JSON configs in, manifests and CSV series out.

Exit codes: 0 success, 2 configuration problem, 3 resource limit,
4 numerical failure.  Reruns of the same config and seed produce
byte-identical CSV bodies; manifests differ only in timestamps/timings.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .analysis import (
    CostQuery,
    GroundSpace,
    _mutual_information_pairs,
    _pool_size,
    check_dense,
    ground_space,
    qite_measurement_count,
    spectral,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    NumericalError,
    PoolError,
    QitekitError,
    ResourceError,
)
from .hamiltonians import (
    Hamiltonian,
    h2_from_table,
    heisenberg_1d,
    heisenberg_long_range,
    hubbard_1d_jw,
    maxcut,
    maxcut_six_vertex_instance,
    one_qubit_field,
    tfi_1d,
)
from .qite import QiteConfig, qite_evolve
from .qlanczos import qlanczos_run
from .qmetts import MettsConfig, metts_chain
from .statevector import (
    StateVector,
    neel_state,
    plus_state,
    product_state,
    singlet_dimer_state,
    zero_state,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

# (exception types, exit code), shared by main and the manifest of a failed run;
# any other exception exits 1, as Python does
_EXIT_CODES = (
    ((ConfigError, DataFormatError, PoolError, DimensionError), EXIT_CONFIG),
    ((ResourceError,), EXIT_RESOURCE),
    ((NumericalError, np.linalg.LinAlgError), EXIT_NUMERICAL),
)
_HANDLED = sum((kinds for kinds, _ in _EXIT_CODES), ())


def _exit_code(exc: BaseException) -> int:
    return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), 1)


_BOUND_TOL = 1e-9
# widest model that run, count and compare accept unless --max-qubits says otherwise
DEFAULT_MAX_QUBITS = 14


# ---------------------------------------------------------------------------
# config loading and validation


def _read(path: Path, parse=json.loads):
    """``parse`` of the file's text; a file that cannot be read or parsed is a
    ConfigError that names it."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(path: Path, max_qubits: int = DEFAULT_MAX_QUBITS) -> dict:
    config = _read(path)
    validate_config(config, str(path), max_qubits)
    return config


def _finite(value) -> bool:
    """Whether every number in a JSON value is finite (json.loads reads NaN,
    Infinity and -Infinity, and 1e400 as inf)."""
    if isinstance(value, (dict, list)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, float) or math.isfinite(value)


def validate_config(
    config: dict, origin: str = "config", max_qubits: int = DEFAULT_MAX_QUBITS
) -> None:
    """Refuse, naming ``origin``, what the config alone decides, and then a
    model wider than ``max_qubits``."""
    try:
        if not _finite(config):
            raise ConfigError("numbers must be finite, not NaN or Infinity")
        algorithm = config.get("algorithm") if isinstance(config, dict) else None
        if algorithm not in list(_RUNNERS):  # a dict lookup would hash a JSON list
            raise ConfigError(f"at $.algorithm: must be one of {list(_RUNNERS)}")
        foreign = set(config) - {"algorithm", "seed", "model", "initial_state", algorithm}
        if foreign:
            raise ConfigError(
                f"sections {sorted(foreign)} do not belong to algorithm {algorithm!r}"
            )
        seed = config.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        hamiltonian = build_model(config.get("model"))
        _initial_choice(config, hamiltonian.n_qubits)
        _settings(config, hamiltonian)
        if hamiltonian.n_qubits > max_qubits:
            raise ResourceError(
                f"model needs {hamiltonian.n_qubits} qubits, limit is {max_qubits}"
            )
    except QitekitError as exc:
        raise type(exc)(f"{origin}: {exc}") from exc


# the JSON values an annotation accepts: a bool is no int, nor is 2.0.  Every
# target module postpones its annotations, so they are read as their names
# and none is resolved (resolving Optional[np.random.Generator] would import
# numpy.random)
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _kwargs(target, block, where: str, skip: Sequence[str] = ()) -> dict:
    """``block`` checked against the keyword arguments of ``target`` less ``skip``:
    no unknown or missing key, and the JSON type of each int, float, bool or str."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    params = inspect.signature(target).parameters
    params = {k: p for k, p in params.items() if k not in skip}
    unknown = set(block) - set(params)
    if unknown:
        raise ConfigError(f"{where}: unknown parameters {sorted(unknown)}")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in block]
    if missing:
        raise ConfigError(f"{where}: missing parameters {missing}")
    for key, value in block.items():
        kinds = _JSON_TYPES.get(params[key].annotation)
        if kinds and type(value) not in kinds:
            raise ConfigError(f"{where}: {key} must be of type {params[key].annotation}")
    return block


def _h2(bond_length: float, table_path: Optional[str] = None) -> Hamiltonian:
    return h2_from_table(bond_length, path=table_path)


# one entry per runnable model: the builder, whose keyword arguments are the
# model's params, and the initial product state used when none is configured
_MODEL_TABLE = {
    "one_qubit_field": (one_qubit_field, "zeros"),
    "heisenberg_1d": (heisenberg_1d, "neel"),
    "heisenberg_long_range": (heisenberg_long_range, "neel"),
    "tfi_1d": (tfi_1d, "plus"),
    "hubbard_1d_jw": (hubbard_1d_jw, "half_filled"),
    "h2_bk": (_h2, "zeros"),
    "maxcut": (maxcut, "plus"),
    "maxcut_six": (maxcut_six_vertex_instance, "plus"),
}


def build_model(model_block: dict) -> Hamiltonian:
    name = model_block.get("name") if isinstance(model_block, dict) else None
    if name not in list(_MODEL_TABLE) or set(model_block) - {"name", "params"}:
        raise ConfigError(f'model must be {{"name": one of {list(_MODEL_TABLE)}, '
                          '"params": {...}}')
    builder = _MODEL_TABLE[name][0]
    params = _kwargs(builder, model_block.get("params", {}), f"model {name!r} params")
    try:
        return builder(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model {name!r}: {exc}") from exc


def _half_filled(n_qubits: int) -> StateVector:
    label = "".join("10" if i % 2 == 0 else "01" for i in range(n_qubits // 2))
    return product_state(label)


_INITIAL_STATES = {"zeros": zero_state, "neel": neel_state, "plus": plus_state,
                   "singlet_dimers": singlet_dimer_state, "half_filled": _half_filled}


def _initial_choice(config: dict, n_qubits: int):
    """The configured (or the model's default) initial state, checked against
    the model's width."""
    choice = config.get("initial_state", _MODEL_TABLE[config["model"]["name"]][1])
    bits = choice.get("bits") if isinstance(choice, dict) and len(choice) == 1 else ""
    if choice not in list(_INITIAL_STATES) and not (
        isinstance(bits, str) and bits and not set(bits) - set("01+-")
    ):
        raise ConfigError(f'initial_state must be one of {list(_INITIAL_STATES)} '
                          'or {"bits": "01+-"}')
    if bits and len(bits) != n_qubits:
        raise ConfigError(f"initial_state bits length {len(bits)} != n_qubits {n_qubits}")
    if choice in ("singlet_dimers", "half_filled") and n_qubits % 2:
        raise ConfigError(f"{choice} initial state needs an even qubit count")
    return choice


def build_initial_state(config: dict, n_qubits: int) -> StateVector:
    choice = _initial_choice(config, n_qubits)
    if isinstance(choice, dict):
        return product_state(choice["bits"])
    return _INITIAL_STATES[choice](n_qubits)


def _model_and_state(config: dict) -> Tuple[Hamiltonian, StateVector]:
    hamiltonian = build_model(config["model"])
    return hamiltonian, build_initial_state(config, hamiltonian.n_qubits)


def _qite_config(block: dict, where: str) -> QiteConfig:
    config = QiteConfig(**_kwargs(QiteConfig, block, where))
    config.validate()
    return config


def _mutualinfo_settings(n_qubits: int, betas: list, pairs="all"):
    """The betas, and the qubit pairs ("all" by default) checked against the width."""
    if not (isinstance(betas, list) and betas and all(
        type(b) in _JSON_TYPES["float"] and b >= 0 for b in betas)):
        raise ConfigError("mutualinfo: betas must be a non-empty list of numbers >= 0")
    if pairs == "all":
        pairs = [[i, j] for i in range(n_qubits) for j in range(i + 1, n_qubits)]
    elif not (isinstance(pairs, list) and pairs and all(
        isinstance(p, list) and len(p) == 2 and p[0] != p[1]
        and all(type(k) is int and 0 <= k < n_qubits for k in p) for p in pairs)):
        raise ConfigError(f'mutualinfo: pairs must be "all" or a non-empty list of '
                          f"pairs [i, j] of distinct qubits below n={n_qubits}")
    return betas, [tuple(p) for p in pairs]


def _settings(config: dict, hamiltonian: Optional[Hamiltonian]):
    """The checked library objects of the config's algorithm section.

    The library keeps every default and rule; the CLI adds b_mode
    exact_delta0 as a qmetts section's default, the bounds of qlanczos_run's
    options and the mutual-information betas and pairs.
    """
    algorithm = config["algorithm"]
    block = config.get(algorithm, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{algorithm} must be an object")
    block = dict(block)
    if algorithm == "qite":
        return _qite_config(block, "qite")
    if algorithm == "qlanczos":  # the rest are qlanczos_run's keyword arguments
        qite = _qite_config(block.pop("qite", {}), "qlanczos.qite")
        inputs = ("hamiltonian", "state0", "qite_config", "rng")
        options = _kwargs(qlanczos_run, block, "qlanczos", skip=inputs)
        get = options.get
        if not (0 < get("overlap_threshold", 1) <= 1 and get("eig_cutoff", 1) > 0
                and get("ledger_noise_sigma", 0) >= 0):
            raise ConfigError("qlanczos: overlap_threshold must lie in (0, 1], "
                              "eig_cutoff be > 0 and ledger_noise_sigma >= 0")
        return qite, options
    if algorithm in ("qmetts", "mutualinfo"):  # their oracles are dense
        check_dense(hamiltonian)
    if algorithm == "qmetts":  # a chain derives its own qite.n_steps from beta
        qite = _kwargs(QiteConfig, block.pop("qite", {}), "qmetts.qite", skip=("n_steps",))
        block = _kwargs(MettsConfig, block, "qmetts", skip=("qite",))
        metts = MettsConfig(**block, qite=QiteConfig(**{"b_mode": "exact_delta0", **qite}))
        metts.validate()
        return metts
    if algorithm == "mutualinfo":
        block = _kwargs(_mutualinfo_settings, block, "mutualinfo", skip=("n_qubits",))
        return _mutualinfo_settings(hamiltonian.n_qubits, **block)
    query = CostQuery(**_kwargs(CostQuery, block, "count"))
    try:
        qite_measurement_count(query)
    except ValueError as exc:
        raise ConfigError(f"count: {exc}") from exc
    return query


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# per-algorithm runners; each takes its section's objects from _settings and
# the run's one oracle of H (None for count) in place of its own, and returns
# the rows of its table in _TABLES (none for count) and its summary

# each table's file name and header; compare matches a qite or qlanczos row
# by its first column and reads the two after it
_TABLES = {
    "qite": ("qite.csv", ("sweep", "beta", "energy", "fidelity_opt")),
    "qlanczos": ("qlanczos.csv", ("beta", "e_qite", "e_qlanczos", "n_retained")),
    "qmetts": ("qmetts.csv", ("sample", "label", "value")),
    "mutualinfo": ("mutualinfo.csv", ("beta", "qubit_i", "qubit_j", "mutual_info")),
}


def _oracle(algorithm: str, hamiltonian: Hamiltonian):
    """The oracle a run reads: the GroundSpace of a qite or qlanczos run, or
    the SpectralDecomposition that Gibbs averages and exact ITE need."""
    if algorithm in ("qite", "qlanczos"):
        return ground_space(hamiltonian, _BOUND_TOL)
    return spectral(hamiltonian)


def _oracle_record(oracle) -> Optional[dict]:
    """The manifest's account of how the oracle was computed."""
    if oracle is None:
        return None
    ground = oracle if isinstance(oracle, GroundSpace) else oracle.ground(_BOUND_TOL)
    return {"route": ground.route, "matvecs": ground.matvecs, "ground_dim": ground.dim}


def _run_qite(qite_cfg, hamiltonian, state0, rng, ground):
    e0 = ground.e0
    fidelities = [ground.fidelity(state0)]
    trajectory = qite_evolve(
        state0,
        hamiltonian,
        qite_cfg,
        rng=rng,
        on_sweep=lambda _l, state: fidelities.append(ground.fidelity(state)),
    )
    rows = [
        (str(l), _fmt(beta), _fmt(e), _fmt(f))
        for l, (beta, e, f) in enumerate(
            zip(trajectory.betas, trajectory.energies, fidelities)
        )
    ]
    final = float(trajectory.energies[-1])
    scale = max(abs(e0), 1e-12)
    summary = {
        "beta_final": float(trajectory.betas[-1]),
        "energy_final": final,
        "e0_exact": e0,
        "relative_error": abs(final - e0) / scale,
        "fidelity_opt_final": fidelities[-1],
    }
    return rows, summary


def _run_qlanczos(settings, hamiltonian, state0, rng, ground):
    qite_cfg, options = settings
    result = qlanczos_run(hamiltonian, state0, qite_cfg, rng=rng, **options)
    rows = [
        (_fmt(b), _fmt(eq), _fmt(el), str(int(k)))
        for b, eq, el, k in zip(
            result.betas, result.e_qite, result.e_qlanczos, result.n_retained
        )
    ]
    summary = {
        "beta_final": float(result.betas[-1]),
        "e_qite_final": float(result.e_qite[-1]),
        "e_qlanczos_final": float(result.e_qlanczos[-1]),
        "e0_exact": ground.e0,
        "n_retained_final": int(result.n_retained[-1]),
        "selected_sweeps": list(result.selected),
    }
    return rows, summary


def _run_qmetts(metts_cfg, hamiltonian, state0, rng, dec):
    result = metts_chain(hamiltonian, metts_cfg, rng)
    rows = [
        (str(s.index), s.start_label, _fmt(s.value)) for s in result.samples
    ]
    reference = dec.gibbs(metts_cfg.beta)
    summary = {
        "beta": metts_cfg.beta,
        "n_samples": metts_cfg.n_samples,
        "n_warmup": metts_cfg.n_warmup,
        "mean": result.mean,
        "stderr_block": result.stderr,
        "gibbs_exact": reference,
        "abs_error": abs(result.mean - reference),
    }
    return rows, summary


def _run_mutualinfo(settings, hamiltonian, state0, rng, dec):
    betas, pairs = settings
    rows = []
    final_state = state0
    for beta in betas:
        final_state = dec.ite(state0, beta)
        for (i, j), info in zip(pairs, _mutual_information_pairs(final_state, pairs)):
            rows.append((_fmt(beta), str(i), str(j), _fmt(info)))
    summary = {
        "betas": [float(b) for b in betas],
        "n_pairs": len(pairs),
        "fidelity_ground_final": dec.ground(_BOUND_TOL).fidelity(final_state),
        "e0_exact": float(dec.evals[0]),
    }
    return rows, summary


def _run_count(query, hamiltonian, state0, rng, dec):
    summary = {
        "p_total": qite_measurement_count(query),
        "n_terms": query.n_terms,
        "n_time_steps": query.n_time_steps,
        "domain_size": query.domain_size,
        "odd_y_only": query.odd_y_only,
        "pool_size_per_term": _pool_size(query),
    }
    return [], summary


def _draws(algorithm: str, settings) -> bool:
    """Whether a run draws random numbers: a QMETTS chain's collapse
    measurements, or the noise emulation of QITE or of the QLanczos ledger."""
    if algorithm == "qite":
        return settings.noise_sigma > 0
    if algorithm == "qlanczos":
        qite_cfg, options = settings
        return qite_cfg.noise_sigma > 0 or options.get("ledger_noise_sigma", 0) > 0
    return algorithm == "qmetts"


_RUNNERS = {
    "qite": _run_qite,
    "qlanczos": _run_qlanczos,
    "qmetts": _run_qmetts,
    "mutualinfo": _run_mutualinfo,
    "count": _run_count,
}


def execute_run(config: dict, out_dir: Path, seed_override: Optional[int] = None) -> dict:
    """Run one validated config into ``out_dir`` and return its summary."""
    algorithm = config["algorithm"]
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    hamiltonian, state0 = _model_and_state(config)
    settings = _settings(config, hamiltonian)
    # only a run that draws builds a generator (and imports numpy.random);
    # the library refuses a draw without one
    rng = np.random.default_rng(seed) if _draws(algorithm, settings) else None

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "qitekit",
        "version": __version__,
        "status": "started",
        "created_utc": _utc_now(),
        "config": config,
        "seed_effective": int(seed),
    }
    _write_json(out_dir / "manifest.json", manifest)

    start = time.perf_counter()
    try:
        oracle = None if algorithm == "count" else _oracle(algorithm, hamiltonian)
        oracle_s = 0.0 if oracle is None else time.perf_counter() - start
        rows, summary = _RUNNERS[algorithm](settings, hamiltonian, state0, rng, oracle)
    except Exception as exc:  # recorded, then raised on to main
        manifest["status"] = "failed"
        manifest["finished_utc"] = _utc_now()
        manifest["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": _exit_code(exc),
        }
        _write_json(out_dir / "manifest.json", manifest)
        raise
    outputs = ["summary.json"]
    if algorithm in _TABLES:
        name, header = _TABLES[algorithm]
        _write_csv(out_dir / name, header, rows)
        outputs.append(name)
    summary = {
        "algorithm": algorithm,
        "model": config["model"],
        "n_qubits": hamiltonian.n_qubits,
        **summary,
    }
    _write_json(out_dir / "summary.json", summary)

    manifest["status"] = "completed"
    manifest["finished_utc"] = _utc_now()
    manifest["timings_s"] = {"total": time.perf_counter() - start, "oracle": oracle_s}
    manifest["oracle"] = _oracle_record(oracle)
    manifest["outputs"] = sorted(outputs)
    _write_json(out_dir / "manifest.json", manifest)
    return summary


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    # validate every config before creating any output path
    configs = [(path, load_config(Path(path), args.max_qubits)) for path in args.config]
    out_root = Path(args.out)
    if len(configs) == 1:
        targets = [out_root]
    else:
        targets, seen = [], {}
        for path, _ in configs:
            stem = Path(path).stem
            seen[stem] = seen.get(stem, 0) + 1
            name = stem if seen[stem] == 1 else f"{stem}_{seen[stem]}"
            targets.append(out_root / name)

    for (path, config), target in zip(configs, targets):
        summary = execute_run(config, target, args.seed_override)
        headline = {
            k: summary[k]
            for k in ("energy_final", "e_qlanczos_final", "mean", "p_total")
            if k in summary
        }
        print(f"{path}: {summary['algorithm']} -> {target} {headline}")
    return EXIT_OK


def _load_run_dir(run_dir: Path, max_qubits: int) -> dict:
    """The validated config of the completed run in ``run_dir``."""
    manifest = _read(Path(run_dir) / "manifest.json")
    if not isinstance(manifest, dict) or manifest.get("status") != "completed":
        raise ConfigError(f"{run_dir}: run did not complete")
    validate_config(manifest.get("config"), str(run_dir), max_qubits)
    return manifest["config"]


def cmd_compare(args) -> int:
    configs = [_load_run_dir(Path(d), args.max_qubits) for d in args.run]
    for run_dir, config in zip(args.run[1:], configs[1:]):
        if any(config.get(k) != configs[0].get(k) for k in ("algorithm", "model", "initial_state")):
            raise ConfigError(f"{run_dir}: algorithm, model or initial state differs "
                              f"from {args.run[0]}")
    algorithm = configs[0]["algorithm"]
    if algorithm not in ("qite", "qlanczos", "qmetts"):
        raise ConfigError(f"compare is not defined for algorithm {algorithm!r}")

    hamiltonian, state0 = _model_and_state(configs[0])
    # qite rows read exact ITE and E0, qmetts rows Gibbs averages; qlanczos
    # rows read no oracle
    dec = None if algorithm == "qlanczos" else spectral(hamiltonian)
    header, rows = _compare_rows(algorithm, args.run, state0, dec)
    if args.out:
        _write_csv(Path(args.out), header, rows)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return EXIT_OK


def _compare_rows(algorithm, run_dirs, state0, dec):
    if algorithm in ("qite", "qlanczos"):
        # one row per CSV row of each run, ending in its change from the first run
        name, header = _TABLES[algorithm]
        read, key = header[:3], header[0]
        qite = algorithm == "qite"
        added = ("e_exact_ite", "delta_exact", "bound_violation") if qite else ("bound_ok",)

        def checks(values):
            if qite:
                _, beta, e = values
                oracle = dec.ite_energy(state0, beta)
                violation = str(int(e < dec.evals[0] - _BOUND_TOL))
                return _fmt(oracle), _fmt(e - oracle), violation
            _, eq, el = values
            return (str(int(el <= eq + _BOUND_TOL)),)

        series = []
        for run_dir in run_dirs:
            path = Path(run_dir) / name
            table = _read(path, lambda text: list(csv.DictReader(text.splitlines())))
            series.append([(row, _numbers(row, read, f"{path} line {line}"))
                           for line, row in enumerate(table, 2)])
        first = {row[key]: values[-1] for row, values in series[0]}
        for run_dir, table in zip(run_dirs, series):
            extra = [row[key] for row, _ in table if row[key] not in first]
            if extra:
                raise ConfigError(f"{run_dir}: {key} {extra[0]} is not in {run_dirs[0]}")
        rows = [
            (str(run_dir), row[key], *map(_fmt, values[1:]), *checks(values),
             _fmt(values[-1] - first[row[key]]))
            for run_dir, table in zip(run_dirs, series)
            for row, values in table
        ]
        return ("run",) + read + added + ("delta_vs_first",), rows
    read = ("beta", "mean", "stderr_block")
    header = ("run",) + read + ("gibbs_exact", "delta", "within_3_stderr")
    rows = []
    for run_dir in run_dirs:
        path = Path(run_dir) / "summary.json"
        beta, mean, stderr = _numbers(_read(path), read, path)
        oracle = dec.gibbs(beta)
        delta = mean - oracle
        within = str(int(abs(delta) <= 3 * stderr))
        rows.append((str(run_dir), *map(_fmt, (beta, mean, stderr, oracle, delta)), within))
    return header, rows


def _numbers(record, keys, where) -> List[float]:
    """The values of ``keys`` in a CSV row or a summary as floats; a missing
    key or a value that is not a number is a ConfigError naming ``where``."""
    values = []
    for key in keys:
        if not isinstance(record, dict) or key not in record:
            raise ConfigError(f"{where}: no {key!r}")
        try:
            values.append(float(record[key]))
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: {key} {record[key]!r} is not a number") from None
    return values


def cmd_count(args) -> int:
    config = load_config(Path(args.config), args.max_qubits)
    if config["algorithm"] != "count":
        raise ConfigError("count subcommand needs a config with algorithm 'count'")
    if args.out:
        summary = execute_run(config, Path(args.out), args.seed_override)
    else:
        _, summary = _run_count(_settings(config, None), None, None, None, None)
    print(summary["p_total"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qitekit",
        description="Imaginary-time evolution emulator and analysis runner.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one or more experiment configs")
    run.add_argument(
        "--config",
        action="append",
        required=True,
        help="path to a JSON experiment config (repeatable)",
    )
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed-override", type=int, default=None)
    run.add_argument("--max-qubits", type=int, default=DEFAULT_MAX_QUBITS)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser(
        "compare", help="tabulate finished runs against exact oracles"
    )
    compare.add_argument("--run", action="append", required=True, dest="run")
    compare.add_argument("--out", default=None, help="output CSV path (default stdout)")
    compare.add_argument("--max-qubits", type=int, default=DEFAULT_MAX_QUBITS)
    compare.set_defaults(func=cmd_compare)

    count = sub.add_parser("count", help="evaluate a measurement-cost query")
    count.add_argument("--config", required=True)
    count.add_argument("--out", default=None, help="optional output directory")
    count.add_argument("--seed-override", type=int, default=None)
    count.add_argument("--max-qubits", type=int, default=DEFAULT_MAX_QUBITS)
    count.set_defaults(func=cmd_count)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
