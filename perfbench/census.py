"""Census of qitekit run costs: informational, never gated.

Usage, from the root of a qitekit checkout:

    python3 perfbench/census.py [--budget-mb MB]

Reproduces the baseline table of ROADMAP "Open items" (the QITE scaling
cells, c06 at beta=4, and dense to_dense + spectral at n = 10, 11, 12), runs
every shipped config once, and times one multi-config ``run`` batch with
``QITEKIT_THREADS=2`` against the same batch run serially.  Each cell runs
traced in its own process (``census_cell.py``), which reports wall time, peak
RSS and self seconds per module.  A cell whose estimated memory exceeds the
budget is skipped with the estimate recorded, so the census never risks
running the machine out of memory; the n=14 dense oracle is always skipped.
The table is printed and written to ``perfbench/out/census.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import HERE, child_env, environment, nproc

CELL_TIMEOUT_S = 900
BASE_MB = 60.0  # interpreter, numpy and qitekit after import


def pool_size(kind: str, domain: int) -> int:
    if kind == "pauli_odd_y":
        return (4**domain - 2**domain) // 2
    return 4**domain  # the fermionic pool is a subset of the full one


def qite_mb(n: int, n_terms: int, domain: int, kind: str) -> float:
    """Per-term plans (P x 2^n gather and sign arrays, P x 2^d local arrays)
    plus the step solve on P x 2^(n+1)."""
    d = min(domain, n)
    p = pool_size(kind, d)
    plans = n_terms * p * (2**n * 9 + 2**d * 24)
    return (plans + p * 2 ** (n + 1) * 8 * 6) / 2**20


def dense_mb(n: int) -> float:
    """Complex 2^n x 2^n matrix, eigenvectors and workspace."""
    return 16 * 4**n * 5 / 2**20


def config_mb(config: dict) -> float:
    import qitekit.cli

    hamiltonian = qitekit.cli.build_model(config["model"])
    n = hamiltonian.n_qubits
    algorithm = config["algorithm"]
    if algorithm == "count":
        return BASE_MB
    block = config.get(algorithm, {})
    qite = config.get("qite") or block.get("qite") or {}
    total = BASE_MB + dense_mb(n)
    if algorithm != "mutualinfo":
        total += qite_mb(n, hamiltonian.n_terms, qite.get("domain_size", 2),
                         qite.get("pool_kind", "pauli_full"))
    return total


def cells(root: Path, out: Path):
    """(name, spec, estimated MB, skip reason or None) for every census cell."""
    table = []
    for n, domain, kind in ((12, 4, "pauli_full"), (14, 4, "pauli_full"), (12, 6, "pauli_odd_y")):
        name = f"qite heisenberg n={n} d={domain} {kind} 3 sweeps"
        spec = {"call": "qite_evolve", "n": n, "domain": domain, "pool": kind, "sweeps": 3}
        table.append((name, spec, BASE_MB + qite_mb(n, n - 1, domain, kind), None))
    c06 = root / "configs" / "c06_qmetts_heisenberg4_beta4.json"
    table.append(("qmetts c06 beta=4", {"cli": ["run", "--config", str(c06), "--out", str(out / "c06")]},
                  config_mb(json.loads(c06.read_text())), None))
    for n in (10, 11, 12, 14):
        reason = "the n=14 dense oracle is a skip-only cell" if n == 14 else None
        table.append((f"to_dense + spectral n={n}", {"call": "spectral", "n": n},
                      BASE_MB + dense_mb(n), reason))
    for path in sorted((root / "configs").glob("*.json")):
        spec = {"cli": ["run", "--config", str(path), "--out", str(out / path.stem)]}
        table.append((f"config {path.stem}", spec, config_mb(json.loads(path.read_text())), None))
    return table


def run_cell(root: Path, env: dict, spec: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "census_cell.py"), json.dumps(spec)],
            cwd=root, env=env, capture_output=True, text=True, timeout=CELL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CELL_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip()[-300:]}
    return json.loads(lines[-1])


def batch_wall(root: Path, env: dict, configs, out: Path, threads: int) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    env = dict(env, QITEKIT_THREADS=str(threads))
    argv = [sys.executable, "-m", "qitekit.cli", "run", "--out", str(out)]
    for path in configs:
        argv += ["--config", str(path)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CELL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"threads": threads, "error": f"timed out after {CELL_TIMEOUT_S} s"}
    return {"threads": threads, "wall_s": time.perf_counter() - start,
            "exit_code": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qitekit run-cost census (informational)")
    parser.add_argument("--budget-mb", type=float, default=2048.0,
                        help="skip cells whose estimated memory exceeds this")
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    env = child_env(root, blas_threads=nproc())  # the BLAS default a CLI user gets
    out = root / "perfbench" / "out" / "census"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rows = []
    try:
        for name, spec, est, reason in cells(root, out):
            if reason is None and est > args.budget_mb:
                reason = f"estimated {est:.0f} MB > budget {args.budget_mb:.0f} MB"
            row = {"cell": name, "estimated_mb": est}
            row.update({"skipped": reason} if reason else run_cell(root, env, spec))
            rows.append(row)
            print(_format(row), flush=True)

        batch = [p for p in sorted((root / "configs").glob("*.json"))
                 if json.loads(p.read_text())["algorithm"] == "qite"
                 and config_mb(json.loads(p.read_text())) <= args.budget_mb]
        threads = [batch_wall(root, env, batch, out / f"batch{t}", t) for t in (1, 2)]
        for entry in threads:
            print(f"batch of {len(batch)} qite configs, QITEKIT_THREADS={entry['threads']}: "
                  f"{entry.get('wall_s', float('nan')):.2f} s {entry.get('error', '')}")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    record = {"env": environment(root, env), "budget_mb": args.budget_mb, "cells": rows,
              "threads_batch": {"configs": [p.stem for p in batch], "runs": threads}}
    path = root / "perfbench" / "out" / "census.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"wrote {path.relative_to(root)}")
    return 0


def _format(row: dict) -> str:
    head = f"{row['cell']:48s} est {row['estimated_mb']:8.0f} MB"
    if "skipped" in row:
        return f"{head}  skipped: {row['skipped']}"
    if "error" in row:
        return f"{head}  error: {row['error']}"
    top = sorted(row["self_s"].items(), key=lambda kv: -kv[1])[:2]
    where = ", ".join(f"{m} {s:.2f} s" for m, s in top)
    return (f"{head}  wall {row['wall_s']:8.2f} s  rss {row['peak_rss_mb']:6.0f} MB  "
            f"exit {row['exit_code']}  self: {where}")


if __name__ == "__main__":
    sys.exit(main())
