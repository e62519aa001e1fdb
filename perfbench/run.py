"""qitekit benchmark: closed-loop CLI ops in fresh processes, one client.

Usage, from the root of a qitekit checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op starts a fresh Python process (``op.py``) that imports qitekit,
loads and validates the workload's configs (set-up), then runs the op's
``qitekit.cli.main`` calls.  After one untimed warm-up op the loop runs ops
back to back for ``--seconds`` seconds and checks every op's outputs.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced ops alternate and it reports the per-layer
metrics.  Earlier lines print every figure with its unit, including the
ones the last line leaves out; a JSON record with the environment and all
samples goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import FUNCTIONS, MODULES

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60
# One BLAS thread per op: on the 2-core host these shapes ran no faster with
# two, and a single thread leaves a core to the parent and the OS, which
# steadies the timings.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path, blas_threads: int = BLAS_THREADS) -> dict:
    env = dict(os.environ)
    env.pop("QITEKIT_THREADS", None)
    threads = str(min(blas_threads, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(root / "src")
    return env


def environment(root: Path, env: dict) -> dict:
    """Machine, BLAS and source identity recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class OpRunner:
    """Starts op processes and checks their outputs."""

    def __init__(self, root: Path, work: Path, workload, golden, env: dict, configs: list):
        self.root, self.work, self.workload, self.golden = root, work, workload, golden
        self.env, self.configs = env, configs

    def spawn(self, commands, trace: bool) -> dict:
        """Run one op process and return its result, or a dict with ``error``."""
        job_path = self.work / "job.json"
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        job_path.write_text(json.dumps({
            "configs": self.configs, "commands": commands,
            "trace": trace, "result": str(result_path),
        }))
        log = self.work / "op.log"
        with open(log, "w") as handle:
            t_spawn = time.perf_counter()
            try:
                subprocess.run(
                    [sys.executable, str(HERE / "op.py"), str(job_path), repr(t_spawn)],
                    cwd=self.root, env=self.env, stdout=handle, stderr=subprocess.STDOUT,
                    timeout=OP_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return {"error": f"timed out after {OP_TIMEOUT_S} s"}
            wall = time.perf_counter() - t_spawn
        if not result_path.exists():
            tail = log.read_text()[-400:].strip().replace("\n", " | ")
            return {"error": f"op process wrote no result: {tail}"}
        result = json.loads(result_path.read_text())
        if "name_error" in result:
            raise SystemExit(f"perfbench: name check failed: {result['name_error']}")
        result["wall_s"] = wall
        return result

    def op(self, trace: bool) -> dict:
        """One checked op: a result with ``errors`` and ``abs_err`` added."""
        out = self.work / "op"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        result = self.spawn(self.workload.commands(out), trace)
        errors = [result["error"]] if "error" in result else []
        if not errors and any(result["exit_codes"]):
            errors.append(f"exit codes {result['exit_codes']}")
        if not errors:
            try:
                values = self.workload.collect(out)
                found, result["abs_err"] = self.workload.check(out, values)
            except (OSError, KeyError, ValueError) as exc:
                found = [f"missing or malformed output: {exc!r}"]
            errors.extend(found)
            if not found and self.golden is not None:
                errors.extend(workloads.golden_errors(values, self.golden))
        if trace and "trace" in result:
            errors.extend(f"trace: {e}" for e in result["trace"]["errors"])
        result["errors"] = errors
        return result


def tail_value(samples):
    """(value, percentile) of the highest order statistic with >= 10 samples above.

    With fewer than 11 samples no such statistic exists and the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(ops):
    good = [r for r in ops if not r["errors"]] or [r for r in ops if "op_s" in r]
    times = [r["op_s"] for r in good]
    tail, pct = tail_value(times) if times else (float("nan"), 0.0)
    abs_errs = [r["abs_err"] for r in ops if "abs_err" in r]
    failed = sum(1 for r in ops if r["errors"])
    metrics = {
        "op_s": {"value": _median(times), "unit": "s"},
        "op_s_tail": {"value": tail, "unit": "s"},
        "setup_s": {"value": _median([r["setup_s"] for r in good]), "unit": "s"},
        "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in good]), "unit": "MB"},
    }
    report = {
        **metrics,
        "fail_ratio": {"value": failed / len(ops), "unit": "1"},
        "abs_err": {"value": max(abs_errs) if abs_errs else float("nan"), "unit": "1"},
    }
    tail_note = "10 above it" if len(times) >= 11 else "maximum: fewer than 11 ops"
    notes = {"op_s": f"median of {len(times)} ops",
             "op_s_tail": f"p{pct:.1f} of {len(times)} ops, {tail_note}",
             "setup_s": f"median of {len(good)} ops",
             "fail_ratio": f"{failed} of {len(ops)} ops failed"}
    return metrics, report, notes


def per_layer(traced, untraced):
    """Per-layer figures from the traced ops, and the self-check errors."""
    errors = []
    summaries = [r["trace"] for r in traced if "trace" in r]
    if len(summaries) < 2:
        return {}, {}, ["fewer than two traced ops completed"]
    first = summaries[0]
    for other in summaries[1:]:
        if other["calls"] != first["calls"] or other["qite_steps"] != first["qite_steps"]:
            errors.append("call counts differ between traced ops")
            break
    op_s = [r["op_s"] for r in traced if "trace" in r]

    def med(fn):
        return _median([fn(s, t) for s, t in zip(summaries, op_s)])

    calls = first["calls"]
    steps = first["qite_steps"]
    pools, hams = first["distinct_pools"], first["distinct_hamiltonians"]
    n_pool, n_spec = calls["pauli.enumerate_pool"], calls["analysis.spectral"]
    untraced_s = _median([r["op_s"] for r in untraced if not r["errors"]])
    traced_s = _median(op_s)
    metrics = {}
    report = {}
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = {"value": calls[fn], "unit": "count"}
        metrics[f"{fn}.pct"] = {"value": med(lambda s, t: 100 * s["s"][fn] / t), "unit": "%"}
        report[f"{fn}.calls"] = metrics[f"{fn}.calls"]
        report[f"{fn}.s"] = {"value": med(lambda s, t: s["s"][fn]), "unit": "s"}
    for module in MODULES:
        metrics[f"{module}.self_pct"] = {
            "value": med(lambda s, t: 100 * s["self_s"][module] / t), "unit": "%"}
        report[f"{module}.self_s"] = {"value": med(lambda s, t: s["self_s"][module]), "unit": "s"}
    derived = {
        "qite.steps": {"value": steps, "unit": "count"},
        "pauli.plan_reuse": {"value": pools / n_pool if n_pool else 0.0, "unit": "1"},
        "analysis.diag_reuse": {"value": hams / n_spec if n_spec else 0.0, "unit": "1"},
    }
    metrics.update(derived)
    metrics["trace.overhead_pct"] = {
        "value": 100 * (traced_s - untraced_s) / untraced_s, "unit": "%"}
    report.update(derived)
    report["qite.s_per_step"] = {
        "value": med(lambda s, t: s["self_s"]["qite"] / steps) if steps else 0.0, "unit": "s"}
    report["trace.op_s"] = {"value": traced_s, "unit": "s"}
    report["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return metrics, report, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qitekit" / "__init__.py").is_file():
        print("perfbench: run from the root of a qitekit checkout (no src/qitekit here)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    probe = subprocess.run([sys.executable, "-c", "import qitekit.cli"], cwd=root, env=env,
                           capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if probe.returncode != 0:
        print(f"perfbench: cannot import qitekit.cli:\n{probe.stderr}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    golden = (workloads.load_goldens().get(workload.name)
              if args.seed == workloads.DEFAULT_SEED else None)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = root / "perfbench" / "out" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        configs = workload.prepare(work, args.seed)
        runner = OpRunner(root, work, workload, golden, env, configs)
        prep_errors = []
        for commands in workload.untimed_prep(work):
            result = runner.spawn([commands], trace=False)
            if result.get("error") or any(result.get("exit_codes", [1])):
                prep_errors.append(f"untimed preparation failed: {result}")

        ops = [runner.op(trace=False)]  # warm-up: checked, not timed
        warm_wall = ops[0].get("wall_s", 1.0)
        timed, walls = [], []
        min_ops = 4 if args.trace else 1
        start = time.perf_counter()
        while len(timed) < min_ops or (
            time.perf_counter() - start + _median(walls) <= args.seconds
        ):
            trace = bool(args.trace) and len(timed) % 2 == 1
            result = runner.op(trace)
            result["traced"] = trace
            timed.append(result)
            walls.append(result.get("wall_s", warm_wall))
        ops.extend(timed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not any("op_s" in r for r in timed):
        print("perfbench: no op ran to completion:", file=sys.stderr)
        for r in ops[:5]:
            print(f"  {r['errors']}", file=sys.stderr)
        return 1
    e2e, report, notes = end_to_end([r for r in timed if not r["traced"]])
    failed = sum(1 for r in ops if r["errors"]) + len(prep_errors)
    errors = prep_errors + [e for r in ops for e in r["errors"]]
    if args.trace:
        layer, layer_report, trace_errors = per_layer(
            [r for r in timed if r["traced"]], [r for r in timed if not r["traced"]])
        errors += trace_errors
        report.update(layer_report)
        metrics = layer
    else:
        trace_errors = []
        metrics = e2e

    env_record = environment(root, env)
    print(f"perfbench {tag}: {len(ops)} ops ({len(timed)} timed), "
          f"{failed} failed, {time.perf_counter() - start:.1f} s")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, entry in report.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {entry['value']:.6g} {entry['unit']}{note}")
    for error in errors[:10]:
        print(f"  error: {error}")

    results_dir = root / "perfbench" / "out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    traced = [r for r in timed if r["traced"] and "trace" in r]
    if traced:
        # spans of the last traced op: [function, parent index, start, end]
        (results_dir / f"{tag}-spans.json").write_text(json.dumps(traced[-1]["trace"]["spans"]))
    (results_dir / f"{tag}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record, "report": report, "notes": notes,
        "errors": errors[:100],
        "ops": [{k: v for k, v in r.items() if k != "trace"} for r in ops],
    }, indent=1))

    print(json.dumps({
        "correct": failed == 0 and not trace_errors,
        "attempted": len(ops) + len(prep_errors),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
