"""One census cell, traced, in a fresh process.

Usage: python3 perfbench/census_cell.py SPEC_JSON

SPEC is {"cli": [argv...]} for a ``qitekit.cli.main`` call, or a library call:
{"call": "qite_evolve", "n": N, "domain": D, "pool": KIND, "sweeps": S} runs
QITE on the Heisenberg chain from the Neel state, and {"call": "spectral",
"n": N} builds and diagonalizes the dense Heisenberg chain.  Prints one JSON
line with wall time, peak RSS, exit code and self seconds per module.
"""

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    import qitekit.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = 0
    start = time.perf_counter()
    if "cli" in spec:
        code = qitekit.cli.main(spec["cli"])
    elif spec["call"] == "qite_evolve":
        n = spec["n"]
        config = qitekit.qite.QiteConfig(
            dtau=0.1, n_steps=spec["sweeps"], domain_size=spec["domain"], pool_kind=spec["pool"])
        qitekit.qite.qite_evolve(
            qitekit.statevector.neel_state(n), qitekit.hamiltonians.heisenberg_1d(n), config)
    else:
        qitekit.analysis.spectral(qitekit.hamiltonians.heisenberg_1d(spec["n"]))
    wall = time.perf_counter() - start
    summary = tracer.summary()
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": code,
        "self_s": {m: s for m, s in summary["self_s"].items() if s > 0},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
