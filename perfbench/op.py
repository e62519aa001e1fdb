"""One benchmark op: a fresh process that runs ``qitekit.cli.main`` calls.

Usage: python3 perfbench/op.py JOB.json T_SPAWN

JOB.json names the configs to load during set-up, the CLI argument lists to
run, whether to trace, and where to write the result.  T_SPAWN is the
parent's ``time.perf_counter()`` just before it started this process; on
Linux that clock is system-wide, so set-up time counts interpreter start-up.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    t_spawn = float(sys.argv[2])

    import qitekit.cli

    for path in job["configs"]:
        qitekit.cli.load_config(Path(path))
    setup_s = time.perf_counter() - t_spawn

    tracer = None
    if job["trace"]:
        from tracing import NameCheckError, Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except NameCheckError as exc:
            Path(job["result"]).write_text(json.dumps({"name_error": str(exc)}))
            return 3

    codes = []
    start = time.perf_counter()
    for argv in job["commands"]:
        codes.append(qitekit.cli.main(argv))
        if codes[-1] != 0:
            break
    op_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = dict(tracer.summary(), spans=tracer.spans)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
