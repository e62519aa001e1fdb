"""Write goldens.json: each workload's op outputs at the default seed.

Usage, from the root of a qitekit checkout:  python3 perfbench/make_goldens.py

Run it only on a commit whose outputs are trusted; ``run.py`` fails every
op at the default seed whose outputs drift from these by more than
``workloads.GOLDEN_TOL``.
"""

import json
import shutil
import sys
from pathlib import Path

import workloads
from run import OpRunner, child_env


def main() -> int:
    root = Path.cwd()
    goldens = {}
    for name, workload in workloads.WORKLOADS.items():
        work = root / "perfbench" / "out" / f"goldens-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        configs = workload.prepare(work, workloads.DEFAULT_SEED)
        runner = OpRunner(root, work, workload, None, child_env(root), configs)
        for commands in workload.untimed_prep(work):
            runner.spawn([commands], trace=False)
        result = runner.op(trace=False)
        if result["errors"]:
            print(f"{name}: {result['errors']}", file=sys.stderr)
            return 1
        goldens[name] = workload.collect(work / "op")
        shutil.rmtree(work)
        print(f"{name}: {', '.join(f'{k}[{len(v)}]' for k, v in goldens[name].items())}")
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
