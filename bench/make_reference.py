"""Regenerate bench/reference/<workload>.json.gz at the recorded seed.

    python3 bench/make_reference.py [workload ...]

Runs one pass of each workload through the same worker as run.py and
stores every config's exit code, CSV tables and summary headline.  Only
regenerate references from a commit whose outputs are known good; the
committed files come from the seed commit of the benchmark.
"""

from __future__ import annotations

import shutil
import sys

import compare
import run
import workloads


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    seed = workloads.RECORDED_SEED
    for workload in names:
        configs = workloads.configs(workload, seed)
        out_dir = run.BENCH / "out" / f"reference-{workload}"
        shutil.rmtree(out_dir, ignore_errors=True)
        worker = run.Worker(workload, seed, out_dir)
        try:
            _wall, _times, replies = run.run_pass(worker, configs)
            worker.exit()
        finally:
            worker.close()
        outputs = {name: compare.read_output(out_dir / name, reply["rc"])
                   for (name, _cfg), reply in zip(configs, replies)}
        path = compare.save_reference(workload, outputs)
        codes = {name: out["rc"] for name, out in outputs.items()}
        print(f"{path}: exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
