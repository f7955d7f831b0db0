"""dyadlab benchmark: fixed experiment configs through `dyadlab.cli.run`.

    python3 bench/run.py --workload canonical --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  The client (this process) starts
fresh worker processes (bench/worker.py) with BLAS and OpenMP pinned to
one thread, and drives them in a closed loop: it sends one config, waits
for the run to finish, then sends the next.  Times are taken here, from
outside the package.

--trace 0 reports the end-to-end metrics:
  setup_s      spawn of a worker until numpy and dyadlab.cli are imported
               and every config's weights and symbols are sampled; the
               median over SETUP_SPAWNS workers
  wall_s       one pass over the workload's configs (the sum of their run
               times; output checks are not timed), median over passes
  peak_rss_mb  peak RSS of the worker that ran the passes
The time of each experiment in a pass (run.<experiment>_s, summed over its
configs) is printed and written to result.json beside them.
--trace 1 alternates untraced and traced passes and reports the per-layer
self times and counts of bench/tracer.py, plus the tracing overhead.

Every run must exit 0.  At the recorded seed its outputs must also agree
with bench/reference/<workload>.json.gz.  A run that fails either check
counts in `failed`.  The last line of stdout is the JSON result; the
lines before it give each metric's median, quartiles and sample count
and the environment, which is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_SPAWNS = 7
REPLY_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = [
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class WorkerError(RuntimeError):
    """The worker died, timed out or could not start."""


class Worker:
    """One worker process and its request/reply pipe."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # One thread: the steadiest timing, and never above nproc.
        env.update({var: "1" for var in THREAD_VARS})
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
            text=True, bufsize=1,
        )
        ready = self.receive()
        self.setup_s = time.perf_counter() - started
        if not ready.get("ready"):
            self.close()
            raise WorkerError(f"worker did not start: {ready}")
        self.env = ready["env"]

    def receive(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.close()
            raise WorkerError("worker exited or timed out without replying")
        return json.loads(line)

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def exit(self) -> dict:
        reply = self.request(op="exit")
        self.close()
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_pass(worker: Worker, configs: list) -> tuple:
    """Run every config once, in order; (wall, per-config times, replies)."""
    times, replies = [], []
    for index in range(len(configs)):
        t0 = time.perf_counter()
        replies.append(worker.request(op="run", index=index))
        times.append(time.perf_counter() - t0)
    return sum(times), times, replies


def check_pass(configs, replies, out_dir: Path, reference) -> list:
    """One problem string per failed run of the pass (empty when all passed)."""
    problems = []
    for (name, _cfg), reply in zip(configs, replies):
        rc = reply["rc"]
        if rc != 0:
            problems.append(f"{name}: exit {rc}: {reply['error'].strip()}")
            continue
        if reference is not None:
            diff = compare.compare(reference[name], compare.read_output(out_dir / name, rc))
            if diff:
                problems.append(f"{name}: differs from reference: {'; '.join(diff[:3])}")
    return problems


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def source_id() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def measure(args, configs, out_dir, reference) -> dict:
    """Set-up spawns, then timed passes until --seconds is used up.

    A pass starts only while it is expected (from the last pass's length)
    to end before the deadline, so a run never takes much more than
    --seconds plus set-up.
    """
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        worker = Worker(args.workload, args.seed, out_dir)
        setups.append(worker.setup_s)
        worker.exit()
    worker = Worker(args.workload, args.seed, out_dir)
    setups.append(worker.setup_s)
    passes, stats, problems, attempted = [], [], [], 0
    try:
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while (not passes or (args.trace and len(passes) < 2)
               or time.perf_counter() + last <= deadline):
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                worker.request(op="trace", on=True)
            wall, times, replies = run_pass(worker, configs)
            if traced:
                worker.request(op="trace", on=False)
                stats.append(worker.request(op="stats")["stats"])
            passes.append((traced, wall, times))
            last = wall
            attempted += len(configs)
            problems.extend(check_pass(configs, replies, out_dir, reference))
        rss_kb = worker.exit()["maxrss_kb"]
    finally:
        worker.close()
    return {"setups": setups, "passes": passes, "stats": stats,
            "problems": problems, "attempted": attempted, "rss_kb": rss_kb,
            "env": worker.env}


def end_to_end(m) -> dict:
    """Samples of every end-to-end metric, as measured."""
    return {"wall_s": [wall for traced, wall, _ in m["passes"] if not traced],
            "setup_s": m["setups"],
            "peak_rss_mb": [m["rss_kb"] / 1024.0]}


def per_experiment(m, configs) -> dict:
    """Samples of run.<experiment>_s: an experiment's time in each untraced pass."""
    samples = {}
    for traced, _wall, times in m["passes"]:
        if traced:
            continue
        pass_s = {}
        for (_name, cfg), t in zip(configs, times):
            key = f"run.{cfg['experiment']}_s"
            pass_s[key] = pass_s.get(key, 0.0) + t
        for key, t in pass_s.items():
            samples.setdefault(key, []).append(t)
    return samples


def summarize(samples: dict, units: dict) -> dict:
    """Median, quartiles and sample count of each metric, printed one per line."""
    summary = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                         "unit": units[name]}
        print(f"{name:44s} {med:12.6g} {units[name]:6s} "
              f"q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    return summary


def per_layer(m) -> dict:
    """Samples of every per-layer metric, one per traced pass."""
    untraced = [w for traced, w, _ in m["passes"] if not traced]
    traced = [w for t, w, _ in m["passes"] if t]
    values = [tracer.layer_metrics(s, wall) for s, wall in zip(m["stats"], traced)]
    samples = {name: [v[name] for v in values] for name, _unit in tracer.LAYER_METRICS}
    samples["trace.untraced_wall_s"] = untraced
    samples["trace.traced_wall_s"] = traced
    samples["trace.overhead_ratio"] = [
        statistics.median(traced) / statistics.median(untraced) - 1.0]
    return samples


def span_self_s(m) -> dict:
    """Median self seconds per traced pass of every span name that ran."""
    names = sorted({key for s in m["stats"] for key in s if key.endswith(".self_s")})
    return {name: statistics.median(s.get(name, 0.0) for s in m["stats"]) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dyadlab" / "cli.py").is_file():
        print(f"no dyadlab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    configs = workloads.configs(args.workload, args.seed)
    reference = None
    if args.seed == workloads.RECORDED_SEED:
        reference = compare.load_reference(args.workload)
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    try:
        m = measure(args, configs, out_dir, reference)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        samples = per_layer(m)
        units = dict(tracer.LAYER_METRICS + TRACE_METRICS)
    else:
        samples = end_to_end(m)
        units = END_TO_END_UNITS
    summary = summarize(samples, units)
    experiments = per_experiment(m, configs)
    experiment_summary = summarize(experiments, dict.fromkeys(experiments, "s"))
    for problem in m["problems"]:
        print(f"FAILED {problem}")
    env = {**m["env"], **source_id(), "thread_vars": 1}
    print("env " + json.dumps(env, sort_keys=True))

    failed = len(m["problems"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": m["attempted"],
              "failed": failed, "metrics": summary, "experiments": experiment_summary}
    if args.trace:
        record["span_self_s"] = span_self_s(m)
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
