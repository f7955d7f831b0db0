"""Benchmark worker: one fresh process serving experiment runs to run.py.

Started by run.py with `src` on PYTHONPATH and BLAS pinned to one thread.
It imports numpy and `dyadlab.cli`, samples every config's mu, lambda and
symbols through the public `weights.make_weight` / `lattice.sample_symbol`
(the set-up every `dyadlab run` pays), then writes a ready line and
answers one JSON request per line on stdin:

  {"op": "run", "index": i}  run config i through `cli.run`
  {"op": "trace", "on": b}   install or remove the tracer
  {"op": "stats"}            per-layer values since the last stats request
  {"op": "exit"}             report peak RSS, write the spans, exit

Replies go to the original stdout; what `cli.run` prints goes to
/dev/null and its stderr is returned with the reply.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

import workloads


def blas_info() -> dict:
    """Name, version and thread count of the BLAS numpy is linked to."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def set_up(configs: list) -> None:
    from dyadlab.lattice import LatticeDomain, sample_symbol
    from dyadlab.weights import make_weight

    for _name, cfg in configs:
        dom = LatticeDomain(**cfg["domain"])
        make_weight(dom, cfg["weights"]["mu"])
        make_weight(dom, cfg["weights"]["lambda"])
        for sym in cfg["symbols"]:
            sample_symbol(dom, sym["terms"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    def reply(obj) -> None:
        proto.write(json.dumps(obj) + "\n")

    import numpy as np

    from dyadlab import cli

    configs = workloads.configs(args.workload, args.seed)
    set_up(configs)
    reply({"ready": True, "env": {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }})

    out = Path(args.out)
    tracer = None
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "run":
            name, cfg = configs[req["index"]]
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    rc = cli.run(cfg, out_dir=out / name)
            except Exception:  # reported as a failed run, the worker goes on
                reply({"rc": None, "error": traceback.format_exc()})
                continue
            reply({"rc": rc, "error": err.getvalue()[-2000:]})
        elif op == "trace":
            if req["on"]:
                if tracer is None:
                    from tracer import Tracer
                    tracer = Tracer()
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
            reply({"ok": True})
        elif op == "stats":
            snap = tracer.snapshot() if tracer is not None else {}
            if tracer is not None:
                tracer.reset()
            reply({"stats": snap})
        elif op == "exit":
            if tracer is not None:
                tracer.uninstall()
                (out / "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
            reply({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        else:
            reply({"error": f"unknown op {op!r}"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
