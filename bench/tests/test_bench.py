"""Checks of the benchmark's own parts: tracer, comparator, workloads, client.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run
import tracer
import workloads
from dyadlab import cli, normest, operators, weights
from dyadlab.lattice import LatticeDomain, sample_symbol
from dyadlab.weights import make_weight

ROOT = Path(__file__).resolve().parents[2]


def _function_bindings() -> dict:
    """(module name, attribute) -> object for every function in a dyadlab namespace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dyadlab" or name.startswith("dyadlab.")):
            continue
        for attr, value in vars(mod).items():
            if callable(value) and not isinstance(value, type):
                out[(name, attr)] = value
    return out


EXPERIMENTS = sorted({row[0] for rows in workloads.WORKLOADS.values() for row in rows})


def _small_config(experiment: str) -> dict:
    """The experiment's first benchmark config, shrunk to d = 1, m = 8."""
    cfg = next(cfg for workload in workloads.WORKLOADS
               for _name, cfg in workloads.configs(workload, 5)
               if cfg["experiment"] == experiment)
    cfg = copy.deepcopy(cfg)
    cfg["domain"] = {"d": 1, "m": 8, "L": 1.0}
    return cfg


def test_tracer_catches_from_imported_calls_and_restores_every_original():
    before = _function_bindings()
    dom = LatticeDomain(d=1, m=6, L=1.0)
    mu = make_weight(dom, {"kind": "power", "beta": 0.3})
    b = sample_symbol(dom, [{"kind": "log_abs"}])
    op = operators.assemble(operators.make_kernel("hilbert"), dom)
    with tracer.Tracer() as t:
        # `cli` and `normest` hold these through `from dyadlab.x import y`.
        assert cli.apq_characteristic is not before[("dyadlab.weights", "apq_characteristic")]
        cli.apq_characteristic(mu, mu, 2.0, 2.0)
        normest.commutator_matrix(b, op)
    assert t.calls["weights.apq_characteristic"] == 1
    assert t.counts["weights.apq_characteristic.cubes"] == 2**7 - 1
    assert t.calls["operators.commutator_matrix"] == 1
    assert t.counts["operators.dense_bytes"] == 64 * 64 * 8
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert weights.apq_characteristic is before[("dyadlab.weights", "apq_characteristic")]


def test_tracer_names_the_norm_path_and_counts_refused_probes(tmp_path):
    with tracer.Tracer() as t:
        for exp in ("commutator-sweep", "compactness-profile"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(_small_config(exp), out_dir=tmp_path / exp) == 0
    snap = t.snapshot()
    assert snap["normest.opnorm_estimate.svd.calls"] == 2
    assert snap["normest.opnorm_estimate.ascent.calls"] > 0
    assert snap["normest.opnorm_estimate.ascent.iterations"] >= snap[
        "normest.opnorm_estimate.ascent.calls"]
    probes = snap["normest.awf_lower_probe.calls"]
    refused = snap.get("normest.awf_lower_probe.refused", 0)
    assert snap["normest.awf_lower_probe.accept_ratio"] == (probes - refused) / probes


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_span_self_times_sum_to_at_most_the_run_wall_time(tmp_path, experiment):
    cfg = _small_config(experiment)
    with tracer.Tracer() as t:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(cfg, out_dir=tmp_path / "out")
        wall = time.perf_counter() - start
    assert rc == 0
    self_times = list(t.self_s.values())
    assert all(s >= 0.0 for s in self_times)
    # Nested spans counted in full would exceed the wall time.
    assert t.calls["cli.run"] == 1
    assert sum(self_times) <= wall
    root = [s for s in t.spans if s[2] == "cli.run"][0]
    assert sum(self_times) == pytest.approx(root[4] - root[3], rel=1e-9)


def test_layer_metrics_report_self_time_as_a_share_of_the_pass():
    values = tracer.layer_metrics({"cli.run.self_s": 0.5, "lattice.sample_symbol.calls": 3}, 2.0)
    assert set(values) == {name for name, _unit in tracer.LAYER_METRICS}
    assert values["cli.run.self_share"] == 0.25
    assert values["lattice.sample_symbol.calls"] == 3
    assert values["normest.opnorm_estimate.svd.self_share"] == 0.0


def _output():
    return {
        "rc": 0,
        "tables": {"t.csv": [["symbol", "value", "ok"], ["log", "1.2345678901234567", "True"]]},
        "headline": {"bmo_log": 0.5},
    }


def test_comparator_accepts_equal_and_last_digit_noise():
    assert compare.compare(_output(), _output()) == []
    noisy = _output()
    noisy["tables"]["t.csv"][1][1] = repr(1.2345678901234567 * (1 + 1e-15))
    assert compare.compare(_output(), noisy) == []


def test_comparator_flags_a_relative_1e6_perturbation_and_a_nonzero_exit():
    cell = _output()
    cell["tables"]["t.csv"][1][1] = repr(1.2345678901234567 * (1 + 1e-6))
    assert compare.compare(_output(), cell)
    head = _output()
    head["headline"]["bmo_log"] = 0.5 * (1 + 1e-6)
    assert compare.compare(_output(), head)
    text = _output()
    text["tables"]["t.csv"][1][2] = "False"
    assert compare.compare(_output(), text)
    failed = _output()
    failed["rc"] = 1
    assert compare.compare(_output(), failed)
    assert not compare.cells_agree("inf", "1e308")


def test_check_pass_counts_a_nonzero_exit_as_failed(tmp_path):
    configs = workloads.configs("dense", 3)[:2]
    replies = [{"rc": 0, "error": ""}, {"rc": 1, "error": "first failure: x"}]
    problems = run.check_pass(configs, replies, tmp_path, None)
    assert len(problems) == 1 and configs[1][0] in problems[0]


def test_experiment_times_sum_an_experiments_configs_over_untraced_passes():
    configs = workloads.configs("dense", 3)
    m = {"passes": [(False, 6.0, [1.0, 2.0, 3.5]), (True, 9.0, [2.0, 3.0, 4.0])]}
    assert run.per_experiment(m, configs) == {
        "run.commutator-sweep_s": [3.0], "run.compactness-profile_s": [3.5]}


def test_recorded_output_matches_reference_and_a_perturbed_cell_does_not(tmp_path):
    ref = compare.load_reference("canonical")
    name, cfg = workloads.configs("canonical", workloads.RECORDED_SEED)[0]
    assert cfg["experiment"] == "weights-check"
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(cfg, out_dir=out)
    assert run.check_pass([(name, cfg)], [{"rc": rc, "error": ""}], tmp_path, ref) == []
    path = out / "weights.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = run.check_pass([(name, cfg)], [{"rc": rc, "error": ""}], tmp_path, ref)
    assert len(problems) == 1 and "differs from reference" in problems[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_configs_other_seed_changes_lambda_and_random_symbols(workload):
    assert workloads.configs(workload, 7) == workloads.configs(workload, 7)
    first, second = workloads.configs(workload, 7), workloads.configs(workload, 8)
    assert [n for n, _ in first] == [n for n, _ in second]
    for (_n, a), (_m, b) in zip(first, second):
        assert a["weights"]["lambda"] != b["weights"]["lambda"]
        assert a["weights"]["mu"] == b["weights"]["mu"]
        if a["experiment"] == "sparse-dominate":
            assert set(a["seeds"]).isdisjoint(b["seeds"])
        a = {k: v for k, v in a.items() if k not in ("weights", "seeds")}
        b = {k: v for k, v in b.items() if k not in ("weights", "seeds")}
        assert a == b


def test_benchmark_json_matches_the_metrics_the_client_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == tracer.LAYER_METRICS + run.TRACE_METRICS
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS


def test_client_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stopping", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
