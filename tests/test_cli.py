"""Config parsing, exit codes, determinism, and sweep plumbing."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyadlab import cli


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def log_symbols():
    return [{"id": "log", "terms": [{"kind": "log_abs"}]}]


# -- config errors (exit 2) ----------------------------------------------------


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.run(str(path), out_dir=tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert cli.run(str(tmp_path / "absent.json"), out_dir=tmp_path) == 2


@pytest.mark.parametrize(
    "cfg",
    [
        {"experiment": "frobnicate"},
        {"experiment": "bmo-compute"},  # needs symbols
        {"experiment": "bmo-compute", "symbols": [{"id": "x", "terms": [{"kind": "coordinate"}]}],
         "exponents": {"p": 3.0, "q": 2.0}},
        {"experiment": "weights-check", "weights": {"mu": {"kind": "mystery"}}},
        {"experiment": "weights-check", "typo_key": 1},
        {"experiment": "commutator-sweep", "symbols": [{"id": "x", "terms": [{"kind": "coordinate"}]}]},
        {"experiment": "bmo-compute", "symbols": [{"id": "x", "terms": [{"kind": "coordinate"}]}],
         "seeds": "zero"},
        {"experiment": "weights-check", "schema": 99},
        {"experiment": "vmo-witness", "domain": 36},
        {"experiment": "weights-check", "exponents": [None]},
        {"experiment": "bmo-compute", "symbols": 10},
        {"experiment": "compactness-profile", "domain": {"d": 1, "m": 5},
         "kernel": {"variant": "hilbert"}, "symbols": log_symbols(),
         "params": {"eps_list": []}},
        {"experiment": "commutator-sweep", "kernel": {"variant": "hilbert"},
         "symbols": log_symbols(), "params": {"budget": [2]}},
        {"experiment": "bmo-compute", "symbols": log_symbols(), "params": {"r": 0.0}},
        {"experiment": "bmo-compute", "symbols": log_symbols(), "params": {"r": 0.5}},
        {"experiment": "vmo-witness", "domain": {"d": 1, "m": 4}, "symbols": log_symbols(),
         "params": {"r": 0.0}},
        {"experiment": "vmo-witness", "domain": {"d": 1, "m": 4}, "symbols": log_symbols(),
         "params": {"theta": 0.0}},
        {"experiment": "vmo-witness", "domain": {"d": 1, "m": 4}, "symbols": log_symbols(),
         "params": {"theta": 5e-324}},
        {"experiment": "bmo-compute",
         "symbols": [{"id": "c", "terms": [{"kind": "constant", "coefficient": []}]}]},
    ],
)
def test_bad_configs_exit_2(tmp_path, cfg):
    assert cli.run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 2


def test_non_finite_numbers_exit_2_naming_the_key(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"experiment": "weights-check", "domain": {"d": 1, "m": 6},'
        ' "weights": {"mu": {"kind": "logsmooth", "amplitude": NaN}}}',
        encoding="utf-8",
    )
    assert cli.run(str(path), out_dir=tmp_path / "out") == 2
    assert "weights.mu.amplitude" in capsys.readouterr().err
    cfg = {"experiment": "bmo-compute", "domain": {"d": 1, "m": 6},
           "symbols": [{"id": "x", "terms": [{"kind": "abs_power",
                                              "exponent": float("-inf")}]}]}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    assert "symbols[0].terms[0].exponent" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["weights-check", "bloom-verify"])
def test_overflowing_weight_spec_exits_2(tmp_path, capsys, experiment):
    cfg = {
        "experiment": experiment,
        "domain": {"d": 1, "m": 8},
        "weights": {"mu": {"kind": "logsmooth", "amplitude": 2000.0}},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    assert "bad weight spec" in capsys.readouterr().err


def test_logsmooth_amplitude_past_the_draw_range_exits_2(tmp_path, capsys):
    cfg = {"experiment": "weights-check", "domain": {"d": 1, "m": 4},
           "weights": {"mu": {"kind": "logsmooth", "amplitude": 1e308}}}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "bad weight spec weights.mu" in err and "logsmooth[0]" in err


@pytest.mark.parametrize("center", [[0.1, 0.2, 0.3], [0.1]])
def test_bump_center_of_another_length_than_d_exits_2(tmp_path, capsys, center):
    cfg = {"experiment": "bmo-compute", "domain": {"d": 2, "m": 4},
           "symbols": [{"id": "b", "terms": [{"kind": "bump", "center": center}]}]}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    assert "symbols[0]" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["weights-check", "bmo-compute"])
def test_underflowing_weight_spec_exits_2(tmp_path, capsys, experiment):
    # |x|^200 is below the smallest double near the origin at d = 2, m = 7
    cfg = {"experiment": experiment, "domain": {"d": 2, "m": 7}, "symbols": log_symbols(),
           "weights": {"lambda": {"kind": "power", "beta": 200.0}}}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "bad weight spec weights.lambda" in err and "power[200]" in err


@pytest.mark.parametrize("experiment, modes, status", [
    ("bmo-compute", -1, 2), ("bmo-compute", 0, 0), ("bmo-compute", 2**5, 0),
    ("bmo-compute", 2**5 + 1, 2),
    # the membership surrogate resamples at m - 1: refused when the config is read
    ("weights-check", 2**4, 0), ("weights-check", 2**4 + 1, 2), ("weights-check", 2**5, 2),
    ("bloom-verify", 2**4, 0), ("bloom-verify", 2**5, 2),
])
def test_logsmooth_modes_outside_zero_to_cells_per_axis_exit_2(tmp_path, capsys, experiment,
                                                                  modes, status):
    cfg = {"experiment": experiment, "domain": {"d": 1, "m": 5}, "symbols": log_symbols(),
           "weights": {"lambda": {"kind": "logsmooth", "modes": modes}}}
    if experiment != "bmo-compute":
        del cfg["symbols"]
    assert cli.run(cfg, out_dir=tmp_path / "out") == status
    err = capsys.readouterr().err
    if experiment == "bmo-compute":
        assert ("logsmooth modes must be in [0, 2^m]" in err) == bool(status)
        if status:
            assert "weights.lambda: logsmooth modes" in err
    else:
        named = "weights.lambda.modes" in err and "<= 2^(m-1) = 16 at m = 5" in err
        assert named == bool(status)


_INTEGER_PARAM_BASES = {
    "commutator-sweep": {"domain": {"d": 1, "m": 5}, "kernel": {"variant": "hilbert"}},
    "compactness-profile": {"domain": {"d": 1, "m": 5}, "kernel": {"variant": "hilbert"},
                            "params": {"eps_list": [0.5, 0.25]}},
    "vmo-witness": {"domain": {"d": 1, "m": 4}},
}


@pytest.mark.parametrize("experiment, key, value", [
    ("commutator-sweep", "budget", 2.7),
    ("commutator-sweep", "budget", True),
    ("commutator-sweep", "budget", "3"),
    ("commutator-sweep", "budget", 0),
    ("compactness-profile", "budget", 2.0),
    ("compactness-profile", "budget", -1),
    ("commutator-sweep", "probe_generation", 2.5),
    ("commutator-sweep", "probe_generation", False),
    ("commutator-sweep", "probe_generation", "3"),
    ("commutator-sweep", "probe_generation", -1),
    ("commutator-sweep", "probe_generation", 6),
    ("vmo-witness", "min_pairs", 1.5),
    ("vmo-witness", "min_pairs", True),
    ("vmo-witness", "min_pairs", "2"),
    ("vmo-witness", "min_pairs", 0),
    ("vmo-witness", "min_pairs", -1),
])
def test_integer_params_take_only_json_integers(tmp_path, capsys, experiment, key, value):
    cfg = copy.deepcopy(_INTEGER_PARAM_BASES[experiment])
    cfg.update(experiment=experiment, symbols=log_symbols())
    cfg.setdefault("params", {})[key] = value
    assert cli.run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert f"params.{key}" in capsys.readouterr().err


def _typed_case(path, value):
    """A config that runs with `value` at the dotted `path` taken from a
    valid one: bmo-compute at d=1 (a Riesz kernel moves it to d=2)."""
    cfg = {"experiment": "bmo-compute", "domain": {"d": 1, "m": 5},
           "weights": {"mu": {"kind": "power", "beta": 0.3},
                       "lambda": {"kind": "logsmooth", "modes": 3, "seed": 0}},
           "symbols": [{"id": "x", "terms": [{"kind": "abs_power", "exponent": 0.5}]}]}
    if path.startswith("kernel"):
        cfg["domain"]["d"], cfg["kernel"] = 2, {"variant": "riesz", "j": 1}
    if path.endswith("axis"):
        cfg["symbols"][0]["terms"][0] = {"kind": "coordinate"}
    node, keys = cfg, path.replace("[", ".").replace("]", "").split(".")
    for key in keys[:-1]:
        node = node[int(key)] if key.isdigit() else node.setdefault(key, {})
    node[keys[-1]] = value
    return cfg


@pytest.mark.parametrize("path, value, kind", [
    ("domain.m", 6.9, None),
    ("domain.m", "6", None),
    ("domain.d", True, None),
    ("exponents.p", "2", None),
    ("weights.mu.beta", "0.3", None),
    ("weights.lambda.modes", 2.7, None),
    ("weights.lambda.seed", 1.9, None),
    ("weights.mu.betta", 0.3, None),  # a misspelled key
    ("weights.mu.beta", 0.3, "unit"),  # a key the kind does not take
    ("kernel.j", True, None),
    ("params.r", "1", None),
    ("params.rr", 2.0, None),  # a key bmo-compute does not read
    ("symbols[0].terms[0].exponent", "0.5", None),
    ("symbols[0].terms[0].axis", 0.7, None),
    ("symbols[0].terms[0].exponent", 0.5, "log_abs"),
    ("symbols[0].id", 1, None),
    ("symbols[0].temrs", [], None),  # a misspelled key beside terms
])
def test_config_values_are_read_typed_and_refused_naming_the_key(tmp_path, capsys, path,
                                                                  value, kind):
    cfg = _typed_case(path, value)
    if kind is not None:  # the kind of the mapping that holds the key
        node = cfg["weights"]["mu"] if kind == "unit" else cfg["symbols"][0]["terms"][0]
        node["kind"] = kind
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    assert path in capsys.readouterr().err


def test_kernel_dimension_mismatch_exits_2(tmp_path, capsys):
    # j > d, and hilbert off d = 1 (it is riesz j = 1 at d = 1)
    for d, kernel in ((1, {"variant": "riesz", "j": 2}), (2, {"variant": "riesz", "j": 3}),
                      (2, {"variant": "hilbert"})):
        cfg = {
            "experiment": "commutator-sweep",
            "domain": {"d": d, "m": 4},
            "kernel": kernel,
            "symbols": log_symbols(),
        }
        assert cli.run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 2
        assert "config error: kernel: " in capsys.readouterr().err


# -- single runs ---------------------------------------------------------------


def test_bloom_verify_unit_weights_all_ratios_one(tmp_path):
    cfg = {
        "experiment": "bloom-verify",
        "domain": {"d": 1, "m": 7},
        "weights": {"mu": {"kind": "unit"}, "lambda": {"kind": "unit"}},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    _, rows = read_csv(out / "sandwich_cubes.csv")
    assert rows and all(float(r[2]) == 1.0 for r in rows)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["hard_failed"] == 0
    assert {a["name"] for a in summary["assertions"]} == {
        "sandwich-holds", "intermediate-ainfty"
    }


@pytest.mark.parametrize("d, m", [(1, 6), (2, 4)])
def test_sandwich_cubes_csv_round_trips(tmp_path, d, m):
    cfg = {
        "experiment": "bloom-verify",
        "domain": {"d": d, "m": m},
        "exponents": {"p": 2.0, "q": 4.0},
        "weights": {"mu": {"kind": "power", "beta": 0.3},
                    "lambda": {"kind": "logsmooth", "amplitude": 0.6, "seed": 2}},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    header, rows = read_csv(out / "sandwich_cubes.csv")
    ctx = cli._build_context(cfg)
    rep = cli.bloom_sandwich_report(ctx.mu, ctx.lam, ctx.setup)
    assert header == ["generation", "index", "ratio"]
    cubes = cli.dyadic.canonical_keys(ctx.domain)
    assert len(rows) == len(cubes) == sum(2 ** (d * j) for j in range(m + 1))
    keys = [[int(r[0]), *map(int, r[1].split("_"))] for r in rows]
    np.testing.assert_array_equal(np.array(keys), cubes)
    np.testing.assert_array_equal(np.array([float(r[2]) for r in rows]), rep.ratios)


def test_weights_check_divergence_is_flag_not_failure(tmp_path):
    cfg = {
        "experiment": "weights-check",
        "domain": {"d": 1, "m": 8},
        "exponents": {"p": 2.0, "q": 2.0},
        "weights": {"mu": {"kind": "power", "beta": -2.0}, "lambda": {"kind": "unit"}},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert "divergence:mu" in summary["flags"]
    header, rows = read_csv(out / "weights.csv")
    mu_row = dict(zip(header, rows[0]))
    assert mu_row["ok"] == "False"


def test_weights_check_clipped_characteristic_fails(tmp_path, capsys):
    # mu^{-p'} = |x|^{-202} at p = 1.01 is clipped at 1e300 near the origin.
    cfg = {
        "experiment": "weights-check",
        "domain": {"d": 1, "m": 8},
        "exponents": {"p": 1.01, "q": 2.0},
        "weights": {"mu": {"kind": "power", "beta": 2.0}, "lambda": {"kind": "unit"}},
    }
    assert cli.run(cfg, out_dir=tmp_path / "out") == 1
    assert "first failure: characteristics-finite" in capsys.readouterr().err


def test_dict_config_and_seed_override(tmp_path):
    cfg = {"experiment": "sparse-dominate", "domain": {"d": 1, "m": 7}, "seeds": [0, 1]}
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out, seed=5) == 0
    _, rows = read_csv(out / "sparse.csv")
    assert [r[0] for r in rows] == ["seed5"]
    assert "seeds" not in cfg or cfg["seeds"] == [0, 1]  # caller's dict untouched


@pytest.mark.parametrize("seed", [1.9, True, "3"])
def test_seed_override_takes_only_an_integer(tmp_path, capsys, seed):
    cfg = {"experiment": "sparse-dominate", "domain": {"d": 1, "m": 4}}
    assert cli.run(cfg, out_dir=tmp_path / "run", seed=seed) == 2
    assert capsys.readouterr().err.startswith("config error: seed: need an integer")
    cfg["sweep"] = {"axis": "m", "values": [4]}
    assert cli.sweep(cfg, out_dir=tmp_path / "sweep", seed=seed) == 2
    assert capsys.readouterr().err.startswith("config error: seed: need an integer")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("out", [5, 0, False, ["a"], {"dir": "a"}])
def test_out_that_is_not_a_string_exits_2_naming_it(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    cfg = {"experiment": "bmo-compute", "domain": {"d": 1, "m": 4}, "symbols": log_symbols(),
           "out": out}
    assert cli.run(cfg) == 2
    assert cli.run(cfg, out_dir=tmp_path / "given") == 2  # read even where out_dir wins
    assert cli.sweep(dict(cfg, sweep={"axis": "m", "values": [4]})) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("config error: out: ") for line in err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("out, run_dir, sweep_dir", [
    ({}, "runs/bmo-compute", "runs/sweep-bmo-compute"),
    ({"out": None}, "runs/bmo-compute", "runs/sweep-bmo-compute"),
    ({"out": ""}, "runs/bmo-compute", "runs/sweep-bmo-compute"),
    ({"out": "mine"}, "mine", "mine"),
])
def test_out_names_the_output_directory(tmp_path, monkeypatch, out, run_dir, sweep_dir):
    monkeypatch.chdir(tmp_path)
    cfg = {"experiment": "bmo-compute", "domain": {"d": 1, "m": 4}, "symbols": log_symbols(),
           **out}
    assert cli.run(cfg) == 0
    assert cli.sweep(dict(cfg, sweep={"axis": "m", "values": [4]})) == 0
    assert (tmp_path / run_dir / "bmo.csv").is_file()
    assert (tmp_path / sweep_dir / "sweep.csv").is_file()
    assert (tmp_path / sweep_dir / "m-4" / "bmo.csv").is_file()


def test_commutator_sweep_probe_below_norm(tmp_path):
    cfg = {
        "experiment": "commutator-sweep",
        "domain": {"d": 1, "m": 7},
        "kernel": {"variant": "hilbert"},
        "symbols": log_symbols(),
        "params": {"budget": 4},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    header, rows = read_csv(out / "commutator.csv")
    row = dict(zip(header, rows[0]))
    assert 0.0 < float(row["probe"]) <= float(row["norm"])


def test_compactness_profile_long_format(tmp_path):
    eps = [0.5, 0.25]
    cfg = {
        "experiment": "compactness-profile",
        "domain": {"d": 1, "m": 7},
        "kernel": {"variant": "hilbert"},
        "symbols": log_symbols(),
        "params": {"eps_list": eps, "k_list": [1, 2], "budget": 2},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    _, rows = read_csv(out / "tails.csv")
    assert [float(r[1]) for r in rows] == eps
    _, k_rows = read_csv(out / "sparse_tails.csv")
    assert [float(r[1]) for r in k_rows] == [1.0, 2.0]


def test_compactness_profile_of_a_constant_symbol_off_the_diagonal(tmp_path):
    # every star image vanishes: the tails are 0, not a config error
    cfg = {
        "experiment": "compactness-profile",
        "domain": {"d": 2, "m": 5},
        "exponents": {"p": 2.0, "q": 3.0},
        "kernel": {"variant": "riesz", "j": 1},
        "symbols": [{"id": "c", "terms": [{"kind": "constant"}]}],
        "params": {"eps_list": [0.5, 0.25], "budget": 2},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    _, k_rows = read_csv(out / "sparse_tails.csv")
    assert [float(r[2]) for r in k_rows] == [0.0] * 4


def test_commutator_sweep_flags_capped_ascent(tmp_path, monkeypatch):
    # two steps per restart: none of them settles
    monkeypatch.setattr(cli.normest, "opnorm_estimate",
                        functools.partial(cli.normest.opnorm_estimate, iterations=2))
    cfg = {
        "experiment": "commutator-sweep",
        "domain": {"d": 1, "m": 6},
        "exponents": {"p": 2.0, "q": 3.0},
        "kernel": {"variant": "hilbert"},
        "symbols": [{"id": "half", "terms": [{"kind": "abs_power", "exponent": 0.5}]}],
        "params": {"budget": 8},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert "ascent-cap:half" in summary["flags"]


def test_vmo_witness_dump_and_flags(tmp_path):
    cfg = {
        "experiment": "vmo-witness",
        "domain": {"d": 1, "m": 8},
        "symbols": log_symbols()
        + [{"id": "bump", "terms": [{"kind": "bump", "center": [0.0], "radius": 0.5}]}],
        "params": {"c0": 0.4},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    _, rows = read_csv(out / "witness.csv")
    status = {r[0]: r[1] for r in rows}
    assert status["log"] == "found"
    assert status["bump"] == "none"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert "no-witness:bump" in summary["flags"]
    assert (out / "profile.csv").exists() and (out / "distance.csv").exists()


def _vmo_config():
    return {
        "experiment": "vmo-witness",
        "domain": {"d": 1, "m": 8, "L": 1.0},
        "exponents": {"p": 2.0, "q": 4.0},
        "weights": {"mu": {"kind": "power", "beta": 0.3}, "lambda": {"kind": "unit"}},
        "symbols": log_symbols(),
    }


def test_vmo_witness_asserts_the_guaranteed_half_threshold(tmp_path):
    # vmo_witness guarantees osc(b; E) >= c0/2 only; here one pair sits
    # between c0/2 and c0 = 0.5, which the experiment must accept.
    out = tmp_path / "out"
    assert cli.run(_vmo_config(), out_dir=out) == 0
    _, rows = read_csv(out / "witness.csv")
    oscs = [float(r[6]) for r in rows if r[1] == "found"]
    assert 0.25 <= min(oscs) < 0.5


def test_vmo_witness_below_half_threshold_exits_1(tmp_path, monkeypatch, capsys):
    def weak_witness(b, *args, **kwargs):
        cube = cli.dyadic.cube(b.domain, 2, (1,))
        entries = [(cube, cube.flat_cells())]
        return cli.oscillation.WitnessFamily("small-scale", 0.5, entries, [0.2])

    monkeypatch.setattr(cli.oscillation, "vmo_witness", weak_witness)
    assert cli.run(_vmo_config(), out_dir=tmp_path / "out") == 1
    assert "first failure: witness-oscillation:log" in capsys.readouterr().err


def test_vmo_witness_builds_one_oscillation_family_per_symbol(tmp_path, monkeypatch):
    # the profile and the witness search read the same bmo_norm report
    calls = []
    build = cli.oscillation.bmo_norm
    monkeypatch.setattr(cli.oscillation, "bmo_norm", lambda *a: calls.append(a) or build(*a))
    cfg = _vmo_config()
    cfg["symbols"] += [{"id": "holder", "terms": [{"kind": "abs_power", "exponent": 0.25}]}]
    assert cli.run(cfg, out_dir=tmp_path / "out") == 0
    assert len(calls) == 2


@pytest.mark.parametrize("key,value", [("c0", 0.0), ("c0", -1.0), ("theta", 1.0),
                                       ("theta", 2.0), ("theta", 0.0)])
def test_vmo_witness_threshold_that_cannot_fail_is_config_error(tmp_path, capsys, key, value):
    cfg = _vmo_config()
    cfg["params"] = {key: value}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("k_list", [0, 2]), ("k_list", [-1]), ("k_list", ["2"]), ("k_list", [True]),
    ("eps_list", ["0.5"]),
])
def test_compactness_list_param_is_config_error_naming_the_key(tmp_path, monkeypatch, capsys,
                                                               key, value):
    calls = []
    monkeypatch.setattr(cli.normest, "compactness_profile", lambda *a, **k: calls.append(a))
    cfg = {
        "experiment": "compactness-profile",
        "domain": {"d": 1, "m": 6},
        "kernel": {"variant": "hilbert"},
        "symbols": log_symbols(),
        "params": {key: value},
    }
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    assert f"params.{key}" in capsys.readouterr().err
    assert calls == []  # refused before any ascent runs


def test_invalid_eps_list_is_config_error(tmp_path):
    # eps below the 4h resolution floor is a bad parameter combination.
    cfg = {
        "experiment": "compactness-profile",
        "domain": {"d": 1, "m": 6},
        "kernel": {"variant": "hilbert"},
        "symbols": log_symbols(),
        "params": {"eps_list": [0.5, 0.01]},
    }
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2


def drift_gkl(monkeypatch):
    """Make every GKL solve report a sigma that its witness misses by 1e-6."""
    true_top = cli.normest._gkl_top

    def drifting_top(*args):
        sigma, *rest = true_top(*args)
        return (sigma * (1.0 + 1e-6), *rest)

    monkeypatch.setattr(cli.normest, "_gkl_top", drifting_top)


def test_numerical_failure_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    drift_gkl(monkeypatch)
    cfg = {
        "experiment": "commutator-sweep",
        "domain": {"d": 1, "m": 6},
        "kernel": {"variant": "hilbert"},
        "symbols": log_symbols(),
    }
    assert cli.run(cfg, out_dir=tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "numerical error: witness ratio" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("d,m,L", [(2, 4, 1e-160), (1, 6, 1e-300), (2, 4, 3e153), (1, 4, 1e300)])
def test_jn_verify_mass_power_out_of_float_range_exits_3(tmp_path, capsys, d, m, L):
    # p = 2, q = 3 raise each family cube's mass to the power 4/3, which
    # leaves the floating-point range at these side lengths
    cfg = {
        "experiment": "jn-verify",
        "domain": {"d": d, "m": m, "L": L},
        "exponents": {"p": 2.0, "q": 3.0},
        "weights": {"mu": {"kind": "unit"}, "lambda": {"kind": "unit"}},
        "symbols": [{"id": "x", "terms": [{"kind": "coordinate"}]}],
    }
    with np.errstate(all="ignore"):
        assert cli.run(cfg, out_dir=tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "numerical error: mass power" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("experiment, m, L, quantity", [
    ("jn-verify", 4, 1e-160, "r-oscillation norm"),  # (|b - <b>|)^2 underflows
    ("bmo-compute", 4, 1e300, "osc_1"),  # the cube oscillations overflow
])
def test_range_failure_exits_3(tmp_path, capsys, experiment, m, L, quantity):
    cfg = {
        "experiment": experiment,
        "domain": {"d": 1, "m": m, "L": L},
        "exponents": {"p": 2.0, "q": 3.0},
        "weights": {"mu": {"kind": "unit"}, "lambda": {"kind": "unit"}},
        "symbols": [{"id": "x", "terms": [{"kind": "coordinate"}]}],
    }
    if experiment in ("commutator-sweep", "compactness-profile"):
        cfg["kernel"] = {"variant": "hilbert"}
    with np.errstate(all="ignore"):
        assert cli.run(cfg, out_dir=tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert f"numerical error: {quantity}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("experiment, m, table", [
    ("commutator-sweep", 6, "commutator"), ("compactness-profile", 8, "tails")])
def test_tiny_lattice_norms_are_reported(tmp_path, experiment, m, table):
    # at L = 1e-160 the ascent's image norms underflow unless the ascent
    # scales its rows into the float range
    cfg = {
        "experiment": experiment,
        "domain": {"d": 1, "m": m, "L": 1e-160},
        "exponents": {"p": 2.0, "q": 3.0},
        "weights": {"mu": {"kind": "unit"}, "lambda": {"kind": "unit"}},
        "symbols": [{"id": "x", "terms": [{"kind": "coordinate"}]}],
        "kernel": {"variant": "hilbert"},
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    header, rows = read_csv(out / f"{table}.csv")
    norms = [float(row[header.index("norm" if table == "commutator" else "tail_norm")])
             for row in rows]
    assert norms and all(0.0 < v < math.inf for v in norms)


def _riesz_norm(tmp_path, L, q):
    """The commutator-sweep norm of [log|x|, R_1] at d = 2, m = 4, unit weights."""
    cfg = {
        "experiment": "commutator-sweep",
        "domain": {"d": 2, "m": 4, "L": L},
        "exponents": {"p": 2.0, "q": q},
        "kernel": {"variant": "riesz", "j": 1},
        "symbols": log_symbols(),
    }
    out = tmp_path / f"out-{L}-{q}"
    assert cli.run(cfg, out_dir=out) == 0
    header, rows = read_csv(out / "commutator.csv")
    return float(rows[0][header.index("norm")])


@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("L", [1e100, 1e150])
def test_riesz_norm_on_a_huge_lattice_scales_as_L_to_minus_alpha(tmp_path, q, L):
    # |z|^3 passes the float range at these L, and its stencil must not read 0
    alpha = 2.0 * (1.0 / 2.0 - 1.0 / q)
    want = _riesz_norm(tmp_path, 1.0, q) * L**-alpha
    assert _riesz_norm(tmp_path, L, q) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_probe_over_norm_on_a_huge_lattice_does_not_read_0(tmp_path, q):
    # at L = 1e150, q = 3 the product of the probe's two norms overflows
    # (probe and probe_over_norm read 0); L = 1 is no reference, as its
    # probe picks the mirror cube
    def probe_over_norm(L):
        cfg = {
            "experiment": "commutator-sweep",
            "domain": {"d": 2, "m": 4, "L": L},
            "exponents": {"p": 2.0, "q": q},
            "kernel": {"variant": "riesz", "j": 1},
            "symbols": log_symbols(),
        }
        out = tmp_path / f"out-{L}"
        assert cli.run(cfg, out_dir=out) == 0
        header, rows = read_csv(out / "commutator.csv")
        return float(rows[0][header.index("probe_over_norm")])

    huge = probe_over_norm(1e150)
    assert huge > 0.0
    assert huge == pytest.approx(probe_over_norm(1e100), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d, flagged", [(2, True), (1, False)])
def test_subnormal_cell_volume_is_flagged(tmp_path, d, flagged):
    # at L = 1e-160 the cell volume h^d is subnormal at d = 2 (the bmo
    # supremum loses bits) and a normal float at d = 1
    cfg = {"experiment": "bmo-compute", "domain": {"d": d, "m": 4, "L": 1e-160},
           "symbols": log_symbols()}
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert ("subnormal-cell-volume" in summary["flags"]) == flagged


def test_riesz_kernel_past_the_float_range_exits_3(tmp_path, capsys):
    # at d = 2, L = 1e-160, h^2 is subnormal and K ~ h^-2 overflows
    cfg = {
        "experiment": "commutator-sweep",
        "domain": {"d": 2, "m": 4, "L": 1e-160},
        "kernel": {"variant": "riesz", "j": 1},
        "symbols": log_symbols(),
    }
    assert cli.run(cfg, out_dir=tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "numerical error: kernel riesz_1 leaves the float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_failed_lanczos_svd_exits_3(tmp_path, monkeypatch, capsys, q):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    cfg = {
        "experiment": "commutator-sweep",
        "domain": {"d": 1, "m": 5},
        "exponents": {"p": 2.0, "q": q},
        "kernel": {"variant": "hilbert"},
        "symbols": log_symbols(),
    }
    assert cli.run(cfg, out_dir=tmp_path / "out") == 3
    assert "numerical error: Lanczos bidiagonalization: SVD did not converge" in (
        capsys.readouterr().err)


_D3_SYMBOLS = [
    {"id": "log", "terms": [{"kind": "log_abs"}]},
    {"id": "bump", "terms": [{"kind": "bump", "center": [0.2, -0.1, 0.3], "radius": 0.5}]},
    {"id": "x3", "terms": [{"kind": "coordinate", "axis": 2}]},
]


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_every_experiment_runs_at_d3(tmp_path, experiment):
    # alpha = 3 (1/p - 1/q): the exponents meet a d other than 1 or 2
    cfg = {
        "experiment": experiment,
        "domain": {"d": 3, "m": 5 if experiment == "bmo-compute" else 4},
        "exponents": {"p": 2.0, "q": 3.0},
        "weights": {"mu": {"kind": "power", "beta": 0.3},
                    "lambda": {"kind": "logsmooth", "amplitude": 0.6, "modes": 3, "seed": 0}},
        "symbols": _D3_SYMBOLS,
        "kernel": {"variant": "riesz", "j": 3},
        "seeds": [1],
    }
    if experiment == "compactness-profile":  # 4h = 0.5 at m = 4
        cfg.update(symbols=_D3_SYMBOLS[:1], params={"eps_list": [0.5], "k_list": [1.0]})
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["hard_failed"] == 0
    assert summary["hard_passed"] > 0 or experiment == "compactness-profile"


@pytest.mark.parametrize("d, named", [(4, "domain: d must be in [1, 3], got 4"),
                                      (0, "domain.d: need a value > 0")])
def test_dimension_outside_1_to_3_exits_2_naming_it(tmp_path, capsys, d, named):
    cfg = {"experiment": "bmo-compute", "domain": {"d": d, "m": 3}, "symbols": log_symbols()}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    assert named in capsys.readouterr().err


def test_sweep_reports_numerical_failure_as_its_own_status(tmp_path, monkeypatch):
    drift_gkl(monkeypatch)
    cfg = {
        "experiment": "commutator-sweep",
        "kernel": {"variant": "hilbert"},
        "symbols": log_symbols(),
        "sweep": {"axis": "m", "values": [6]},
    }
    out = tmp_path / "out"
    assert cli.sweep(cfg, out_dir=out) == 1
    _, rows = read_csv(out / "sweep.csv")
    assert rows[0][1] == "numerical-error" and "witness ratio" in rows[0][2]


def test_commutator_sweep_runs_past_the_dense_cap(tmp_path):
    # N = 2^14 cells: a dense matrix would need 2^28 > MAX_MATRIX_ENTRIES entries
    cfg = {
        "experiment": "commutator-sweep",
        "domain": {"d": 1, "m": 14},
        "kernel": {"variant": "hilbert"},
        "symbols": log_symbols(),
    }
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) == 0
    header, rows = read_csv(out / "commutator.csv")
    row = dict(zip(header, rows[0]))
    assert 0.0 < float(row["probe"]) <= float(row["norm"])


def test_hard_failure_exits_1_with_detail(tmp_path, monkeypatch, capsys):
    result = cli.ExperimentResult(
        tables={"t": (("a",), [(1.0,)])},
        assertions=[cli._assertion("doomed", False, detail="threshold crossed")],
    )
    _, params, needs = cli.EXPERIMENTS["bmo-compute"]
    monkeypatch.setitem(cli.EXPERIMENTS, "bmo-compute", (lambda ctx: result, params, needs))
    cfg = {"experiment": "bmo-compute", "symbols": log_symbols()}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "first failure: doomed: threshold crossed" in err


def test_byte_identical_reruns(tmp_path):
    cfg = {
        "experiment": "bmo-compute",
        "domain": {"d": 1, "m": 8},
        "weights": {"mu": {"kind": "logsmooth", "amplitude": 0.4, "modes": 3, "seed": 2},
                    "lambda": {"kind": "power", "beta": 0.25}},
        "exponents": {"p": 2.0, "q": 3.0},
        "symbols": log_symbols(),
    }
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(cfg, out_dir=out_a) == 0
    assert cli.run(cfg, out_dir=out_b) == 0
    for name in ("bmo.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# -- sweeps --------------------------------------------------------------------


def test_m_sweep_of_scale_invariant_symbol(tmp_path):
    cfg = {
        "experiment": "bmo-compute",
        "symbols": log_symbols(),
        "sweep": {"axis": "m", "values": [6, 8, 10]},
    }
    out = tmp_path / "out"
    assert cli.sweep(cfg, out_dir=out) == 0
    header, rows = read_csv(out / "sweep.csv")
    col = header.index("bmo_log")
    values = [float(r[col]) for r in rows]
    assert len(values) == 3
    assert max(values) <= 1.05 * min(values)
    assert all((out / f"m-{v}" / "bmo.csv").exists() for v in (6, 8, 10))


def test_pq_sweep_bloom_verify_all_pass(tmp_path):
    cfg = {
        "experiment": "bloom-verify",
        "domain": {"d": 1, "m": 7},
        "weights": {"mu": {"kind": "power", "beta": 0.25},
                    "lambda": {"kind": "logsmooth", "amplitude": 0.5, "modes": 3, "seed": 11}},
        "sweep": {"axis": "pq", "values": [1.5, 2, 3]},
    }
    out = tmp_path / "out"
    assert cli.sweep(cfg, out_dir=out) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [r[1] for r in rows] == ["ok", "ok", "ok"]


def test_empty_axis_empty_table(tmp_path):
    cfg = {
        "experiment": "bmo-compute",
        "symbols": log_symbols(),
        "sweep": {"axis": "m", "values": []},
    }
    out = tmp_path / "out"
    assert cli.sweep(cfg, out_dir=out) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header[0] == "m" and rows == []


def test_unwritable_csv_exits_2(tmp_path, capsys):
    cfg = {"experiment": "bmo-compute", "domain": {"d": 1, "m": 5}, "symbols": log_symbols()}
    out = tmp_path / "out"
    (out / "bmo.csv").mkdir(parents=True)
    assert cli.run(cfg, out_dir=out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / 'bmo.csv'}: ")


def test_sweep_point_that_cannot_be_written_is_a_config_error_row(tmp_path):
    cfg = {
        "experiment": "bmo-compute",
        "domain": {"d": 1, "m": 5},
        "symbols": log_symbols(),
        "sweep": {"axis": "m", "values": [4, 5, 6]},
    }
    out = tmp_path / "out"
    (out / "m-4" / "summary.json").mkdir(parents=True)  # the file cannot be written
    (out / "m-5").write_text("", encoding="utf-8")  # the directory cannot be made
    assert cli.sweep(cfg, out_dir=out) == 1
    _, rows = read_csv(out / "sweep.csv")
    assert [r[1] for r in rows] == ["config-error", "config-error", "ok"]
    assert rows[0][2].startswith(f"cannot write {out / 'm-4' / 'summary.json'}: ")
    assert rows[1][2].startswith(f"cannot create output dir {out / 'm-5'}: ")
    assert rows[0][3:] == rows[1][3:] == [""] * (len(rows[0]) - 3)
    assert (out / "m-6" / "bmo.csv").is_file()


@pytest.mark.parametrize("escape", ["x/../../../esc", "x\\..\\esc", "x\0y"])
def test_sweep_point_naming_a_path_is_a_config_error_row(tmp_path, escape):
    # a symbol id with a separator would put the point's files outside out/,
    # and one with a null byte stopped the sweep with a traceback
    symbols = [{"id": sid, "terms": [{"kind": "log_abs"}]} for sid in ("log", escape)]
    cfg = {
        "experiment": "bmo-compute",
        "domain": {"d": 1, "m": 4},
        "symbols": symbols,
        "sweep": {"axis": "symbol", "values": [escape, "log"]},
    }
    out = tmp_path / "a" / "b" / "c" / "out"
    assert cli.sweep(cfg, out_dir=out) == 1
    _, rows = read_csv(out / "sweep.csv")
    assert [r[1] for r in rows] == ["config-error", "ok"]
    assert "is not a single path component" in rows[0][2]
    assert (out / "symbol-log" / "bmo.csv").is_file()
    assert all(out in p.parents for p in tmp_path.rglob("*") if p.is_file())


def test_unwritable_sweep_csv_exits_2(tmp_path, capsys):
    cfg = {
        "experiment": "bmo-compute",
        "domain": {"d": 1, "m": 4},
        "symbols": log_symbols(),
        "sweep": {"axis": "m", "values": [4]},
    }
    out = tmp_path / "out"
    (out / "sweep.csv").mkdir(parents=True)
    assert cli.sweep(cfg, out_dir=out) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out / 'sweep.csv'}: ")


def test_sweep_row_level_errors(tmp_path):
    cfg = {
        "experiment": "bmo-compute",
        "domain": {"d": 1, "m": 6},
        "symbols": log_symbols(),
        "sweep": {"axis": "symbol", "values": ["log", "missing"]},
    }
    out = tmp_path / "out"
    assert cli.sweep(cfg, out_dir=out) == 1
    _, rows = read_csv(out / "sweep.csv")
    assert rows[0][1] == "ok"
    assert rows[1][1] == "config-error" and "missing" in rows[1][2]


def test_sweep_values_the_axis_cannot_take_are_config_error_rows(tmp_path):
    cfg = {
        "experiment": "bmo-compute",
        "domain": {"d": 1, "m": 5},
        "symbols": log_symbols(),
        "sweep": {"axis": "m", "values": [5, "x", None, math.inf, [6]]},
    }
    out = tmp_path / "m"
    assert cli.sweep(cfg, out_dir=out) == 1
    _, rows = read_csv(out / "sweep.csv")
    assert [r[1] for r in rows] == ["ok"] + ["config-error"] * 4
    # a symbol sweep skips entries that are not symbol mappings
    cfg = dict(cfg, symbols=["junk", *log_symbols()],
               sweep={"axis": "symbol", "values": ["log"]})
    assert cli.sweep(cfg, out_dir=tmp_path / "symbol") == 0


def test_sweep_points_sharing_a_directory_are_config_error_rows(tmp_path):
    cfg = {
        "experiment": "bmo-compute",
        "symbols": log_symbols(),
        "sweep": {"axis": "m", "values": [4, 6.0, 6]},
    }
    out = tmp_path / "out"
    assert cli.sweep(cfg, out_dir=out) == 1
    _, rows = read_csv(out / "sweep.csv")
    assert [r[1] for r in rows] == ["ok", "ok", "config-error"]
    assert "m-6" in rows[2][2]
    assert sorted(p.name for p in out.iterdir()) == ["m-4", "m-6", "sweep.csv"]
    summary = json.loads((out / "m-6" / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"] == {"axis": "m", "value": 6.0}


def test_sweep_missing_axis_exits_2(tmp_path, capsys):
    cfg = {"experiment": "bmo-compute", "symbols": log_symbols()}
    assert cli.sweep(cfg, out_dir=tmp_path / "out") == 2
    assert "sweep" in capsys.readouterr().err


def test_sweep_bad_axis_exits_2(tmp_path):
    cfg = {
        "experiment": "bmo-compute",
        "symbols": log_symbols(),
        "sweep": {"axis": "banana", "values": [1]},
    }
    assert cli.sweep(cfg, out_dir=tmp_path / "out") == 2


@pytest.mark.parametrize("section, named", [
    (5, "sweep must be a mapping"),
    ({"axis": "banana", "values": [1]}, "sweep.axis"),
    ({"axis": "m", "values": 4}, "sweep.values"),
    ({"axis": "p", "values": [math.nan]}, "sweep.values[0]: exponents.p"),
    ({"axis": "pq", "values": [2.0, "x"]}, "sweep.values[1]: exponents.p"),
    ({"axis": "m", "values": [4, 4.5]}, "sweep.values[1]: domain.m"),
    ({"axis": "symbol", "values": [1]}, "sweep.values[0]: sweep symbol"),
])
def test_run_refuses_a_sweep_section_that_sweep_would(tmp_path, capsys, section, named):
    cfg = {"experiment": "bmo-compute", "domain": {"d": 1, "m": 4},
           "symbols": log_symbols(), "sweep": section}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_echoes_a_well_formed_sweep_section(tmp_path):
    section = {"axis": "m", "values": [4, 6.0]}
    cfg = {"experiment": "bmo-compute", "domain": {"d": 1, "m": 4},
           "symbols": log_symbols(), "sweep": section}
    assert cli.run(cfg, out_dir=tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["sweep"] == section


# -- entry point ---------------------------------------------------------------


def test_main_wires_subcommands(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "weights-check",
        "domain": {"d": 1, "m": 6},
    })
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.json").exists()


def test_module_invocation(tmp_path, child_env):
    path = write_config(tmp_path, {
        "experiment": "weights-check",
        "domain": {"d": 1, "m": 6},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "dyadlab.cli", "run", "--config", path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout


# -- config fuzz ---------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-50.0, 50.0)
    | st.sampled_from([math.inf, -math.inf]) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                               max_size=3),
    max_leaves=6,
)
_TERMS = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["constant", "log_abs"])},
                          optional={"coefficient": st.floats(-3, 3)
                                    | st.lists(st.floats(-3, 3), min_size=2, max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("coordinate"), "axis": st.integers(-1, 2)}),
    st.fixed_dictionaries({"kind": st.just("abs_power"), "exponent": st.floats(-1.5, 2)}),
    st.fixed_dictionaries({"kind": st.just("bump"),
                           "center": st.lists(st.floats(-1, 1), min_size=1, max_size=2),
                           "radius": st.floats(-0.5, 2)}),
)
_WEIGHTS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("unit")}),  # a fresh dict: configs get mutated
    st.fixed_dictionaries({"kind": st.just("power"), "beta": st.floats(-1.5, 3)}),
    st.fixed_dictionaries({"kind": st.just("logsmooth")},
                          optional={"amplitude": st.floats(0, 5), "modes": st.integers(0, 4),
                                    "seed": st.integers(0, 9)}),
)
# The params each experiment reads; integer keys also draw the floats,
# booleans and strings they must refuse.
_BUDGET = st.integers(0, 3) | st.floats(0, 3) | st.booleans() | st.text(max_size=2)
_PARAMS = {
    "bmo-compute": {"r": st.floats(-1, 4)},
    "jn-verify": {"r": st.floats(-1, 4)},
    "commutator-sweep": {"budget": _BUDGET,
                         "probe_generation": (st.integers(-1, 6) | st.floats(-1, 6)
                                              | st.booleans() | st.text(max_size=2))},
    "compactness-profile": {"eps_list": st.lists(st.floats(0.01, 1.2), max_size=3),
                            "k_list": st.lists(st.floats(-1, 9), max_size=3),
                            "budget": _BUDGET},
    "vmo-witness": {"r": st.floats(-1, 4), "c0": st.floats(-1, 2),
                    "mode": st.sampled_from(["small-scale", "large-scale", "distance", "bogus"]),
                    "theta": st.floats(-1, 1), "min_pairs": st.integers(-1, 4)},
}


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _get(cfg, path):
    """The value at a key path of `_paths`."""
    return functools.reduce(lambda node, key: node[key], path, cfg)


@st.composite
def _configs(draw):
    """A config that reaches the experiments (m <= 5), then either up to two
    of its values (the whole config included) swapped for arbitrary JSON,
    or one or two of its numbers and strings, in any section, swapped for a
    value of the wrong type: a boolean, a fraction or a string for an
    integer, a string for a float, a number for a string (`out`, symbol
    ids, kinds and variants).  Returns the config and whether a type was
    swapped."""
    d = draw(st.integers(1, 2))
    p = draw(st.floats(1.05, 4))
    experiment = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    cfg = {
        "out": "runs/fuzz",  # read, though out_dir overrides it
        "experiment": experiment,
        "domain": {"d": d, "m": draw(st.integers(2, 5)),
                   "L": draw(st.sampled_from([0.5, 1.0, 2.0]))},
        "exponents": {"p": p, "q": p + draw(st.floats(0, 3))},
        "weights": {"mu": draw(_WEIGHTS), "lambda": draw(_WEIGHTS)},
        "symbols": [{"id": f"s{i}", "terms": terms} for i, terms in enumerate(
            draw(st.lists(st.lists(_TERMS, min_size=1, max_size=2), min_size=1, max_size=2)))],
        "kernel": {"variant": "hilbert"} if d == 1 else {"variant": "riesz",
                                                         "j": draw(st.integers(1, 2))},
        "seeds": draw(st.lists(st.integers(0, 9), max_size=2)),
        "params": draw(st.fixed_dictionaries({}, optional=_PARAMS.get(experiment, {}))),
    }
    if draw(st.booleans()):
        leaves = [path for path in _paths(cfg) if type(_get(cfg, path)) in (int, float, str)]
        for path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=2,
                                  unique=True)):
            value = _get(cfg, path)
            _get(cfg, path[:-1])[path[-1]] = draw(
                st.sampled_from([True, False, value + 0.5, str(value)]) if type(value) is int
                else st.just(0.5) if type(value) is str else st.just(str(value)))
        return cfg, True
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        value = draw(_JSON)
        if not path:
            cfg = value
            continue
        _get(cfg, path[:-1])[path[-1]] = value
    return cfg, False


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_configs())
def test_random_configs_exit_with_a_status_never_a_traceback(case):
    cfg, swapped = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.run(cfg, out_dir=tmp)
    assert status in (0, 1, 2, 3)
    assert status == 2 or not swapped  # every key of the config is read typed


_SWEEP_BASES = [
    {"experiment": "bmo-compute", "domain": {"d": 1, "m": 3},
     "symbols": [{"id": "s0", "terms": [{"kind": "log_abs"}]},
                 {"id": "s1", "terms": [{"kind": "coordinate"}]}]},
    {"experiment": "weights-check", "domain": {"d": 1, "m": 4},
     "weights": {"mu": {"kind": "power", "beta": 0.3}, "lambda": {"kind": "unit"}}},
    {"experiment": "bloom-verify", "domain": {"d": 2, "m": 3},
     "exponents": {"p": 2.0, "q": 3.0}},
]
# Values an axis can take (an m-axis point stays at m <= 5), besides null,
# booleans, strings and nested lists; duplicates and 5 vs 5.0 both occur.
_SWEEP_TAKEN = {"m": [2, 3, 5, 3.0, 5.0], "p": [1.5, 2, 2.0, 2.5], "q": [2, 3, 3.0, 4],
                "pq": [1.5, 2, 2.0, 3], "symbol": ["s0", "s1"], "bogus": [1], None: [1]}
_SWEEP_NOISE = (st.none() | st.booleans() | st.integers(-1, 5) | st.floats(-1.0, 5.0)
                | st.sampled_from(["5", "x", ""]))


@st.composite
def _sweep_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(_SWEEP_BASES)))
    axis = draw(st.sampled_from([*cli.SWEEP_AXES, "bogus", None]))
    taken = st.sampled_from(_SWEEP_TAKEN[axis])
    scalar = st.one_of(taken, taken, _SWEEP_NOISE)
    values = draw(st.lists(scalar | st.lists(scalar, max_size=2), max_size=4))
    values += draw(st.lists(st.sampled_from(values), max_size=2)) if values else []
    if draw(st.integers(0, 5)) == 5:  # not a list; a list of _JSON could run m = 40
        values = draw(_JSON.filter(lambda v: not isinstance(v, list)))
    cfg["sweep"] = {"axis": axis, "values": values}
    return cfg


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_sweep_configs())
def test_random_sweeps_exit_with_a_status_and_one_directory_per_point(cfg):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.sweep(cfg, out_dir=tmp)
        assert status in (0, 1, 2)
        if status == 2:
            return
        axis, values = cfg["sweep"]["axis"], cfg["sweep"]["values"]
        _, rows = read_csv(f"{tmp}/sweep.csv")
        assert len(rows) == len(values)
        ran = [v for v, row in zip(values, rows) if row[1] in ("ok", "assertion-failed")]
        tags = [cli._point_tag(axis, v) for v in ran]
        assert len(set(tags)) == len(tags)
        for value, tag in zip(ran, tags):
            summary = json.loads(open(f"{tmp}/{tag}/summary.json", encoding="utf-8").read())
            assert json.dumps(summary["config"]["value"]) == json.dumps(value)


# -- table writer --------------------------------------------------------------


def _row_path_cell(value):
    """The per-cell formatting of the row-by-row writer the column writer replaced."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (np.floating,)):
        return format(float(value), ".17g")
    return str(value)


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_row_path_cell(v) for v in row])


_CELL_TEXT = st.text(st.sampled_from(list('ab,;"\' \n\r_')), max_size=5)
_FLOAT64 = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-310])
_FLOAT32 = st.floats(width=32)
_INT64 = st.integers(-(2**63), 2**63 - 1)
_SCALARS = [  # one strategy per kind of cell
    _FLOAT64, _FLOAT64.map(np.float64), _FLOAT32.map(np.float32),
    _INT64, _INT64.map(np.int64), st.booleans(), st.booleans().map(np.bool_), _CELL_TEXT,
]
_ARRAYS = [(np.float64, _FLOAT64), (np.float32, _FLOAT32), (np.float16, st.floats(width=16)),
           (np.longdouble, _FLOAT64),
           (np.int64, _INT64), (np.uint8, st.integers(0, 255)), (np.bool_, st.booleans()),
           ("U5", _CELL_TEXT)]


@st.composite
def _tables(draw):
    """A header and equal-length columns: numpy arrays of each dtype kind, and
    lists of one kind of cell or of mixed kinds."""
    n_rows = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        form = draw(st.sampled_from(["array", "list", "mixed"]))
        if form == "array":
            dtype, elements = draw(st.sampled_from(_ARRAYS))
            columns.append(draw(hnp.arrays(dtype, n_rows, elements=elements)))
        else:
            cell = st.one_of(_SCALARS) if form == "mixed" else draw(st.sampled_from(_SCALARS))
            columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    header = draw(st.lists(_CELL_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


# chunks of 1-3 rows put chunk boundaries inside the drawn tables (of at most 6
# rows), so a quoted cell, a lone empty field or a cell type can first turn up in
# a later chunk
_CHUNKS = st.sampled_from([1, 2, 3, cli._CHUNK_ROWS])


@settings(max_examples=300, deadline=None)
@given(table=_tables(), chunk=_CHUNKS)
def test_column_writer_matches_the_row_path(table, chunk):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_ROWS", chunk):
        old, new = f"{tmp}/rows.csv", f"{tmp}/columns.csv"
        _write_rows(old, header, zip(*columns))
        cli._write_table(new, header, columns)
        with open(old, "rb") as a, open(new, "rb") as b:
            assert b.read() == a.read()


@st.composite
def _tables_with_key_rows(draw):
    """A table of `_tables` with key-row columns (2-D int64, widths 1-3) put
    in at random positions, alone or among the other kinds; returns the
    table and the same table with each key-row column as `_`-joined strings."""
    header, columns = draw(_tables())
    n_rows = len(columns[0])
    if draw(st.booleans()):
        header, columns = [], []
    for _ in range(draw(st.integers(1, 2))):
        width = draw(st.integers(1, 3))
        keys = draw(hnp.arrays(np.int64, (n_rows, width), elements=_INT64))
        at = draw(st.integers(0, len(columns)))
        header.insert(at, draw(_CELL_TEXT))
        columns.insert(at, keys)
    joined = [["_".join(map(str, row)) for row in c.tolist()] if getattr(c, "ndim", 1) == 2
              else c for c in columns]
    return header, columns, joined


@settings(max_examples=300, deadline=None)
@given(table=_tables_with_key_rows(), chunk=_CHUNKS)
def test_key_row_columns_match_joined_strings_on_the_row_path(table, chunk):
    header, columns, joined = table
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_ROWS", chunk):
        old, new = f"{tmp}/rows.csv", f"{tmp}/columns.csv"
        _write_rows(old, header, zip(*joined))
        cli._write_table(new, header, columns)
        with open(old, "rb") as a, open(new, "rb") as b:
            assert b.read() == a.read()
