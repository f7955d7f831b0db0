"""Config-driven experiment runner.

Configs are JSON (schema 1): a lattice domain, an exponent pair, weight
and symbol specs from the catalogs, optionally a kernel, and one of the
eight experiment ids with its params.  Each section is read through a
table of one typed reader and default per key: an unknown key, or a value
of the wrong type (a string for a number; a boolean or a fraction for an
integer), is a ConfigError naming the dotted key, never a cast.  `run`
executes the experiment, writes one CSV per result table plus a
summary.json with per-assertion pass/fail, and returns 0 only if every
hard assertion passed (1 on assertion failure with the first failure
echoed, 2 on an unusable config, 3 on a numerical failure such as a
solver missing its tolerance).  `sweep` repeats the experiment along one
axis -- m, p, q, pq, or symbol -- one row per point with row-level
status; points run one after another, each through `run`'s own step, and
each writes its files when it finishes.

A result table is a set of columns (numpy arrays, lists or tuples), and
the CSV format is defined per column: a float column is written with 17
significant digits, an int, bool or string column through str, and a 2-D
int column of cube key rows as `i_j`, so identical config and seeds
reproduce byte-identical CSVs.  No plotting: tables are long-format, the
CSV is the plot interface.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dyadlab import dyadic, normest, oscillation, sparse
from dyadlab.lattice import _TERM_KEYS, LatticeDomain, SampledFunction, sample_symbol
from dyadlab.operators import Convolution, NumericalError, make_kernel
from dyadlab.weights import (
    _WEIGHT_KEYS,
    ExponentSetup,
    apq_characteristic,
    bloom_sandwich_report,
    bloom_weight,
    make_weight,
    membership_surrogate,
)

SCHEMA_VERSION = 1
HARD_TOL = 1e-9


class ConfigError(ValueError):
    """Unusable configuration; maps to exit code 2."""


# -- config key tables -----------------------------------------------------------
# A reader returns one JSON value typed, or raises TypeError or ValueError.


def _integer(value) -> int:
    """A JSON integer: floats, booleans and strings are refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"need an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A finite JSON number, as a float: strings, booleans, NaN and
    infinities are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"need a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"need a finite number, got {value!r}")
    return float(value)


def _string(value) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"need a string, got {value!r}")
    return value


def _list(reader):
    """A reader of a JSON list whose entries `reader` takes, as a tuple."""
    def read(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"need a list, got {value!r}")
        return tuple(map(reader, value))
    return read


_numbers = _list(_number)


def _positive(reader):
    """A reader of what `reader` takes, if it is > 0."""
    def read(value):
        typed = reader(value)
        if not typed > 0:
            raise ValueError(f"need a value > 0, got {value!r}")
        return typed
    return read


def _coefficient(value) -> complex:
    """A JSON number, or a pair [re, im] of them, as a complex number."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(*_numbers(value))
    return complex(_number(value))


def _choice(*options):
    """A reader of one of `options`, type included (true and 1.0 are not 1)."""
    def read(value):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ValueError(f"need one of {list(options)}, got {value!r}")
        return value
    return read


# key -> (reader, default); an absent key reads its default through the reader.  A
# catalog section is read through a (catalog, readers) pair: the catalog maps each
# kind to its keys and defaults (the library's own, for weights and symbol terms),
# and `readers` maps each key name to its reader.
_DOMAIN = {"d": (_positive(_integer), 1), "m": (_integer, 8), "L": (_number, 1.0)}
_EXPONENTS = {"p": (_number, 2.0), "q": (_number, 2.0)}
_WEIGHTS = {"beta": _number, "amplitude": _number, "modes": _integer, "seed": _integer}
_WEIGHT_SLOTS = dict.fromkeys(("mu", "lambda"), ((_WEIGHT_KEYS, _WEIGHTS), {"kind": "unit"}))
_KERNELS = ({"hilbert": {}, "riesz": {"j": None}}, {"j": _positive(_integer)})  # j: None refused
_TERMS = {"coefficient": _coefficient, "axis": _integer, "exponent": _number,
          "center": lambda v: v if v is None else _numbers(v), "radius": _number}
_SYMBOL = {"id": (_string, None), "terms": (_list(lambda term: term), None)}  # each: _TERMS
# each experiment's params table is in EXPERIMENTS, after the experiments
SWEEP_AXES = ("m", "p", "q", "pq", "symbol")
# each value is read at its point, by the reader of the key the axis sets
_SWEEP = {"axis": (_choice(*SWEEP_AXES), None), "values": (_list(lambda value: value), None)}
_KNOWN_KEYS = frozenset(
    {"schema", "experiment", "domain", "exponents", "weights", "symbols",
     "kernel", "seeds", "params", "out", "sweep"}
)


@dataclass
class RunContext:
    """Resolved objects for one experiment execution."""

    experiment: str
    domain: LatticeDomain
    setup: ExponentSetup
    mu: object
    lam: object
    symbols: list  # (id, SampledFunction) pairs
    kernel: object  # KernelSpec or None
    seeds: tuple
    params: dict  # typed, every key of the experiment's table


@dataclass
class ExperimentResult:
    tables: dict  # name -> (header, columns); a column is an array, list or tuple
    assertions: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    headline: dict = field(default_factory=dict)

    @property
    def hard_failures(self) -> list:
        return [a for a in self.assertions if a["hard"] and not a["ok"]]


def _assertion(name: str, ok: bool, hard: bool = True, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "hard": hard, "detail": detail}


def _load(config, seed=None) -> dict:
    """A fresh dict of the config (a mapping, or the path of a JSON file),
    its seed list replaced by `seed` if one is given."""
    if isinstance(config, dict):
        cfg = copy.deepcopy(config)
    elif isinstance(config, (str, os.PathLike)):
        path = Path(config)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    else:
        raise ConfigError(f"config must be a mapping or a path, got {type(config).__name__}")
    if seed is not None:
        cfg["seeds"] = [_value(_integer, seed, "seed")]
    return cfg


def _value(reader, value, path: str):
    """One value through its reader, a catalog spec through its (catalog,
    readers) pair; a refused value is a ConfigError naming its dotted key."""
    if isinstance(reader, tuple):
        return _read(value, reader, path, tag="kind")
    try:
        return reader(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read(spec, table, path: str, tag: str = "") -> dict:
    """Every key of `table` read from the mapping `spec` (null reads as
    empty), an absent key as its default.  With a `tag`, `table` is a
    (catalog, readers) pair, and `spec[tag]` names the kind whose keys are
    read.  A key outside the table is a ConfigError naming it."""
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(spec).__name__}")
    if tag:
        catalog, readers = table
        kind = _value(_choice(*catalog), spec.get(tag), f"{path}.{tag}")
        table = {tag: (_choice(kind), kind),
                 **{key: (readers[key], default) for key, default in catalog[kind].items()}}
    for key in spec:
        if key not in table:
            raise ConfigError(f"{path}.{key}: unknown key; {path} takes {sorted(table)}")
    return {key: _value(reader, spec.get(key, default), f"{path}.{key}")
            for key, (reader, default) in table.items()}


def _made(what: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ValueError from it is a ConfigError led by `what`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _build_context(cfg: dict) -> RunContext:
    """Resolve a config into live objects, every section read through its
    key table; ConfigError on anything off."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(cfg) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    _value(_choice(SCHEMA_VERSION), cfg.get("schema", SCHEMA_VERSION), "schema")
    if cfg.get("sweep") is not None:  # run only echoes it, but reads it as sweep would
        spec = _read(cfg["sweep"], _SWEEP, "sweep")
        for i, value in enumerate(spec["values"]):
            try:
                _axis_value(spec["axis"], value)
            except ConfigError as exc:
                raise ConfigError(f"sweep.values[{i}]: {exc}") from exc
    experiment = _value(_choice(*EXPERIMENTS), cfg.get("experiment"), "experiment")
    _, params, needs = EXPERIMENTS[experiment]
    domain = _made("domain", LatticeDomain, **_read(cfg.get("domain"), _DOMAIN, "domain"))
    setup = _made("exponents", ExponentSetup, d=domain.d,
                  **_read(cfg.get("exponents"), _EXPONENTS, "exponents"))
    weights = _read(cfg.get("weights"), _WEIGHT_SLOTS, "weights")
    for slot, spec in weights.items():
        if ("coarse-weights" in needs and spec["kind"] == "logsmooth"
                and spec["modes"] > domain.n // 2):
            raise ConfigError(f"weights.{slot}.modes: {experiment} resamples the weight at "
                              f"m - 1, so logsmooth modes must be <= 2^(m-1) = "
                              f"{domain.n // 2} at m = {domain.m}, got {spec['modes']}")
    mu, lam = (_made(f"bad weight spec weights.{slot}", make_weight, domain, weights[slot])
               for slot in ("mu", "lambda"))

    symbols = []
    symbol_specs = cfg.get("symbols") or []
    if not isinstance(symbol_specs, list):
        raise ConfigError("symbols must be a list")
    for i, entry in enumerate(symbol_specs):
        entry = _read(entry, _SYMBOL, f"symbols[{i}]")
        sid = entry["id"]
        if sid in dict(symbols):
            raise ConfigError(f"duplicate symbol id {sid!r}")
        terms = [_read(t, (_TERM_KEYS, _TERMS), f"symbols[{i}].terms[{j}]", tag="kind")
                 for j, t in enumerate(entry["terms"])]
        symbols.append((sid, _made(f"symbols[{i}] ({sid!r})", sample_symbol, domain, terms)))
    if "symbols" in needs and not symbols:
        raise ConfigError(f"experiment {experiment} needs at least one symbol")

    kernel = None
    if cfg.get("kernel") is not None:
        spec = _read(cfg["kernel"], _KERNELS, "kernel", tag="variant")
        kernel = _made("kernel", make_kernel, spec.pop("variant"), {**spec, "d": domain.d})
    if "kernel" in needs and kernel is None:
        raise ConfigError(f"experiment {experiment} needs a kernel")

    return RunContext(
        experiment=experiment,
        domain=domain,
        setup=setup,
        mu=mu,
        lam=lam,
        symbols=symbols,
        kernel=kernel,
        seeds=_value(_list(_integer), cfg.get("seeds", [0]), "seeds"),
        params=_read(cfg.get("params"), params, "params"),
    )


# -- experiments ---------------------------------------------------------------


def _cube_key(cube) -> tuple:
    return cube.generation, "_".join(str(i) for i in cube.index)


def _exp_weights_check(ctx: RunContext) -> ExperimentResult:
    """A_p / A_{p,q} characteristics with a divergence diagnostic (never hard)."""
    rows, flags, overflow = [], [], False
    for name, w, exponent in (("mu", ctx.mu, ctx.setup.p), ("lambda", ctx.lam, ctx.setup.q)):
        info = membership_surrogate(w, exponent)
        rows.append(
            (name, exponent, info["characteristic"], info["coarse_characteristic"],
             info["drift"], info["ok"])
        )
        if not info["ok"]:
            flags.append(f"divergence:{name}")
        overflow = overflow or info["overflow"]
    joint = apq_characteristic(ctx.mu, ctx.lam, ctx.setup.p, ctx.setup.q)
    gen, idx = _cube_key(joint.argmax_cube)
    joint_rows = [(ctx.setup.p, ctx.setup.q, joint.supremum, gen, idx,
                   ";".join(sorted(joint.flags)))]
    assertions = [
        _assertion("characteristics-finite",
                   all(math.isfinite(float(r[2])) for r in rows) and not overflow,
                   hard=True,
                   detail="surrogate characteristics are finite on the lattice"),
    ]
    headline = {"char_mu": float(rows[0][2]), "char_lambda": float(rows[1][2]),
                "char_joint": joint.supremum}
    return ExperimentResult(
        tables={
            "weights": (("weight", "exponent", "characteristic",
                         "coarse_characteristic", "drift", "ok"), list(zip(*rows))),
            "joint": (("p", "q", "characteristic", "argmax_generation",
                       "argmax_index", "flags"), list(zip(*joint_rows))),
        },
        assertions=assertions,
        flags=flags,
        headline=headline,
    )


def _exp_bloom_verify(ctx: RunContext) -> ExperimentResult:
    rep = bloom_sandwich_report(ctx.mu, ctx.lam, ctx.setup)
    keys = dyadic.canonical_keys(ctx.domain)
    summary_rows = [(rep.min_ratio, rep.max_ratio, rep.upper, rep.s,
                     rep.intermediate_characteristic, rep.intermediate_bound)]
    assertions = [
        _assertion("sandwich-holds", rep.holds(HARD_TOL),
                   detail=f"ratios in [{rep.min_ratio:.6g}, {rep.max_ratio:.6g}], "
                          f"upper bound {rep.upper:.6g}"),
        _assertion("intermediate-ainfty",
                   rep.intermediate_characteristic
                   <= rep.intermediate_bound * (1.0 + HARD_TOL),
                   detail=f"[nu^(1/s)]_(s,s) = {rep.intermediate_characteristic:.6g} "
                          f"vs sqrt([mu][lambda]) = {rep.intermediate_bound:.6g}"),
    ]
    flags = sorted(rep.flags)
    return ExperimentResult(
        tables={
            "sandwich_cubes": (("generation", "index", "ratio"),
                               [keys[:, 0], keys[:, 1:], rep.ratios]),
            "sandwich_summary": (("min_ratio", "max_ratio", "upper", "s",
                                  "intermediate_characteristic",
                                  "intermediate_bound"), list(zip(*summary_rows))),
        },
        assertions=assertions,
        flags=flags,
        headline={"min_ratio": rep.min_ratio, "max_ratio": rep.max_ratio},
    )


def _exp_bmo_compute(ctx: RunContext) -> ExperimentResult:
    rows, assertions, headline = [], [], {}
    nu = bloom_weight(ctx.mu, ctx.lam, ctx.setup)
    for sid, b in ctx.symbols:
        rep = oscillation.bmo_norm(b, nu, ctx.setup.alpha, ctx.params["r"])
        gen, idx = _cube_key(rep.argmax_cube)
        rows.append((sid, "fractional", rep.supremum, gen, idx))
        assertions.append(
            _assertion(f"bmo-finite:{sid}", math.isfinite(rep.supremum),
                       detail=f"sup = {rep.supremum:.6g}")
        )
        headline[f"bmo_{sid}"] = rep.supremum
        del rep  # before the next symbol's pass
    return ExperimentResult(
        tables={"bmo": (("symbol", "mode", "bmo", "argmax_generation",
                         "argmax_index"), list(zip(*rows)))},
        assertions=assertions,
        headline=headline,
    )


def _exp_jn_verify(ctx: RunContext) -> ExperimentResult:
    r = ctx.params["r"]
    root = dyadic.cube(ctx.domain, 1, (1,) * ctx.domain.d)  # [0, L)^d: origin on the boundary
    bound = sparse.cz_constant(ctx.domain.d)
    rows, assertions, headline = [], [], {}
    for sid, b in ctx.symbols:
        rep = oscillation.jn_verify(b, ctx.mu, ctx.setup.p, r, ctx.setup.alpha, root)
        rows.append((sid, rep.r, rep.r_norm, rep.one_norm, rep.ratio,
                     rep.root_r_oscillation, rep.sparse_bound, rep.sparse_ratio,
                     rep.family_size))
        assertions.append(
            _assertion(f"jn-monotone:{sid}", rep.ratio >= 1.0 - HARD_TOL,
                       detail=f"r-norm / 1-norm = {rep.ratio:.6g}")
        )
        assertions.append(
            _assertion(f"jn-sparse:{sid}",
                       rep.sparse_ratio <= bound * (1.0 + HARD_TOL),
                       detail=f"sparse ratio {rep.sparse_ratio:.6g} vs C = {bound:g}")
        )
        headline[f"jn_ratio_{sid}"] = rep.ratio
    return ExperimentResult(
        tables={"jn": (("symbol", "r", "r_norm", "one_norm", "ratio",
                        "root_r_oscillation", "sparse_bound", "sparse_ratio",
                        "family_size"), list(zip(*rows)))},
        assertions=assertions,
        headline=headline,
    )


def _random_symbol(domain: LatticeDomain, seed: int) -> SampledFunction:
    """Seeded: a random walk at d = 1, white noise at d = 2 and d = 3."""
    rng = np.random.default_rng(seed)
    if domain.d == 1:
        vals = np.cumsum(rng.standard_normal(domain.n)) / 32.0
    else:
        vals = rng.standard_normal(domain.shape)
    return SampledFunction(domain, vals)


def _exp_sparse_dominate(ctx: RunContext) -> ExperimentResult:
    root = dyadic.cube(ctx.domain, 0, (0,) * ctx.domain.d)
    bound = sparse.cz_constant(ctx.domain.d)
    cases = list(ctx.symbols)
    cases.extend((f"seed{s}", _random_symbol(ctx.domain, s)) for s in ctx.seeds)
    if not cases:
        raise ConfigError("sparse-dominate needs symbols or seeds")
    rows, assertions = [], []
    worst = 0.0
    for sid, b in cases:
        family = sparse.cz_augment(b, root)
        verdict = sparse.is_sparse(family)
        ratio = sparse.augmentation_ratio(b, root, family)
        worst = max(worst, ratio)
        rows.append((sid, len(family.entries), verdict.ok, ratio, bound))
        assertions.append(
            _assertion(f"sparse:{sid}", verdict.ok,
                       detail=verdict.reason if not verdict.ok else "1/2-sparse")
        )
        assertions.append(
            _assertion(f"domination:{sid}", ratio <= bound * (1.0 + HARD_TOL),
                       detail=f"max cell ratio {ratio:.6g} vs C = {bound:g}")
        )
    return ExperimentResult(
        tables={"sparse": (("symbol", "entries", "sparse_ok", "max_ratio",
                            "bound"), list(zip(*rows)))},
        assertions=assertions,
        headline={"worst_ratio": worst},
    )


def _exp_commutator_sweep(ctx: RunContext) -> ExperimentResult:
    op = Convolution(ctx.kernel, ctx.domain)
    probe_generation = ctx.params["probe_generation"]
    if not 0 <= probe_generation <= ctx.domain.m:
        raise ConfigError(f"params.probe_generation: need 0 <= value <= m = {ctx.domain.m}, "
                          f"got {probe_generation}")
    sweep_rows = normest.bmo_vs_norm_sweep(ctx.symbols, op, ctx.mu, ctx.lam, ctx.setup,
                                           **ctx.params)
    rows, assertions, headline = [], [], {}
    for row in sweep_rows:
        sid = row["symbol"]
        rows.append((sid, row["bmo"], row["norm"], row["probe"],
                     row["norm_over_bmo"], row["probe_over_norm"]))
        if math.isfinite(row["probe"]):
            assertions.append(
                _assertion(f"probe-below-norm:{sid}",
                           row["probe"] <= row["norm"] * (1.0 + HARD_TOL),
                           detail=f"probe {row['probe']:.6g} vs norm {row['norm']:.6g}")
            )
        headline[f"norm_{sid}"] = row["norm"]
        headline[f"bmo_{sid}"] = row["bmo"]
        headline[f"ratio_{sid}"] = row["norm_over_bmo"]
    flags = [f"probe-refused:{r['symbol']}" for r in sweep_rows
             if not math.isfinite(r["probe"])]
    flags.extend(f"ascent-cap:{r['symbol']}" for r in sweep_rows if r["capped"])
    return ExperimentResult(
        tables={"commutator": (("symbol", "bmo", "norm", "probe", "norm_over_bmo",
                                "probe_over_norm"), list(zip(*rows)))},
        assertions=assertions,
        flags=flags,
        headline=headline,
    )


def _exp_compactness_profile(ctx: RunContext) -> ExperimentResult:
    if not ctx.params["eps_list"]:
        raise ConfigError("params.eps_list must not be empty")
    tail_rows, sparse_rows, flags, headline = [], [], [], {}
    reports = normest.compactness_profile(ctx.symbols, ctx.kernel, ctx.setup, mu=ctx.mu,
                                          lam=ctx.lam, **ctx.params)
    for (sid, _), rep in zip(ctx.symbols, reports):
        tail_rows.extend((sid, e, t) for e, t in zip(rep.eps_list, rep.tail_norms))
        sparse_rows.extend((sid, k, t) for k, t in zip(rep.k_list, rep.sparse_tail_norms))
        first, last = rep.tail_norms[0], rep.tail_norms[-1]
        ratio = last / first if first > 0.0 else 0.0
        headline[f"tail_ratio_{sid}"] = ratio
        if first > 0.0 and ratio <= 0.25:
            flags.append(f"tail-decays:{sid}")
        elif ratio >= 0.5:
            flags.append(f"tail-floor:{sid}")
        flags.extend(f"{f}:{sid}" for f in sorted(rep.flags))
    # Trend is a diagnostic, not an assertion: the dichotomy is symbol-specific.
    return ExperimentResult(
        tables={
            "tails": (("symbol", "eps", "tail_norm"), list(zip(*tail_rows))),
            "sparse_tails": (("symbol", "k", "tail_norm"), list(zip(*sparse_rows))),
        },
        flags=flags,
        headline=headline,
    )


def _exp_vmo_witness(ctx: RunContext) -> ExperimentResult:
    nu = bloom_weight(ctx.mu, ctx.lam, ctx.setup)
    alpha = ctx.setup.alpha
    profile_rows, distance_rows, witness_rows = [], [], []
    assertions, flags = [], []
    for sid, b in ctx.symbols:
        report = oscillation.bmo_norm(b, nu, alpha, ctx.params["r"])
        prof = oscillation.vmo_profile(report)
        profile_rows.extend(
            (sid, s, ps, sm, lg)
            for s, ps, sm, lg in zip(prof.scales, prof.per_scale_sup,
                                     prof.small_scale, prof.large_scale)
        )
        distance_rows.extend((sid, rad, d) for rad, d in zip(prof.radii, prof.distance))
        witness = oscillation.vmo_witness(b, report, nu, alpha, **ctx.params)
        del report  # before the next symbol's pass
        if witness is None:
            witness_rows.append((sid, "none", "", "", "", "", ""))
            flags.append(f"no-witness:{sid}")
            continue
        for k, ((cube, core), osc) in enumerate(
            zip(witness.entries, witness.oscillations)
        ):
            gen, idx = _cube_key(cube)
            witness_rows.append((sid, "found", witness.mode, gen, idx,
                                 int(core.size), float(osc)))
        assertions.append(
            _assertion(f"witness-oscillation:{sid}",
                       all(o >= witness.threshold / 2.0 * (1.0 - HARD_TOL)
                           for o in witness.oscillations),
                       detail=f"{len(witness)} pairs at or above c0/2 = "
                              f"{witness.threshold / 2.0:.6g} in mode {witness.mode}")
        )
    return ExperimentResult(
        tables={
            "profile": (("symbol", "scale", "per_scale_sup", "small_scale_sup",
                         "large_scale_sup"), list(zip(*profile_rows))),
            "distance": (("symbol", "radius", "distance_sup"), list(zip(*distance_rows))),
            "witness": (("symbol", "status", "mode", "generation", "index",
                         "core_cells", "oscillation"), list(zip(*witness_rows))),
        },
        assertions=assertions,
        flags=flags,
    )


# id -> (function, params key table, needs).  A need is "symbols" (at least one),
# "kernel", or "coarse-weights": the membership surrogate resamples each weight at
# m - 1, so a logsmooth weight may have at most 2^(m-1) modes.
EXPERIMENTS = {
    "weights-check": (_exp_weights_check, {}, ("coarse-weights",)),
    "bloom-verify": (_exp_bloom_verify, {}, ("coarse-weights",)),
    "bmo-compute": (_exp_bmo_compute, {"r": (_number, 1.0)}, ("symbols",)),
    "jn-verify": (_exp_jn_verify, {"r": (_number, 2.0)}, ("symbols",)),
    "sparse-dominate": (_exp_sparse_dominate, {}, ()),
    "commutator-sweep": (
        _exp_commutator_sweep,
        {"budget": (_positive(_integer), normest.ASCENT_RESTARTS),
         "probe_generation": (_integer, 3)},
        ("symbols", "kernel")),
    "compactness-profile": (
        _exp_compactness_profile,
        {"eps_list": (_numbers, [0.5, 0.25, 0.125, 0.0625, 0.03125]),
         "k_list": (_list(_positive(_number)), [1.0, 2.0, 4.0, 8.0]),
         "budget": (_positive(_integer), normest.ASCENT_RESTARTS)},
        ("symbols", "kernel")),
    "vmo-witness": (
        _exp_vmo_witness,
        {"r": (_number, 1.0), "c0": (_number, 0.5), "theta": (_number, 0.125),
         "mode": (_choice(None, "small-scale", "far-away", "large-scale"), None),
         "min_pairs": (_positive(_integer), 2)},
        ("symbols",)),
}


# -- report emission -----------------------------------------------------------


def _fmt(value) -> str:
    """One cell of a list column that is not all strings."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


_CHUNK_ROWS = 4096  # rows formatted per write
# The characters that make csv.writer(lineterminator="\n") quote a cell
# under QUOTE_MINIMAL.  A bare "\r" is not among them on Python 3.11.
_QUOTE_TRIGGERS = (",", '"', "\n")


def _quoted(cells: list) -> list:
    """String cells as QUOTE_MINIMAL writes them: a cell holding a comma, a
    quote or a newline is enclosed in quotes, its own quotes doubled.  The
    test runs once over the joined column; only a column that needs it is
    quoted cell by cell."""
    joined = "".join(cells)
    if not any(t in joined for t in _QUOTE_TRIGGERS):
        return cells
    return ['"%s"' % c.replace('"', '""') if any(t in c for t in _QUOTE_TRIGGERS) else c
            for c in cells]


def _column_cells(column):
    """The `%` code and the cell lists of one column, or of a chunk of one.
    A float array is written with `%.17g`, an int array with `%d`, and a 2-D
    int array of key rows (one row per cell) with one `%d` per entry, joined
    by `_`.  A bool array, and a list (or tuple), get `%s`: a list of strings
    is taken as it is, any other list goes cell by cell through `_fmt`, and
    the strings are then quoted by `_quoted`."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        if column.ndim == 2:
            return "_".join(["%d"] * column.shape[1]), column.T.tolist()
        if column.dtype.kind == "f":
            return "%.17g", [column.astype(float, copy=False).tolist()]
        return "%s" if column.dtype.kind == "b" else "%d", [column.tolist()]
    cells = list(column)
    if not set(map(type, cells)) <= {str}:
        cells = list(map(_fmt, cells))
    return "%s", [_quoted(cells)]


def _table_text(columns):
    """The CSV lines of equal-length columns through one row template, one
    `%` code per column.  The columns are converted `_CHUNK_ROWS` rows at a
    time: each chunk's cells are formatted, quoted and written before the
    next chunk's are made, so a long table never holds all its cells as
    Python objects at once."""
    if len(set(map(len, columns))) > 1:
        raise ValueError("table columns differ in length")
    for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
        codes, cells = [], []
        for column in columns:
            code, lists = _column_cells(column[start:start + _CHUNK_ROWS])
            codes.append(code)
            cells += lists
        if codes == ["%s"] and "" in cells[0]:  # csv writes a lone empty field as ""
            cells = [['""' if c == "" else c for c in cells[0]]]
        template = ",".join(codes) + "\n"
        yield "".join(map(template.__mod__, zip(*cells)))


def _write_table(path: Path, header, columns) -> None:
    """One CSV: the header, then one row per position of the equal-length
    columns.  The header is a table of one-cell string columns, so it is
    written, quoted and checked by the same template path as the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_table_text([[name] for name in header]))
        fh.writelines(_table_text(columns))


def emit_report(experiment: str, result: ExperimentResult, out_dir: Path,
                config_echo: dict) -> list:
    """One CSV per table, each written by `_write_table` through one row
    template, plus summary.json; returns the written paths.  A directory or
    file that cannot be made or written raises ConfigError."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {out_dir}: {exc}") from exc
    summary = {
        "experiment": experiment,
        "schema": SCHEMA_VERSION,
        "assertions": result.assertions,
        "hard_passed": sum(1 for a in result.assertions if a["hard"] and a["ok"]),
        "hard_failed": len(result.hard_failures),
        "flags": sorted(result.flags),
        "headline": result.headline,
        "config": config_echo,
    }
    written = []
    try:
        for name, (header, columns) in result.tables.items():
            path = out_dir / f"{name}.csv"
            _write_table(path, header, columns)
            written.append(path)
        path = out_dir / "summary.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    written.append(path)
    return written


def _resolve_out(cfg: dict, out_dir, default_leaf: str) -> Path:
    """`out_dir` if given, else the config's `out`.  `out` is read as a
    string either way; absent, null or empty, it is runs/<default_leaf>."""
    out = cfg.get("out")
    out = "" if out is None else _value(_string, out, "out")
    if out_dir is not None:
        return Path(out_dir)
    return Path(out) if out else Path("runs") / default_leaf


# -- run / sweep ---------------------------------------------------------------


def _execute(cfg: dict, out_dir, echo: dict):
    """Build a loaded config's context, run its experiment and write its
    report, with `echo` as the summary's config, to `out_dir` (None: the
    config's `out`); returns (result, output directory, written files).
    A subnormal cell volume h^d is flagged.  `run` and every sweep point
    go through here."""
    ctx = _build_context(cfg)
    out = _resolve_out(cfg, out_dir, ctx.experiment)
    result = EXPERIMENTS[ctx.experiment][0](ctx)
    if 0.0 < ctx.domain.cell_volume < sys.float_info.min:  # h^d has lost bits
        result.flags.append("subnormal-cell-volume")
    return result, out, emit_report(ctx.experiment, result, out, echo)


def run(config, out_dir=None, seed=None) -> int:
    """Execute one experiment; 0 pass / 1 hard-assertion failure / 2 bad config /
    3 numerical failure (a solver or identity check, never the config)."""
    try:
        cfg = _load(config, seed)
        result, out, files = _execute(cfg, out_dir, cfg)
    except ValueError as exc:
        # ConfigError and library-level rejections (bad eps lists,
        # degenerate probes, ...) are configuration mistakes, not
        # assertion failures.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    for a in result.assertions:
        kind = "hard" if a["hard"] else "soft"
        print(f"{'PASS' if a['ok'] else 'FAIL'} [{kind}] {a['name']}: {a['detail']}")
    for flag in sorted(result.flags):
        print(f"FLAG {flag}")
    print(f"wrote {len(files)} files to {out}")
    failures = result.hard_failures
    if failures:
        first = failures[0]
        print(f"first failure: {first['name']}: {first['detail']}", file=sys.stderr)
        return 1
    return 0


def _axis_value(axis: str, value):
    """A sweep value read by the reader of the key its axis sets: domain.m
    an integer (an integral float such as 6.0 names the m = 6 point), the
    exponents a finite number, a symbol id a string."""
    if axis == "m":
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return _value(_integer, value, "domain.m")
    if axis == "symbol":
        return _value(_string, value, "sweep symbol")
    return _value(_number, value, "exponents.q" if axis == "q" else "exponents.p")


def _point_config(cfg: dict, axis: str, value) -> dict:
    point = copy.deepcopy(cfg)
    point.pop("sweep", None)
    point.pop("out", None)
    value = _axis_value(axis, value)
    if axis == "m":
        point.setdefault("domain", {})["m"] = value
    elif axis != "symbol":  # p, q or pq
        for key in ("p", "q") if axis == "pq" else (axis,):
            point.setdefault("exponents", {})[key] = value
    else:  # symbol
        keep = [s for s in point.get("symbols") or []
                if isinstance(s, dict) and s.get("id") == value]
        if not keep:
            raise ConfigError(f"sweep symbol {value!r} not among config symbols")
        point["symbols"] = keep
    return point


def _point_tag(axis: str, value) -> str:
    """Directory name of a sweep point; 6 and 6.0 share one."""
    if isinstance(value, float) and value.is_integer():
        return f"{axis}-{int(value)}"
    return f"{axis}-{value}"


def sweep(config, out_dir=None, seed=None) -> int:
    """Repeat the configured experiment along one axis, one point after
    another through `run`'s step, one row per point."""
    try:
        cfg = _load(config, seed)
        spec = _read(cfg.get("sweep"), _SWEEP, "sweep")
        axis, values = spec["axis"], spec["values"]
        experiment = _value(_choice(*EXPERIMENTS), cfg.get("experiment"), "experiment")
        out = _resolve_out(cfg, out_dir, f"sweep-{experiment}")
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    outcomes, tags = [], set()  # (value, status, detail, result or None)
    for value in values:
        try:
            point_cfg = _point_config(cfg, axis, value)
            tag = _point_tag(axis, value)
            if any(c in tag for c in "/\\\0"):
                raise ConfigError(f"point directory {tag!r} is not a single path component")
            if tag in tags:
                raise ConfigError(f"point directory {tag} is taken by an earlier point")
            tags.add(tag)
        except (TypeError, ValueError) as exc:  # ConfigError included
            outcomes.append((value, "config-error", str(exc), None))
            continue
        try:
            result = _execute(point_cfg, out / tag, {"axis": axis, "value": value})[0]
            outcomes.append((value, "ok", "", result))
        except ValueError as exc:  # ConfigError included, an unwritable point too
            outcomes.append((value, "config-error", str(exc), None))
        except NumericalError as exc:
            outcomes.append((value, "numerical-error", str(exc), None))
        except Exception as exc:  # row-level status, not a crashed sweep
            outcomes.append((value, "error", f"{type(exc).__name__}: {exc}", None))

    headline_keys = sorted(
        {k for _, _, _, res in outcomes if res is not None for k in res.headline}
    )
    header = [axis, "status", "detail", "hard_passed", "hard_failed", *headline_keys]
    rows, any_bad = [], False
    for value, status, detail, res in outcomes:
        if res is None:
            rows.append((value, status, detail, "", "", *[""] * len(headline_keys)))
            any_bad = True
            continue
        failed = len(res.hard_failures)
        passed = sum(1 for a in res.assertions if a["hard"] and a["ok"])
        status = "ok" if failed == 0 else "assertion-failed"
        any_bad = any_bad or failed > 0
        rows.append((value, status, detail, passed, failed,
                     *[res.headline.get(k, "") for k in headline_keys]))

    path = out / "sweep.csv"
    try:
        _write_table(path, header, list(zip(*rows)))
    except OSError as exc:
        print(f"config error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path} ({len(rows)} points)")
    return 1 if any_bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="Dyadic two-weight commutator experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("run", "execute one experiment"),
                           ("sweep", "repeat an experiment along one axis")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="replace the config seed list with this one seed")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, seed=args.seed)
    return sweep(args.config, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
