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
status; points run concurrently under a worker cap but every file is
written from the coordinating thread.

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
from dyadlab.lattice import LatticeDomain, SampledFunction, sample_symbol
from dyadlab.operators import Convolution, NumericalError, make_kernel
from dyadlab.weights import (
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
    """A JSON number, as a float: strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"need a number, got {value!r}")
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
# catalog section has a table per kind, picked by its "kind" (a kernel's "variant").
_DOMAIN = {"d": (_choice(1, 2), 1), "m": (_integer, 8), "L": (_number, 1.0)}
_EXPONENTS = {"p": (_number, 2.0), "q": (_number, 2.0)}
_WEIGHTS = {
    "unit": {},
    "power": {"beta": (_number, 0.0)},
    "logsmooth": {"amplitude": (_number, 0.5), "modes": (_integer, 3), "seed": (_integer, 0)},
}
_WEIGHT_SLOTS = {"mu": (_WEIGHTS, {"kind": "unit"}), "lambda": (_WEIGHTS, {"kind": "unit"})}
_KERNELS = {"hilbert": {}, "riesz": {"j": (_choice(1, 2), None)}}  # the reader refuses None
_COEFFICIENT = {"coefficient": (_coefficient, 1.0)}
_TERMS = {
    "constant": _COEFFICIENT,
    "coordinate": {**_COEFFICIENT, "axis": (_integer, 0)},
    "abs_power": {**_COEFFICIENT, "exponent": (_number, 1.0)},
    "log_abs": _COEFFICIENT,
    "bump": {**_COEFFICIENT, "center": (_numbers, [0.0]), "radius": (_number, 1.0)},
}
_SYMBOL = {"id": (_string, None), "terms": (_list(lambda term: term), None)}  # each term: _TERMS
_PARAMS = {  # one table per experiment
    "weights-check": {},
    "bloom-verify": {},
    "bmo-compute": {"r": (_number, 1.0)},
    "jn-verify": {"r": (_number, 2.0)},
    "sparse-dominate": {},
    "commutator-sweep": {"budget": (_positive(_integer), 8), "probe_generation": (_integer, 3)},
    "compactness-profile": {"eps_list": (_numbers, [0.5, 0.25, 0.125, 0.0625, 0.03125]),
                            "k_list": (_list(_positive(_number)), [1.0, 2.0, 4.0, 8.0]),
                            "budget": (_positive(_integer), 8)},
    "vmo-witness": {"r": (_number, 1.0), "c0": (_number, 0.5), "theta": (_number, 0.125),
                    "mode": (_choice(None, "small-scale", "far-away", "large-scale"), None),
                    "min_pairs": (_positive(_integer), 2)},
}

EXPERIMENTS = tuple(_PARAMS)
SWEEP_AXES = ("m", "p", "q", "pq", "symbol")
# each value is read at its point, by the reader of the key the axis sets
_SWEEP = {"axis": (_choice(*SWEEP_AXES), None), "values": (_list(lambda value: value), None)}
_KNOWN_KEYS = frozenset(
    {"schema", "experiment", "domain", "exponents", "weights", "symbols",
     "kernel", "seeds", "params", "out", "sweep"}
)
_NEED_SYMBOLS = frozenset(
    {"bmo-compute", "jn-verify", "commutator-sweep", "compactness-profile",
     "vmo-witness"}
)
_NEED_KERNEL = frozenset({"commutator-sweep", "compactness-profile"})
# the membership surrogate resamples each weight at m - 1
_COARSEN_WEIGHTS = frozenset({"weights-check", "bloom-verify"})


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


def _load(config) -> dict:
    if isinstance(config, dict):
        return copy.deepcopy(config)
    if not isinstance(config, (str, os.PathLike)):
        raise ConfigError(f"config must be a mapping or a path, got {type(config).__name__}")
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
    return cfg


def _reject_non_finite(value, path: str) -> None:
    """ConfigError naming the key path of the first NaN or infinity."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{path}[{i}]")


def _value(reader, value, path: str):
    """One value through its reader, or a catalog spec through its kind
    tables; a refused value is a ConfigError naming its dotted key."""
    if isinstance(reader, dict):
        return _read(value, reader, path, tag="kind")
    try:
        return reader(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read(spec, table: dict, path: str, tag: str = "") -> dict:
    """Every key of `table` read from the mapping `spec` (null reads as
    empty), an absent key as its default.  With a `tag`, `table` holds a
    table per kind, and `spec[tag]` names the one read.  A key outside the
    table is a ConfigError naming it."""
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(spec).__name__}")
    if tag:
        kind = _value(_choice(*table), spec.get(tag), f"{path}.{tag}")
        table = {tag: (_choice(kind), kind), **table[kind]}
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
    _reject_non_finite(cfg, "")
    unknown = set(cfg) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    _value(_choice(SCHEMA_VERSION), cfg.get("schema", SCHEMA_VERSION), "schema")
    experiment = _value(_choice(*EXPERIMENTS), cfg.get("experiment"), "experiment")
    domain = _made("domain", LatticeDomain, **_read(cfg.get("domain"), _DOMAIN, "domain"))
    setup = _made("exponents", ExponentSetup, d=domain.d,
                  **_read(cfg.get("exponents"), _EXPONENTS, "exponents"))
    weights = _read(cfg.get("weights"), _WEIGHT_SLOTS, "weights")
    for slot, spec in weights.items():
        if (experiment in _COARSEN_WEIGHTS and spec["kind"] == "logsmooth"
                and spec["modes"] > domain.n // 2):
            raise ConfigError(f"weights.{slot}.modes: {experiment} resamples the weight at "
                              f"m - 1, so logsmooth modes must be <= 2^(m-1) = "
                              f"{domain.n // 2} at m = {domain.m}, got {spec['modes']}")
    mu, lam = (_made(f"bad weight spec weights.{slot}", make_weight, domain, weights[slot])
               for slot in ("mu", "lambda"))

    symbols = []
    seen = set()
    symbol_specs = cfg.get("symbols") or []
    if not isinstance(symbol_specs, list):
        raise ConfigError("symbols must be a list")
    for i, entry in enumerate(symbol_specs):
        entry = _read(entry, _SYMBOL, f"symbols[{i}]")
        sid = entry["id"]
        if sid in seen:
            raise ConfigError(f"duplicate symbol id {sid!r}")
        seen.add(sid)
        terms = [_read(t, _TERMS, f"symbols[{i}].terms[{j}]", tag="kind")
                 for j, t in enumerate(entry["terms"])]
        symbols.append((sid, _made(f"bad symbol {sid!r}", sample_symbol, domain, terms)))
    if experiment in _NEED_SYMBOLS and not symbols:
        raise ConfigError(f"experiment {experiment} needs at least one symbol")

    kernel = None
    if cfg.get("kernel") is not None:
        spec = _read(cfg["kernel"], _KERNELS, "kernel", tag="variant")
        kernel = make_kernel(spec.pop("variant"), spec)
        if kernel.d != domain.d:
            raise ConfigError(f"kernel {kernel.variant!r} lives at d={kernel.d}, "
                              f"domain has d={domain.d}")
    if experiment in _NEED_KERNEL and kernel is None:
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
        params=_read(cfg.get("params"), _PARAMS[experiment], "params"),
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
    for sid, b in ctx.symbols:
        rep = normest.compactness_profile(b, ctx.kernel, ctx.setup, mu=ctx.mu, lam=ctx.lam,
                                          **ctx.params)
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


_EXPERIMENT_FUNCS = {
    "weights-check": _exp_weights_check,
    "bloom-verify": _exp_bloom_verify,
    "bmo-compute": _exp_bmo_compute,
    "jn-verify": _exp_jn_verify,
    "sparse-dominate": _exp_sparse_dominate,
    "commutator-sweep": _exp_commutator_sweep,
    "compactness-profile": _exp_compactness_profile,
    "vmo-witness": _exp_vmo_witness,
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
    """The `%` code and the cell lists of one column.  A float array is
    written with `%.17g`, an int array with `%d`, and a 2-D int array of key
    rows (one row per cell) with one `%d` per entry, joined by `_`.  A bool
    array, and a list (or tuple), get `%s`: a list of strings is taken as
    it is, any other list goes cell by cell through `_fmt`, and the strings
    are then quoted by `_quoted`."""
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
    `%` code per column, in chunks of `_CHUNK_ROWS` rows."""
    codes, cells = [], []
    for column in columns:
        code, lists = _column_cells(column)
        codes.append(code)
        cells += lists
    if len(set(map(len, cells))) > 1:
        raise ValueError("table columns differ in length")
    if not cells:  # no columns, no rows
        return
    if codes == ["%s"] and "" in cells[0]:  # csv writes a lone empty field as ""
        cells = [['""' if c == "" else c for c in cells[0]]]
    template = ",".join(codes) + "\n"
    for start in range(0, len(cells[0]), _CHUNK_ROWS):
        chunk = [c[start:start + _CHUNK_ROWS] for c in cells]
        yield "".join(map(template.__mod__, zip(*chunk)))


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
    if out_dir is not None:
        return Path(out_dir)
    if cfg.get("out"):
        return Path(cfg["out"])
    return Path("runs") / default_leaf


# -- run / sweep ---------------------------------------------------------------


def run(config, out_dir=None, seed=None) -> int:
    """Execute one experiment; 0 pass / 1 hard-assertion failure / 2 bad config /
    3 numerical failure (a solver or identity check, never the config)."""
    try:
        cfg = _load(config)
        if seed is not None:
            cfg["seeds"] = [int(seed)]
        ctx = _build_context(cfg)
        result = _EXPERIMENT_FUNCS[ctx.experiment](ctx)
        out = _resolve_out(cfg, out_dir, ctx.experiment)
        files = emit_report(ctx.experiment, result, out, cfg)
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


def _worker_cap(workers, n_points: int) -> int:
    cap = 4 if workers is None else int(workers)
    if cap < 1:
        raise ConfigError("worker cap must be >= 1")
    return min(cap, max(1, n_points))


def _point_config(cfg: dict, axis: str, value) -> dict:
    point = copy.deepcopy(cfg)
    point.pop("sweep", None)
    point.pop("out", None)
    if axis == "m":
        if isinstance(value, float) and value.is_integer():  # 6.0 names the m = 6 point
            value = int(value)
        point.setdefault("domain", {})["m"] = _value(_integer, value, "domain.m")
    elif axis != "symbol":  # p, q or pq
        for key in ("p", "q") if axis == "pq" else (axis,):
            point.setdefault("exponents", {})[key] = _value(_number, value, f"exponents.{key}")
    else:  # symbol
        value = _value(_string, value, "sweep symbol")
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


def _run_point(point_cfg: dict):
    ctx = _build_context(point_cfg)
    return _EXPERIMENT_FUNCS[ctx.experiment](ctx)


def sweep(config, out_dir=None, seed=None, workers=None) -> int:
    """Repeat the configured experiment along one axis, one row per point."""
    try:
        cfg = _load(config)
        if seed is not None:
            cfg["seeds"] = [int(seed)]
        spec = _read(cfg.get("sweep"), _SWEEP, "sweep")
        axis, values = spec["axis"], spec["values"]
        experiment = _value(_choice(*EXPERIMENTS), cfg.get("experiment"), "experiment")
        cap = _worker_cap(workers, len(values))
        out = _resolve_out(cfg, out_dir, f"sweep-{experiment}")
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    points, tags = [], set()
    for value in values:
        try:
            point_cfg = _point_config(cfg, axis, value)
            tag = _point_tag(axis, value)
            if any(c in tag for c in "/\\\0"):
                raise ConfigError(f"point directory {tag!r} is not a single path component")
            if tag in tags:
                raise ConfigError(f"point directory {tag} is taken by an earlier point")
            tags.add(tag)
            points.append((value, point_cfg, None))
        except (TypeError, ValueError) as exc:  # ConfigError included
            points.append((value, None, str(exc)))

    from concurrent.futures import ThreadPoolExecutor  # only a sweep needs it

    outcomes = []
    with ThreadPoolExecutor(max_workers=cap) as pool:
        futures = [None if point_cfg is None else pool.submit(_run_point, point_cfg)
                   for _, point_cfg, _ in points]
        for (value, point_cfg, err), future in zip(points, futures):
            if future is None:
                outcomes.append((value, "config-error", err, None))
                continue
            try:
                outcomes.append((value, "ok", "", future.result()))
            except ValueError as exc:  # ConfigError included
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
        try:
            emit_report(cfg["experiment"], res, out / _point_tag(axis, value),
                        {"axis": axis, "value": value})
        except ConfigError as exc:  # the point's files could not be written
            rows.append((value, "config-error", str(exc), "", "", *[""] * len(headline_keys)))
            any_bad = True
            continue
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
        sp.add_argument("--workers", type=int, default=None,
                        help="sweep worker cap")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, seed=args.seed)
    return sweep(args.config, out_dir=args.out, seed=args.seed, workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
