"""Slow reference paths the tests compare the library against."""

import itertools
import math

import numpy as np

from dyadlab import dyadic
from dyadlab.oscillation import ESCAPE_RADIUS, WitnessFamily, bmo_norm, oscillation


def enumerate_cubes(domain):
    """All cubes as objects, ordered by (generation, index): the oracle of
    dyadic.canonical_keys."""
    return [
        dyadic.cube(domain, j, idx)
        for j in range(domain.m + 1)
        for idx in itertools.product(range(2**j), repeat=domain.d)
    ]


def core_arrays(family):
    """A sparse family's cores, one array each: core i is
    cells[offsets[i]:offsets[i + 1]]."""
    bounds = family.offsets.tolist()
    return [family.cells[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def dist_to_origin(cube):
    """Euclidean distance from the origin to the closed cube, from its box:
    the oracle of dyadic._cube_distance_table."""
    box, sq = cube.box(), 0.0
    for a, b in zip(box.lo, box.hi):
        if a > 0:
            sq += a * a
        elif b < 0:
            sq += b * b
    return float(np.sqrt(sq))


# The object-based witness search: the oracle of oscillation.vmo_witness.
# Candidates are DyadicCube objects; ancestry is contains_cube, and used
# cells are tracked by set operations on sorted cell arrays.


def _candidate_cubes(b, nu, alpha, r, c0):
    tables = dyadic._levels(bmo_norm(b, nu, alpha, r).values, b.domain.d)
    return [(dyadic.cube(b.domain, j, idx), float(table[tuple(idx)]))
            for j, table in enumerate(tables) for idx in np.argwhere(table >= c0)]


def _verify_entries(b, nu, alpha, r, c0, picked):
    entries, oscs = [], []
    for cube, mask in picked:
        if mask.size == 0:
            continue
        val = oscillation(b, mask, nu=nu, alpha=alpha, r=r)
        if val >= c0 / 2.0:
            entries.append((cube, mask))
            oscs.append(val)
    return entries, oscs


def _witness_small(b, nu, alpha, r, c0, cands, theta, min_pairs):
    # big first; deterministic tie-break by generation and index
    cands = sorted(cands, key=lambda t: (-t[0].volume, t[0].generation, t[0].index))
    inv_theta = math.ceil(1.0 / theta)
    for inv in (inv_theta, 2 * inv_theta):
        accepted = []  # [cube, cells, removed cell count]
        for cube, _val in cands:
            cells = cube.flat_cells()
            ancestors = [a for a in accepted if a[0].contains_cube(cube)]
            if ancestors:
                nearest = min(ancestors, key=lambda a: a[1].size)
                if 4 * inv * cells.size > nearest[1].size:
                    continue
                if any(inv * (a[2] + cells.size) > a[1].size for a in ancestors):
                    continue
                for a in ancestors:
                    a[2] += cells.size
            accepted.append([cube, cells, 0])
        picked = []
        for i, (cube, cells, _removed) in enumerate(accepted):
            later = [a[1] for a in accepted[i + 1 :]]
            if later:
                mask = np.setdiff1d(cells, np.concatenate(later))
            else:
                mask = cells
            picked.append((cube, mask))
        entries, oscs = _verify_entries(b, nu, alpha, r, c0, picked)
        if len(entries) >= min_pairs:
            return WitnessFamily("small-scale", c0, entries, oscs)
    return None


def _witness_far(b, nu, alpha, r, c0, cands, min_pairs):
    cands = sorted(cands, key=lambda t: (dist_to_origin(t[0]), t[0].generation, t[0].index))
    step = b.domain.L / 8.0
    accepted = []
    used = np.empty(0, dtype=np.int64)
    last = None
    for cube, _val in cands:
        dist = dist_to_origin(cube)
        if dist <= 0.0:
            continue
        if last is not None and dist < last + step:
            continue
        cells = cube.flat_cells()
        if np.intersect1d(cells, used).size:
            continue
        accepted.append((cube, cells))
        used = np.concatenate([used, cells])
        last = dist
    if not accepted or dist_to_origin(accepted[-1][0]) < ESCAPE_RADIUS * b.domain.L:
        return None
    entries, oscs = _verify_entries(b, nu, alpha, r, c0, accepted)
    if len(entries) >= min_pairs:
        return WitnessFamily("far-away", c0, entries, oscs)
    return None


def _witness_large(b, nu, alpha, r, c0, cands, min_pairs):
    cands = sorted(cands, key=lambda t: (t[0].volume, t[0].generation, t[0].index))
    picked = []
    used = np.empty(0, dtype=np.int64)
    last_vol = None
    for cube, _val in cands:
        cells = cube.flat_cells()
        if last_vol is None:
            picked.append((cube, cells))
            used = cells
            last_vol = cube.volume
            continue
        if cube.volume < 2.0 * last_vol:
            continue
        mask = np.setdiff1d(cells, used)
        if 2 * mask.size < cells.size:
            continue
        if oscillation(b, mask, nu=nu, alpha=alpha, r=r) < c0 / 2.0:
            continue
        picked.append((cube, mask))
        used = np.union1d(used, cells)
        last_vol = cube.volume
    entries, oscs = _verify_entries(b, nu, alpha, r, c0, picked)
    if len(entries) >= min_pairs:
        return WitnessFamily("large-scale", c0, entries, oscs)
    return None


def vmo_witness_objects(b, nu=None, alpha=0.0, c0=0.5, mode=None, r=1.0, theta=0.125,
                        min_pairs=2):
    """vmo_witness by the object-based searchers above."""
    searchers = {
        "small-scale": lambda cands: _witness_small(b, nu, alpha, r, c0, cands, theta,
                                                    min_pairs),
        "far-away": lambda cands: _witness_far(b, nu, alpha, r, c0, cands, min_pairs),
        "large-scale": lambda cands: _witness_large(b, nu, alpha, r, c0, cands, min_pairs),
    }
    cands = _candidate_cubes(b, nu, alpha, r, c0)
    for name in (mode,) if mode is not None else searchers:
        found = searchers[name](cands)
        if found is not None:
            return found
    return None
