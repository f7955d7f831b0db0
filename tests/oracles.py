"""Slow reference paths the tests compare the library against."""

import itertools

from dyadlab import dyadic


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
