"""Seeded test-function families used by sweeps, reports, and the CLI.

Specs are closures over frozen parameters, so the same spec can be
re-sampled on refined grids. Randomness always flows through a
``numpy.random.Generator`` seeded with PCG64; given the seed, every family
is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .amalgam import DiscreteMeasure
from .groups import SampledFunction


def generator(seed):
    """The package-wide seeded generator (PCG64)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass
class FunctionSpec:
    """Grid-independent description of a test function."""

    name: str
    fn: object
    meta: dict = field(default_factory=dict)

    def sample(self, grid):
        return SampledFunction.sample(grid, self.fn)


@dataclass
class MeasureSpec:
    """Finitely many atoms; sampled objects carry the ambient grid."""

    name: str
    atoms: list
    meta: dict = field(default_factory=dict)

    def sample(self, grid):
        return DiscreteMeasure(grid.group, list(self.atoms), grid=grid)


def gaussian_bump_sum(rng, center_range=(-8.0, 8.0), sigma_range=(0.4, 2.0), n=1):
    """Sum of up to 5 Gaussian bumps on R^n, amplitudes 0.3 to 3, random signs."""
    k = int(rng.integers(1, 6))
    amps = rng.uniform(0.3, 3.0, k) * rng.choice([-1.0, 1.0], k)
    centers = rng.uniform(center_range[0], center_range[1], (k, n))
    sigmas = rng.uniform(*sigma_range, k)

    def fn(*coords):
        out = 0.0
        for a, c, s in zip(amps, centers, sigmas):
            q = 0.0
            for axis, coord in enumerate(coords):
                q = q + (coord - c[axis]) ** 2
            out = out + a * np.exp(-q / (2 * s**2))
        return out

    meta = {"kind": "gaussian-bumps", "count": k}
    return FunctionSpec("bumps", fn, meta)


def axb_bump_sum(rng, count_max=3, x_range=(-3.0, 3.0)):
    """Gaussians in (x, log a) on the affine group, truncated at 6 sigma:
    amplitudes 0.5 to 2, centers u = log a in [-1, 1], widths 0.25 to 0.7
    in x and 0.2 to 0.5 in u."""
    k = int(rng.integers(1, count_max + 1))
    amps = rng.uniform(0.5, 2.0, k)
    cx = rng.uniform(*x_range, k)
    cu = rng.uniform(-1.0, 1.0, k)
    sx = rng.uniform(0.25, 0.7, k)
    su = rng.uniform(0.2, 0.5, k)

    def fn(x, a):
        u = np.log(a)
        out = 0.0
        for A, mx, mu, s1, s2 in zip(amps, cx, cu, sx, su):
            dx = (x - mx) / s1
            du = (u - mu) / s2
            bump = A * np.exp(-(dx**2 + du**2) / 2.0)
            bump = bump * (np.abs(dx) <= 6.0) * (np.abs(du) <= 6.0)
            out = out + bump
        return out

    return FunctionSpec("axb-bumps", fn, {"kind": "axb-bumps", "count": k})


def piecewise_constant(rng):
    """Random step function of 8 pieces on [-4, 4], levels in [-2, 2], for
    brute-force oracle tests."""
    edges = np.sort(rng.uniform(-4.0, 4.0, 7))
    edges = np.concatenate([[-4.0], edges, [4.0]])
    levels = rng.uniform(-2.0, 2.0, 8)

    def fn(x):
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, 7)
        inside = (x >= -4.0) & (x <= 4.0)
        return np.where(inside, levels[idx], 0.0)

    return FunctionSpec("steps", fn, {"kind": "piecewise-constant"})


def lattice_sequence(rng, support_radius=4, max_count=4, n=1):
    """Finitely supported random sequence on Z^n, values in {-2, -1, 1, 2}."""
    count = int(rng.integers(1, max_count + 1))
    pos = rng.integers(-support_radius, support_radius + 1, (count, n))
    vals = rng.choice((-2, -1, 1, 2), count)
    table = {}
    for p, v in zip(map(tuple, pos.tolist()), vals):
        table[p] = table.get(p, 0) + v

    def fn(*coords):
        out = np.zeros(np.broadcast_shapes(*[np.shape(c) for c in coords]))
        for p, v in table.items():
            hit = np.ones_like(out, dtype=bool)
            for axis, coord in enumerate(coords):
                hit = hit & (np.asarray(coord) == p[axis])
            out = out + v * hit
        return out

    return FunctionSpec("sequence", fn, {"kind": "lattice-sequence", "table": table})


def delta_comb(entries):
    """Deterministic sequence spec from {index: value} (1-d lattice)."""
    table = {(int(k),): float(v) for k, v in entries.items()}

    def fn(i):
        out = np.zeros(np.shape(i))
        for (k,), v in table.items():
            out = out + v * (np.asarray(i) == k)
        return out

    return FunctionSpec("comb", fn, {"kind": "lattice-sequence", "table": table})


def atom_cloud(rng):
    """Random atomic measure on R: 3 atoms in [-2, 2], masses 0.5 to 2 in
    absolute value, random signs."""
    atoms = []
    for _ in range(3):
        point = rng.uniform(-2.0, 2.0, 1)
        mass = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
        atoms.append((point, mass))
    return MeasureSpec("atoms", atoms, {"kind": "atom-cloud", "count": 3})


FAMILY_BUILDERS = {
    "gaussian-bumps": gaussian_bump_sum,
    "axb-bumps": axb_bump_sum,
    "piecewise-constant": piecewise_constant,
    "lattice-sequence": lattice_sequence,
    "atom-cloud": atom_cloud,
}

# the builders that take ``n`` and sample R^n or Z^n for any n
N_DIMENSIONAL_FAMILIES = frozenset({"gaussian-bumps", "lattice-sequence"})
# the builders that draw measures, not functions
MEASURE_FAMILIES = frozenset({"atom-cloud"})


def build_family(kind, count, seed, **kwargs):
    """A list of specs drawn from one family with one seeded generator."""
    rng = generator(seed)
    builder = FAMILY_BUILDERS[kind]
    return [builder(rng, **kwargs) for _ in range(count)]
