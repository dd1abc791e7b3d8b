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


def gaussian_bump_sum(rng, count_max=5, center_range=(-8.0, 8.0),
                      sigma_range=(0.4, 2.0), amp_range=(0.3, 3.0), n=1):
    """Sum of up to ``count_max`` Gaussian bumps on R^n, random signs."""
    k = int(rng.integers(1, count_max + 1))
    amps = rng.uniform(*amp_range, k) * rng.choice([-1.0, 1.0], k)
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


def axb_bump_sum(rng, count_max=3, x_range=(-3.0, 3.0), u_range=(-1.0, 1.0),
                 sigma_x=(0.25, 0.7), sigma_u=(0.2, 0.5), amp_range=(0.5, 2.0),
                 truncate=6.0):
    """Gaussians in (x, log a) on the affine group, truncated at 6 sigma."""
    k = int(rng.integers(1, count_max + 1))
    amps = rng.uniform(*amp_range, k)
    cx = rng.uniform(*x_range, k)
    cu = rng.uniform(*u_range, k)
    sx = rng.uniform(*sigma_x, k)
    su = rng.uniform(*sigma_u, k)

    def fn(x, a):
        u = np.log(a)
        out = 0.0
        for A, mx, mu, s1, s2 in zip(amps, cx, cu, sx, su):
            dx = (x - mx) / s1
            du = (u - mu) / s2
            bump = A * np.exp(-(dx**2 + du**2) / 2.0)
            bump = bump * (np.abs(dx) <= truncate) * (np.abs(du) <= truncate)
            out = out + bump
        return out

    return FunctionSpec("axb-bumps", fn, {"kind": "axb-bumps", "count": k})


def piecewise_constant(rng, pieces=8, window=(-4.0, 4.0), amp_range=(-2.0, 2.0)):
    """Random step function on an interval, for brute-force oracle tests."""
    edges = np.sort(rng.uniform(window[0], window[1], pieces - 1))
    edges = np.concatenate([[window[0]], edges, [window[1]]])
    levels = rng.uniform(*amp_range, pieces)

    def fn(x):
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, pieces - 1)
        inside = (x >= window[0]) & (x <= window[1])
        return np.where(inside, levels[idx], 0.0)

    return FunctionSpec("steps", fn, {"kind": "piecewise-constant"})


def lattice_sequence(rng, support_radius=4, max_count=4, values=(-2, -1, 1, 2), n=1):
    """Finitely supported random sequence on Z^n."""
    count = int(rng.integers(1, max_count + 1))
    pos = rng.integers(-support_radius, support_radius + 1, (count, n))
    vals = rng.choice(values, count)
    table = {}
    for p, v in zip(pos, vals):
        table[tuple(int(t) for t in p)] = table.get(tuple(int(t) for t in p), 0) + v

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


def atom_cloud(rng, count=3, box=(-2.0, 2.0), mass_range=(0.5, 2.0), group=None):
    """Random finite atomic measure inside a coordinate box."""
    atoms = []
    for _ in range(count):
        if group is not None and group.kind == "axb":
            x = rng.uniform(box[0], box[1], group.n)
            a = float(np.exp(rng.uniform(-0.5, 0.5)))
            point = np.concatenate([x, [a]])
        elif group is not None and group.kind == "lattice":
            point = rng.integers(int(box[0]), int(box[1]) + 1, group.n).astype(float)
        else:
            n = group.n if group is not None else 1
            point = rng.uniform(box[0], box[1], n)
        mass = float(rng.uniform(*mass_range)) * float(rng.choice([-1.0, 1.0]))
        atoms.append((point, mass))
    return MeasureSpec("atoms", atoms, {"kind": "atom-cloud", "count": count})


FAMILY_BUILDERS = {
    "gaussian-bumps": gaussian_bump_sum,
    "axb-bumps": axb_bump_sum,
    "piecewise-constant": piecewise_constant,
    "lattice-sequence": lattice_sequence,
    "atom-cloud": atom_cloud,
}

# the builders that take ``n`` and sample R^n or Z^n for any n
N_DIMENSIONAL_FAMILIES = frozenset({"gaussian-bumps", "lattice-sequence"})


def build_family(kind, count, seed, **kwargs):
    """A list of specs drawn from one family with one seeded generator."""
    rng = generator(seed)
    builder = FAMILY_BUILDERS[kind]
    return [builder(rng, **kwargs) for _ in range(count)]
