"""Well-spread sets and bounded uniform partitions of unity.

Certifies covering density and relative separation for the integer lattice
on the line and for the geometric lattice of the affine group, then builds
renormalized hat partitions subordinate to both.
"""

import os
import tempfile

import numpy as np

from wamalgam import (
    AxbGrid,
    AxbGroup,
    AxbWindow,
    BoxWindow,
    Euclidean,
    UniformGrid,
    build_axb_lattice,
    build_bupu,
    check_density,
    check_relatively_separated,
    euclidean_lattice,
    verify_bupu,
)
from wamalgam.discretization import bupu_to_csv

# --- the integer lattice inside R -------------------------------------------

E = Euclidean(1)
grid = UniformGrid(E, -10, 10, 640)
X = euclidean_lattice(grid, 1.0)
print("Z in R: separation constant for [0,1]  =",
      check_relatively_separated(X, BoxWindow.interval(0, 1)))
print("        density cert for [-1/2,1/2]    =",
      check_density(X, BoxWindow.centered(0.5, 1))["covered"])

bupu = build_bupu(X, BoxWindow.centered(1.0, 1), grid=grid)
print("        hat BUPU check                 =", verify_bupu(bupu))

# --- the affine lattice (a0 b0^-j k, b0^-j) ---------------------------------

G = AxbGroup(1)
agrid = AxbGrid(G, -4, 4, 64, 0.25, 4.0, 40)
lattice = build_axb_lattice(0.5, 2.0, j_range=(-2, 2), grid=agrid, x_extent=4.0)
print("\nax+b lattice: points                  =", len(lattice))
print("              density for U(1,2)       =",
      check_density(lattice, AxbWindow(1.0, 2.0))["covered"])
print("              separation for U(1/2,2^½)=",
      check_relatively_separated(lattice, AxbWindow(0.5, np.sqrt(2.0))))

abupu = build_bupu(lattice, AxbWindow(1.0, 2.0))
print("              affine hat BUPU check    =", verify_bupu(abupu))

with tempfile.TemporaryDirectory() as tmp:
    with open(bupu_to_csv(abupu, os.path.join(tmp, "axb_bupu.csv"))) as fh:
        print("              exported CSV rows        =", sum(1 for _ in fh) - 1)
