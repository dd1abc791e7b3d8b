"""Convolution relations and the failure of plain L^p for p < 1.

Three acts: the exact weighted l^p algebra on the integers, the convolution
algebra W(Linf, L^p_w) on the real line, and the demonstration that the
convolution integral itself diverges for a p-integrable singularity while
the amalgam's local sup control excludes it.
"""

import warnings

from wamalgam import (
    AmalgamSpace,
    BoxWindow,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    UniformGrid,
    WeightedLp,
    convolve,
    delta_comb,
    demonstrate_lp_failure,
    quasi_norm,
    shifted_power_weight,
    verify_embedding,
)
from wamalgam.errors import TruncationWarning
from wamalgam.families import gaussian_bump_sum, generator
from wamalgam.relations import exhaustive_lp_algebra

# --- exact algebra on Z -------------------------------------------------------

print("exhaustive l^p_w algebra on Z (support 4, values {-1,0,1,2}):")
for p in (0.5, 1.0):
    for weighted in (False, True):
        rec = exhaustive_lp_algebra(p, weighted)
        w = "(1+|i|)" if weighted else "1"
        print(f"  p = {p}, w = {w:7s}: {rec['pairs_checked']} pairs, "
              f"{rec['violations']} violations, C_emp = {rec['c_emp']:.6f}")

Z = IntegerLattice(1)
zgrid = LatticeGrid(Z, -8, 8)
F = delta_comb({0: 1, 1: 1}).sample(zgrid)
C = convolve(F, F)
print("  spot check: ||(d0+d1)*(d0+d1)||_{1/2} =",
      quasi_norm(WeightedLp(0.5), C), "= (2+sqrt 2)^2, <= 16")

# --- the IN-group convolution algebra on R -------------------------------------

E = Euclidean(1)
grid = UniformGrid(E, -16, 16, 256)
space = AmalgamSpace("linf", WeightedLp(1.0, shifted_power_weight(2.0)),
                     BoxWindow.centered(0.5, 1))
rng = generator(42)
left = [gaussian_bump_sum(rng, center_range=(-3, 3)) for _ in range(5)]
right = [gaussian_bump_sum(rng, center_range=(-3, 3)) for _ in range(5)]
with warnings.catch_warnings():
    warnings.simplefilter("ignore", TruncationWarning)
    report = verify_embedding(
        "cor_conv_Lp", left, right, grid=grid,
        target_norm=space.norm, left_norm=space.norm,
        right_norm=space.norm, levels=2, family="bumps")
print("\nW(Linf, L^1_w) * W(Linf, L^1_w) -> W(Linf, L^1_w) on R:")
print("  C_emp per refinement level:", [round(c, 4) for c in report.refinement_trace],
      " passed:", report.passed)

# --- why plain L^{1/2} carries no convolution ----------------------------------

rep = demonstrate_lp_failure()
print("\nF(x) = x^{-3/2} on (0,1]:")
print("  ||F | L^{1/2}||            =", round(rep["lp_norm"], 3),
      " (analytic 16)")
print("  (F * chi)(1) quadratures   =",
      [f"{v:.3g}" for v in rep["convolution_values"]],
      " growth", [round(g, 2) for g in rep["convolution_growth"]])
print("  W(Linf, L^{1/2}) verdict   =", rep["amalgam_norm"],
      " trace:", rep["amalgam_norm_trace"])
