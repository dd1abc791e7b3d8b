"""The paper's convolution relations as one table, ``RELATIONS``.

Rauhut, *Wiener amalgam spaces with respect to quasi-Banach spaces*
(arXiv math/0507465): the l^p_w(Z) algebra ``cor_conv_Lp``, the relations
on R ``thm_conv_a``, ``thm_conv_b`` and ``thm_convYvee``, and the ax+b
example ``axb_relation``. Each row has a ``name``, its default ``grid``
(None when it samples none) and ``run(settings)``, which returns the
report record, with ``passed`` and ``c_emp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .amalgam import AmalgamSpace
from .axb import verify_axb_convolution
from .components import WeightedLp, constant_weight, shifted_power_weight
from .convolution import verify_embedding
from .errors import InvalidExponentError
from .families import build_family
from .groups import AxbGrid, AxbGroup, Euclidean, UniformGrid, tensor_points
from .windows import BoxWindow


def exhaustive_lp_algebra(p, weighted, support_len=4, offset=-1,
                          values=(-1, 0, 1, 2)):
    """Exhaustive l^p_w algebra check over short integer sequences, with
    ``w = 1 + |k|`` when ``weighted``, else ``w = 1``."""
    if not p > 0:
        raise InvalidExponentError(f"p must be positive, got {p}")
    seqs = tensor_points([np.array(values)] * support_len).astype(float)
    conv = np.zeros((len(seqs), len(seqs), 2 * support_len - 1))
    for i in range(support_len):
        conv[:, :, i:i + support_len] += seqs[:, None, i, None] * seqs[None, :, :]
    coords_f = np.arange(offset, offset + support_len)
    coords_c = np.arange(2 * offset, 2 * offset + 2 * support_len - 1)
    wf = (1.0 + np.abs(coords_f)) if weighted else np.ones(support_len)
    wc = (1.0 + np.abs(coords_c)) if weighted else np.ones(2 * support_len - 1)
    norm_f = np.sum(np.abs(seqs * wf) ** p, axis=1) ** (1.0 / p)
    norm_c = np.sum(np.abs(conv * wc) ** p, axis=2) ** (1.0 / p)
    products = norm_f[:, None] * norm_f[None, :]
    nonzero = products > 0
    ratios = np.where(nonzero, norm_c / np.where(nonzero, products, 1.0), 0.0)
    violations = int(np.sum(ratios > 1.0 + 1e-9))
    return {
        "p": p,
        "weighted": weighted,
        "pairs_checked": int(nonzero.sum()),
        "violations": violations,
        "c_emp": float(ratios.max()),
    }


@dataclass(frozen=True)
class RelationSettings:
    """One run of a relation; a None field keeps the row's own default."""

    seed: int = 0
    levels: int = 2
    p: float | None = None
    q: float = 1.0
    weighted: bool = False
    weight: object = None
    grid: object = None
    count: int | None = None


def _default(value, fallback):
    return fallback if value is None else value


class LpAlgebra:
    """``cor_conv_Lp`` at p (default 1/2), weighted by ``1 + |k|`` or not."""

    name, grid = "cor_conv_Lp", None

    def run(self, s):
        rec = exhaustive_lp_algebra(_default(s.p, 0.5), s.weighted)
        return {"relation": self.name, "passed": rec["violations"] == 0,
                "c_emp": rec["c_emp"], "refinement_trace": [rec["c_emp"]],
                "detail": rec}


@dataclass(frozen=True)
class LineRelation:
    """``||F*G||_Y <= C ||F||_left ||G||_right`` on R, F and G drawn by
    ``left(count, seed)`` and ``right(count, seed + 1)``.

    Y is W(L^inf, L^p_v) on the window [-1/2, 1/2]; the factors' norms are
    ``"Y"``, ``"M"`` for W(M, L^p_v), ``"bound"`` for W(L^inf, L^r_w) with
    r = min(1, p) and w = (1 + |x|)^|s| (s is v's exponent, 1 if it has
    none) and ``"Y-reflected"`` for Y's reflected norm. Defaults: p = 1,
    v = 1 + |x|, 8 pairs, 256 cells on [-16, 16].
    """

    name: str
    left: object
    right: object
    left_norm: str
    right_norm: str
    label: str
    grid = UniformGrid(Euclidean(1), -16.0, 16.0, 256)

    def run(self, s):
        p, v = _default(s.p, 1.0), _default(s.weight, shifted_power_weight(1.0))
        window = BoxWindow.centered(0.5, 1)
        Y = AmalgamSpace("linf", WeightedLp(p, v), window)
        w = shifted_power_weight(abs(v.params.get("s", 1.0)))
        norms = {"Y": Y.norm, "Y-reflected": Y.reflected_norm,
                 "M": AmalgamSpace("m", WeightedLp(p, v), window).norm,
                 "bound": AmalgamSpace("linf", WeightedLp(min(1.0, p), w), window).norm}
        count = _default(s.count, 8)
        report = verify_embedding(
            self.name, self.left(count, s.seed), self.right(count, s.seed + 1),
            grid=_default(s.grid, self.grid),
            target_norm=norms["Y"], left_norm=norms[self.left_norm],
            right_norm=norms[self.right_norm], levels=s.levels, family=self.label)
        return report.as_record()


class AxbRelation:
    """``axb_relation`` over seeded axb-bumps pairs: defaults p = q = 1,
    v = 1 and 6 pairs on the 80 x 48 grid of [-6, 6] x [1/8, 8]."""

    name = "axb_relation"
    grid = AxbGrid(AxbGroup(1), -6.0, 6.0, 80, 0.125, 8.0, 48)

    def run(self, s):
        count, grid = _default(s.count, 6), _default(s.grid, self.grid)
        report = verify_axb_convolution(
            _default(s.weight, constant_weight(1.0)), _default(s.p, 1.0), s.q,
            build_family("axb-bumps", count, s.seed),
            build_family("axb-bumps", count, s.seed + 1), grid=grid, levels=s.levels)
        return report.as_record()


_ATOMS = partial(build_family, "atom-cloud")
_BUMPS = partial(build_family, "gaussian-bumps", center_range=(-4.0, 4.0))

RELATIONS = {row.name: row for row in (
    LpAlgebra(),
    LineRelation("thm_conv_a", _ATOMS, _BUMPS, "M", "bound", "measures * bumps"),
    LineRelation("thm_conv_b", _BUMPS, _BUMPS, "Y", "bound", "bumps * bumps"),
    LineRelation("thm_convYvee", _BUMPS, _BUMPS, "bound", "Y-reflected",
                 "bumps * reflected bumps"),
    AxbRelation(),
)}
