"""The paper's convolution relations as one table, ``RELATIONS``.

Rauhut, *Wiener amalgam spaces with respect to quasi-Banach spaces*
(arXiv math/0507465): the l^p_w(Z) algebra ``cor_conv_Lp``, the relations
on R ``thm_conv_a``, ``thm_conv_b`` and ``thm_convYvee``, and the ax+b
example ``axb_relation``. Each row has a ``name``, its default ``grid``
(None when it samples none) and ``run(settings)``, which returns the
report record, with ``passed`` and ``c_emp``.
Each embedding relation is an ``EmbeddingRow``: two families and two norm
names in the set of spaces ``SPACES`` gives its group kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .amalgam import AmalgamSpace
from .axb import translation_bound_weight
from .components import (
    MixedLpq,
    WeightedLp,
    check_doubling,
    constant_weight,
    exponential_weight,
    shifted_power_weight,
)
from .convolution import verify_embedding
from .errors import InvalidExponentError, WeightDomainError
from .families import build_family
from .groups import AxbGrid, AxbGroup, Euclidean, UniformGrid, tensor_points
from .windows import AxbWindow, BoxWindow


def exhaustive_lp_algebra(p, weighted):
    """Exhaustive l^p_w algebra check over the sequences with values in
    {-1, 0, 1, 2} on the indices -1..2, with ``w = 1 + |k|`` when
    ``weighted``, else ``w = 1``."""
    if not p > 0:
        raise InvalidExponentError(f"p must be positive, got {p}")
    norm_f, norm_c = _algebra_norms(p, weighted)
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


def _algebra_norms(p, weighted):
    """The l^p_w norms of the sequences f that ``exhaustive_lp_algebra``
    checks, and of ``f * g`` for every pair (f along rows, g along
    columns). The convolution's p-th power sums one output tap k at a time:
    the tap adds its products ``f_i g_(k-i)`` in the order of i, and the
    taps' terms add in the order of k."""
    n, start = 4, -1
    seqs = tensor_points([np.array((-1, 0, 1, 2))] * n).astype(float)
    coords_f = np.arange(start, start + n)
    coords_c = np.arange(2 * start, 2 * start + 2 * n - 1)
    wf = (1.0 + np.abs(coords_f)) if weighted else np.ones(n)
    wc = (1.0 + np.abs(coords_c)) if weighted else np.ones(2 * n - 1)
    norm_f = np.sum(np.abs(seqs * wf) ** p, axis=1) ** (1.0 / p)
    total = 0.0
    for k in range(2 * n - 1):
        tap = 0.0
        for i in range(max(0, k - n + 1), min(k, n - 1) + 1):
            tap = tap + np.multiply.outer(seqs[:, i], seqs[:, k - i])
        total = total + np.abs(tap * wc[k]) ** p
    return norm_f, total ** (1.0 / p)


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


def _line_spaces(s, n):
    """R's set: Y = W(L^inf, L^p_v) on the window [-1/2, 1/2], M = W(M, L^p_v)
    and bound = W(L^inf, L^r_w) with r = min(1, p), Y's p-exponent, and w
    the weight v is moderate for (``_moderating_weight``). Defaults: p = 1,
    v = 1 + |x|. Its family label is the row's."""
    p, v = _default(s.p, 1.0), _default(s.weight, shifted_power_weight(1.0))
    window = BoxWindow.centered(0.5, n)
    w = _moderating_weight(v)
    Y = AmalgamSpace("linf", WeightedLp(p, v), window)
    return {"Y": Y, "M": AmalgamSpace("m", WeightedLp(p, v), window),
            "bound": AmalgamSpace("linf", WeightedLp(Y.p_exponent, w), window)}, None


def _axb_spaces(s, n, alpha=None, right_weight=None):
    """ax+b's set on the window ``AxbWindow(0.5, 1.5)``: Y = W(L^inf,
    L^{p,q}(v)) and bound = W(L^inf, L^r_w) with r = min(1, p, q), Y's
    p-exponent, and w the right-translation bound for v's doubling exponent
    alpha (certified here when not given); ``right_weight`` stands in for w.
    Defaults: p = 1, v = 1. The family label names p, q, v and alpha."""
    p, v = _default(s.p, 1.0), _default(s.weight, constant_weight(1.0))
    if alpha is None:
        rec = check_doubling(v, [np.full(n, c) for c in (0.0, 1.5, -3.0)],
                             (0.5, 1.0, 2.0))
        if not rec["passed"]:
            raise WeightDomainError("weight failed doubling certification")
        alpha = rec["alpha"]
    w = _default(right_weight, translation_bound_weight(p, s.q, alpha, n))
    Y = AmalgamSpace("linf", MixedLpq(p, s.q, v, n=n), AxbWindow(0.5, 1.5))
    bound = AmalgamSpace("linf", WeightedLp(Y.p_exponent, w), Y.window)
    return {"Y": Y, "bound": bound}, f"axb p={p} q={s.q} v={v.name} alpha={alpha:.4g}"


def _moderating_weight(v):
    """The weight w of R's relations for the weight v of their spaces, from
    v's family, so that ``v(x + y) <= C w(x) v(y)``, as the paper's relations
    need: ``(1 + |x|)^|s|`` for ``shifted-power`` s (Peetre's inequality,
    C = 1), ``e^{|rate| |x|}`` for ``exponential`` (C = 1), and 1 for a
    bounded v, ``constant``, ``table`` (C = max / min of its values) or
    ``power`` with s = 0, the only power weight the rows take."""
    if v.name == "shifted-power":
        return shifted_power_weight(abs(v.params["s"]))
    if v.name == "exponential":
        return exponential_weight(abs(v.params["rate"]))
    return constant_weight(1.0)


# group kind -> (settings, n) -> its spaces by name and its family label, or
# None for the row's
SPACES = {"euclidean": _line_spaces, "axb": _axb_spaces}


@dataclass(frozen=True)
class EmbeddingRow:
    """``||F*G||_Y <= C ||F||_left ||G||_right`` over the set of spaces of
    its grid's group kind, F and G drawn by ``left(count, seed)`` and
    ``right(count, seed + 1)``. A norm name is a space of the set, or
    ``"<space>-reflected"`` for that space's reflected norm. ``label`` is the
    family label of R's set; ax+b's set writes its own. Defaults: 8 pairs
    on 256 cells of [-16, 16]."""

    name: str
    left: object
    right: object
    left_norm: str
    right_norm: str
    label: str | None
    grid: object = UniformGrid(Euclidean(1), -16.0, 16.0, 256)
    count: int = 8

    def run(self, s):
        grid, count = _default(s.grid, self.grid), _default(s.count, self.count)
        spaces, family = SPACES[grid.group.kind](s, grid.group.n)
        return self.verify(spaces, family or self.label, self.left(count, s.seed),
                           self.right(count, s.seed + 1), grid, s.levels).as_record()

    def verify(self, spaces, family, left_specs, right_specs, grid, levels):
        """``verify_embedding`` of the pairs with the row's norms in ``spaces``."""
        norms = {name: space.norm for name, space in spaces.items()}
        norms |= {f"{name}-reflected": space.reflected_norm
                  for name, space in spaces.items()}
        return verify_embedding(
            self.name, left_specs, right_specs, grid=grid, target_norm=norms["Y"],
            left_norm=norms[self.left_norm], right_norm=norms[self.right_norm],
            levels=levels, family=family)


_ATOMS = partial(build_family, "atom-cloud")
_BUMPS = partial(build_family, "gaussian-bumps", center_range=(-4.0, 4.0))
_AXB_BUMPS = partial(build_family, "axb-bumps")

RELATIONS = {row.name: row for row in (
    LpAlgebra(),
    EmbeddingRow("thm_conv_a", _ATOMS, _BUMPS, "M", "bound", "measures * bumps"),
    EmbeddingRow("thm_conv_b", _BUMPS, _BUMPS, "Y", "bound", "bumps * bumps"),
    EmbeddingRow("thm_convYvee", _BUMPS, _BUMPS, "bound", "Y-reflected",
                 "bumps * reflected bumps"),
    EmbeddingRow("axb_relation", _AXB_BUMPS, _AXB_BUMPS, "Y", "bound", None,
                 AxbGrid(AxbGroup(1), -6.0, 6.0, 80, 0.125, 8.0, 48), 6),
)}


def verify_axb_convolution(weight, p, q, left_specs, right_specs, *, grid,
                           alpha=None, levels=2, right_weight=None):
    """Verify W(L^inf, L^{p,q}(v)) * W(L^inf, L^r_w) into W(L^inf, L^{p,q}(v))
    through the ``axb_relation`` row and ax+b's set of spaces.
    ``right_weight`` overrides w for negative-control sweeps."""
    spaces, family = _axb_spaces(RelationSettings(p=p, q=q, weight=weight),
                                 grid.group.n, alpha=alpha, right_weight=right_weight)
    return RELATIONS["axb_relation"].verify(spaces, family, left_specs, right_specs,
                                            grid, levels)
