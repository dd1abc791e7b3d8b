"""The embedding rows against the two verifiers they replaced.

``ReferenceLineRelation``, ``ReferenceAxbRelation`` and
``reference_verify_axb_convolution`` keep the earlier code: R's rows built
their spaces by name, and ``axb_relation`` called its own verifier, which
certified doubling, built ax+b's two spaces and called ``verify_embedding``
itself. Every relation is now one ``EmbeddingRow`` over its group kind's
set of spaces; it does the same numerical work, so every record here is
equal to the reference's.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from wamalgam import (
    RELATIONS,
    AmalgamSpace,
    AxbGrid,
    AxbGroup,
    AxbWindow,
    BoxWindow,
    Euclidean,
    MixedLpq,
    RelationSettings,
    UniformGrid,
    WeightedLp,
    build_family,
    check_doubling,
    constant_weight,
    shifted_power_weight,
    translation_bound_weight,
    verify_axb_convolution,
    verify_embedding,
)
from wamalgam.errors import WeightDomainError
from wamalgam.relations import SPACES, EmbeddingRow

_LINE64 = UniformGrid(Euclidean(1), -16.0, 16.0, 64)
_AXB24 = AxbGrid(AxbGroup(1), -6.0, 6.0, 24, 0.125, 8.0, 12)


def _default(value, fallback):
    return fallback if value is None else value


def reference_verify_axb_convolution(weight, p, q, left_specs, right_specs, *, grid,
                                     window=None, alpha=None,
                                     doubling_centers=(0.0, 1.5, -3.0),
                                     doubling_radii=(0.5, 1.0, 2.0),
                                     levels=2, right_weight=None):
    n = grid.group.n
    if alpha is None:
        rec = check_doubling(weight, [np.full(n, c) for c in doubling_centers],
                             doubling_radii)
        if not rec["passed"]:
            raise WeightDomainError("weight failed doubling certification")
        alpha = rec["alpha"]
    r = min(1.0, p, q)
    w = right_weight if right_weight is not None else translation_bound_weight(
        p, q, alpha, n)
    window = window if window is not None else AxbWindow(0.5, 1.5)
    target_space = AmalgamSpace("linf", MixedLpq(p, q, weight, n=n), window)
    right_space = AmalgamSpace("linf", WeightedLp(r, w), window)
    return verify_embedding(
        "axb_relation", left_specs, right_specs, grid=grid,
        target_norm=target_space.norm,
        left_norm=target_space.norm,
        right_norm=right_space.norm,
        levels=levels,
        family=f"axb p={p} q={q} v={weight.name} alpha={alpha:.4g}",
    )


@dataclass(frozen=True)
class ReferenceLineRelation:
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


class ReferenceAxbRelation:
    name = "axb_relation"
    grid = AxbGrid(AxbGroup(1), -6.0, 6.0, 80, 0.125, 8.0, 48)

    def run(self, s):
        count, grid = _default(s.count, 6), _default(s.grid, self.grid)
        report = reference_verify_axb_convolution(
            _default(s.weight, constant_weight(1.0)), _default(s.p, 1.0), s.q,
            build_family("axb-bumps", count, s.seed),
            build_family("axb-bumps", count, s.seed + 1), grid=grid, levels=s.levels)
        return report.as_record()


_ATOMS = partial(build_family, "atom-cloud")
_BUMPS = partial(build_family, "gaussian-bumps", center_range=(-4.0, 4.0))

REFERENCE = {row.name: row for row in (
    ReferenceLineRelation("thm_conv_a", _ATOMS, _BUMPS, "M", "bound",
                          "measures * bumps"),
    ReferenceLineRelation("thm_conv_b", _BUMPS, _BUMPS, "Y", "bound", "bumps * bumps"),
    ReferenceLineRelation("thm_convYvee", _BUMPS, _BUMPS, "bound", "Y-reflected",
                          "bumps * reflected bumps"),
    ReferenceAxbRelation(),
)}


@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("p", [None, 0.5])
@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_row_record_equals_the_reference(name, p, levels):
    grid = _AXB24 if name == "axb_relation" else _LINE64
    s = RelationSettings(seed=7, levels=levels, p=p, grid=grid, count=2)
    assert RELATIONS[name].run(s) == REFERENCE[name].run(s)


@pytest.mark.parametrize("certify, right_weight, q", [
    (False, None, 1.0), (False, constant_weight(1.0), 1.0), (True, None, 0.5),
], ids=["alpha-given", "flat", "certified-q-half"])
def test_verify_axb_convolution_equals_the_reference(certify, right_weight, q):
    v = shifted_power_weight(2.0)
    alpha = None if certify else check_doubling(v, [0.0, 1.5, -3.0],
                                                [0.5, 1.0, 2.0])["alpha"]
    left, right = build_family("axb-bumps", 2, 3), build_family("axb-bumps", 2, 4)
    kwargs = dict(grid=_AXB24, levels=2, alpha=alpha, right_weight=right_weight)
    got = verify_axb_convolution(v, 1.0, q, left, right, **kwargs)
    want = reference_verify_axb_convolution(v, 1.0, q, left, right, **kwargs)
    assert got.as_record() == want.as_record()


def test_axb_set_carries_a_reflected_norm():
    """Reflection ``(x, a) -> (-x/a, 1/a)`` moves mass across scales, so
    Y's reflected norm differs from its norm, and a row whose right norm
    is ``"Y-reflected"`` runs on ax+b from a table entry alone."""
    grid = AxbGrid(AxbGroup(1), -6.0, 6.0, 48, 0.125, 8.0, 28)
    spaces, _ = SPACES["axb"](RelationSettings(), 1, None)
    for spec in build_family("axb-bumps", 3, 5):
        G = spec.sample(grid)
        assert spaces["Y"].reflected_norm(G) != spaces["Y"].norm(G)
    bumps = partial(build_family, "axb-bumps")
    records = [EmbeddingRow("axb_convYvee", bumps, bumps, "bound", right, None,
                            _AXB24, 2).run(RelationSettings(seed=7, levels=1))
               for right in ("Y-reflected", "Y")]
    assert records[0]["relation"] == "axb_convYvee"
    assert np.isfinite(records[0]["c_emp"]) and records[0]["c_emp"] > 0
    assert records[0]["c_emp"] != records[1]["c_emp"]
