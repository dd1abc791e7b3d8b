"""The benchmark's span tracer (``bench/tracing.py``, loaded by path) finds
every name it traces in the package, wraps it while installed, counts the
calls made through ``AmalgamSpace`` methods, and puts the originals back;
a traced ``verify`` reaches every span its benchmark workload lists."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import wamalgam
import wamalgam.cli  # noqa: F401  (the tracer rebinds names in every loaded module)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(modname, attr):
    """The callable a span names, unbound from its class for methods."""
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return getattr(owner, "__func__", owner)


def _package_names():
    return {(name, key): value for name, mod in sys.modules.items()
            if name == "wamalgam" or name.startswith("wamalgam.")
            for key, value in vars(mod).items()}


def test_tracer_installs_and_uninstalls_on_the_package():
    tracing = _load_tracing()
    before = _package_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for modname, attr in tracing.SPANS.values():
            assert hasattr(_traced(modname, attr), "__wrapped__"), (modname, attr)
        grid = wamalgam.UniformGrid(wamalgam.Euclidean(1), -4.0, 4.0, 32)
        F = wamalgam.SampledFunction.sample(grid, lambda x: np.exp(-x * x))
        space = wamalgam.AmalgamSpace("linf", wamalgam.WeightedLp(1.0),
                                      wamalgam.BoxWindow.centered(0.5, 1))
        space.norm(F)
        space.reflected_norm(F)
        bupu = wamalgam.build_bupu(wamalgam.euclidean_lattice(grid, 1.0),
                                   wamalgam.BoxWindow.centered(1.0, 1), grid=grid)
        wamalgam.calibrate_equivalence_bracket(space, bupu, [F])
    finally:
        tracer.uninstall()
    for modname, attr in tracing.SPANS.values():
        assert not hasattr(_traced(modname, attr), "__wrapped__"), (modname, attr)
    after = _package_names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    calls = {name: t["calls"] for name, t in tracer.totals().items() if t["calls"]}
    assert calls == {
        "groups.sample": 1,
        "amalgam.amalgam_norm": 2,
        "amalgam.control_function": 3,
        "amalgam.involution": 2,
        "components.quasi_norm": 3,
        "discretization.build_bupu": 1,
        "amalgam.calibrate_equivalence_bracket": 1,
        "amalgam.discrete_amalgam_norm": 1,
        "components.sequence_norm": 1,
        "discretization.cell_masks": 1,
    }
    assert (tracer.counts["discretization.build_bupu.support_entries"]
            == bupu.operator.indices.size > 0)


WORKLOADS = TRACING.parent / "workloads.py"


def _load_workloads():
    """``bench/workloads.py``, registered while it runs, as its dataclasses
    look their module up."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_verify_reaches_every_span_its_workload_lists(tmp_path):
    """``verify`` through the CLI, traced, calls each span the benchmark's
    axb-relation workload lists (doubling certified once per run) and the
    measure convolution that line-relations lists for ``thm_conv_a``."""
    tracing, workloads = _load_tracing(), _load_workloads()
    before = _package_names()
    configs = {
        "axb_relation": {"grid": {"x_cells": 20, "a_cells": 12}, "family": {"count": 2}},
        "thm_conv_a": {"grid": {"cells": 64}, "family": {"count": 2}},
    }
    calls = {}
    for relation, config in configs.items():
        cfg = tmp_path / f"{relation}.json"
        cfg.write_text(json.dumps(config))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert wamalgam.cli.main(["verify", relation, "--refine", "1", "--config",
                                      str(cfg), "--out", str(tmp_path)]) in (0, 2)
        finally:
            tracer.uninstall()
        calls[relation] = {name: t["calls"] for name, t in tracer.totals().items()}
    after = _package_names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    for span in workloads.WORKLOADS["axb-relation"].spans:
        assert calls["axb_relation"][span] > 0, span
    assert calls["axb_relation"]["components.check_doubling"] == 1
    assert "convolution.convolve_measure" in workloads.WORKLOADS["line-relations"].spans
    assert calls["thm_conv_a"]["convolution.convolve_measure"] > 0
