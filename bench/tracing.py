"""In-memory span tracing of wamalgam's public functions, from outside.

The library is not edited. ``Tracer.install`` replaces each traced
function by a timing wrapper wherever a ``wamalgam`` module holds it by
name (``wamalgam.convolution.amalgam_norm``, ``wamalgam.cli.convolve``,
the package namespace, ...) and on its class for methods. ``uninstall``
puts the originals back, so untraced passes run unwrapped code.

A span is ``(id, name, start, end, parent, run)``; self time is the
span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# span name -> (module, attribute); "Class.method" names a method
SPANS = {
    "cli.main": ("wamalgam.cli", "main"),
    "cli.finalize_report": ("wamalgam.cli", "finalize_report"),
    "groups.sample": ("wamalgam.groups", "SampledFunction.sample"),
    "convolution.convolve": ("wamalgam.convolution", "convolve"),
    "convolution.convolve_measure": ("wamalgam.convolution", "convolve_measure"),
    "amalgam.amalgam_norm": ("wamalgam.amalgam", "amalgam_norm"),
    "amalgam.control_function": ("wamalgam.amalgam", "control_function"),
    "amalgam.translate": ("wamalgam.amalgam", "translate"),
    "amalgam.involution": ("wamalgam.amalgam", "involution"),
    "amalgam.discrete_amalgam_norm": ("wamalgam.amalgam", "discrete_amalgam_norm"),
    "amalgam.calibrate_equivalence_bracket":
        ("wamalgam.amalgam", "calibrate_equivalence_bracket"),
    "amalgam.estimate_translation_operator_norm":
        ("wamalgam.amalgam", "estimate_translation_operator_norm"),
    "components.quasi_norm": ("wamalgam.components", "quasi_norm"),
    "components.sequence_norm": ("wamalgam.components", "sequence_norm"),
    "components.check_doubling": ("wamalgam.components", "check_doubling"),
    "discretization.build_bupu": ("wamalgam.discretization", "build_bupu"),
    "discretization.cell_masks": ("wamalgam.discretization", "WellSpreadSet.cell_masks"),
}

# counters that repeat exactly for a given seed: name -> (span, function of
# (args, result) giving the increment); evaluated after the span has ended
COUNTS = {
    "cli.finalize_report.bytes":
        ("cli.finalize_report", lambda args, res: res[1].stat().st_size),
    "convolution.convolve.out_points":
        ("convolution.convolve", lambda args, res: int(res.values.size)),
    "convolution.convolve.src_points":
        ("convolution.convolve", lambda args, res: int(np.count_nonzero(args[0].values))),
    "discretization.build_bupu.support_entries":
        ("discretization.build_bupu",
         lambda args, res: int(sum(idx.size for idx in res.member_indices))),
}


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _wamalgam_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wamalgam" or name.startswith("wamalgam."))]


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTS}
        self.run = 0
        self._stack = []
        self._restore = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        counters = [(c, f) for c, (span, f) in COUNTS.items() if span == name]
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None, "run": self.run}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf()
                stack.pop()
            for counter, f in counters:
                self.counts[counter] += f(args, result)
            return result

        return wrapper

    def install(self):
        """Rebind every traced function; raise if any reference is missed."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _wamalgam_modules()
        originals = {}
        for name, (modname, attr) in SPANS.items():
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            originals[name] = orig
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        # a reference left unwrapped would read as zero calls, not as an error
        for mod in modules:
            for key, value in vars(mod).items():
                for name, orig in originals.items():
                    if value is orig:
                        self.uninstall()
                        raise RuntimeError(
                            f"span {name}: {mod.__name__}.{key} was not rebound")

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    # -- results ---------------------------------------------------------

    def totals(self):
        """Per span name: number of calls and summed self time."""
        selfs = self_times(self.spans)
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPANS}
        for s in self.spans:
            out[s["name"]]["calls"] += 1
            out[s["name"]]["self_s"] += selfs[s["id"]]
        return out

    def dump(self, path):
        """Write the spans, one JSON object a line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
