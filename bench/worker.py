"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by ``run.py`` in a fresh interpreter whose environment already
holds the library path and the thread caps. Prints one JSON object as its
last line of standard output.

``--mode setup`` only imports the library and builds the inputs, and
reports how long that took. ``--mode run`` then repeats the timed pass
while another typical pass still fits in ``--seconds`` (at least one
pass). With ``--trace 0`` a ``ReferenceClock`` runs alongside each pass,
and the pass is reported both in seconds and in reference-kernel units.
With ``--trace 1`` passes alternate between plain and traced, so the
tracing overhead is measured against plain passes of the same process;
no reference clock runs then.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time

TICK_S = 0.25
KERNEL_STEPS = 60_000


def reference_kernel():
    """A fixed piece of pure-Python work, 4-6 ms on a 2-vCPU Xeon VM."""
    total = 0
    for i in range(KERNEL_STEPS):
        total += i * i
    return total


class ReferenceClock:
    """Times ``reference_kernel`` before a pass and every ``TICK_S`` s during it.

    On a shared host the speed of a core drifts by up to ~40% over seconds
    to minutes, and a pass's time in seconds drifts with it. The library's
    passes are mostly interpreter work and slow by about the same share as
    the pure-Python kernel, so a pass's time divided by the kernel's time
    around it varies far less. The ticks come from ``SIGALRM`` and run
    between bytecodes; their time (``spent_s``) is taken off the pass.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _tick(self, *_):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent_s += time.perf_counter() - start

    def start(self):
        """Take one sample now, outside the pass, then tick during it.

        The kernel runs once unrecorded first: after other work its first
        run can take twice as long.
        """
        self.samples, self.spent_s = [], 0.0
        reference_kernel()
        self._tick()
        self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """Stop ticking; the kernel's time over the pass.

        Ticks are evenly spaced in time, and the work done in an interval
        is proportional to 1 / kernel time, so the harmonic mean is the
        kernel time that the pass's time is to be divided by.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return statistics.harmonic_mean(self.samples)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import numpy as np

    import wamalgam
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, args.tmp)
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    clock = ReferenceClock() if tracer is None else None
    plain, traced, refs, ops = [], [], [], []
    loop_start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.run = len(plain) + len(traced)
            tracer.install()
        if clock is not None:
            clock.start()
        wl.untimed_s = 0.0
        t = time.perf_counter()
        try:
            pass_ops = wl.run_pass()
        finally:
            dt = time.perf_counter() - t - wl.untimed_s
            if trace_this:
                tracer.uninstall()
            if clock is not None:
                refs.append(clock.stop())
                dt -= clock.spent_s
        (traced if trace_this else plain).append(dt)
        wl.check_pass(pass_ops)
        ops.extend(pass_ops)
        # stop before a pass that would end past the budget
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(plain + traced)
        if (tracer is None or traced) and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops.extend(wl.final_checks(wamalgam.generator(args.seed + 99)))

    failures = [f"{op.name}: {op.error}" for op in ops if op.failed]
    result = {
        "setup_s": setup_s,
        "passes": plain,
        "kernel_s": refs,
        "wall_ref": (statistics.median(dt / ref for dt, ref in zip(plain, refs))
                     if refs else None),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["traced_passes"] = traced
        result["per_layer"] = _per_layer(tracer, wl, plain, traced)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


def _per_layer(tracer, wl, plain, traced):
    """Per-pass span calls and self times, counters, and tracing overhead."""
    import tracing

    totals = tracer.totals()
    missing = [name for name in wl.spans if totals[name]["calls"] == 0]
    unexpected = [name for name in wl.absent if totals[name]["calls"] > 0]
    if missing or unexpected:
        raise SystemExit(
            f"span coverage check failed on {wl.name}: no calls to {missing}, "
            f"calls to {unexpected} that this workload must not make")
    n = len(traced)
    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = totals[name]["calls"] / n
        metrics[f"{name}.self_s"] = totals[name]["self_s"] / n
    for name, value in tracer.counts.items():
        metrics[name] = value / n
    metrics["convolution.convolve.self_share"] = (
        totals["convolution.convolve"]["self_s"] / sum(traced))
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
