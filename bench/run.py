"""Benchmark of the wachdeform certificate engine.

    python3 bench/run.py --workload scan_shared --seed 1 --seconds 35 --trace 0

Runs one workload as a closed loop (one client, one process, no worker pool)
against the package in ``src/`` of the checkout this file sits in.  It checks
every output and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Program, scratch_dir  # noqa: E402

SETUPS = 3          # set-ups per run; setup_s is their median
SHOWN_FAILURES = 3  # tracebacks printed per run

# The machine's own speed moves by a third within seconds to minutes, so the
# end-to-end times are scaled to a nominal machine: a run samples its speed
# with a fixed probe every PROBE_EVERY_S, between ops, and multiplies each
# time by NOMINAL_PROBE_S over the mean time of the probes around it.
# NOMINAL_PROBE_S is the median probe time on a 2-core Xeon VM at 2.0 GHz.
PROBE_EVERY_S = 0.25
NOMINAL_PROBE_S = 0.011

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


class Tally:
    """Attempted and failed ops of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn):
        """Run fn as one op: its result, or None (failure reported) if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:   # any exception is a failed op; the run goes on
            self.failed += 1
            if self.failed <= SHOWN_FAILURES:
                traceback.print_exc(file=sys.stderr)
            return None


class _Elt:
    """A capped residue, standing in for the element arithmetic of the program."""

    __slots__ = ("digits", "cap")

    def __init__(self, n: int, cap: int) -> None:
        self.digits = (n % _MODULI[cap],)
        self.cap = cap

    def __mul__(self, other):
        return _Elt(self.digits[0] * other.digits[0], min(self.cap, other.cap))

    def __add__(self, other):
        return _Elt(self.digits[0] + other.digits[0], min(self.cap, other.cap))


_MODULI = {cap: 3**cap for cap in range(30, 38)}


def probe() -> float:
    """Seconds taken by fixed pure-Python work: truncated products of two
    24-term series of capped residues, allocating like the program does.

    The work makes no reference cycles, so the cyclic collector is off while
    it runs: the program's garbage must not land in the probe's time.
    """
    gc.disable()
    try:
        return _probe_work()
    finally:
        gc.enable()


def _probe_work() -> float:
    t0 = perf_counter()
    f = [_Elt(3**i * 7 + i, 37 - i % 3) for i in range(24)]
    g = [_Elt(5**i + 11 * i, 37) for i in range(24)]
    for _ in range(16):
        out = [None] * 24
        for i, a in enumerate(f):
            for j, b in enumerate(g[: 24 - i]):
                t = a * b
                out[i + j] = t if out[i + j] is None else out[i + j] + t
    return perf_counter() - t0


def run_op(workload, prog, inp, tmp, expected, tally, tracer=None):
    """One op with its output check; returns its latency in s, or None if it failed.

    With a tracer, the op runs traced and the check untraced.
    """
    def body():
        prog.set_tracer(tracer)
        try:
            workload.prepare(prog)
            t0 = perf_counter()
            out = workload.op(prog, inp, tmp)
            latency = perf_counter() - t0
        finally:
            if tracer is not None:
                prog.set_tracer(None)
                tracer.end_op()
        workload.check(prog, inp, out, expected)
        return latency

    return tally.attempt(body)


def timed_loop(workload, seed, seconds, step):
    """Run whole input blocks while the next one is predicted to end in time.

    ``step(inp)`` runs one input.  At least one block runs.  Returns the wall
    time of the loop.
    """
    blocks = workload.blocks(seed)
    start = perf_counter()
    while True:
        b0 = perf_counter()
        for inp in next(blocks):
            step(inp)
        now = perf_counter()
        if now - start + (now - b0) > seconds:
            return now - start


def untraced_run(workload, prog, args, tmp, expected, tally):
    setups = []
    for _ in range(SETUPS):
        before = probe()
        t0 = perf_counter()
        prog.fresh()
        workload.warm_up(prog, tmp)
        elapsed = perf_counter() - t0
        setups.append(elapsed * NOMINAL_PROBE_S / statistics.fmean((before, probe())))

    gc.collect()
    latencies, scaled, pending = [], [], []
    probes = [probe()]      # before the loop, not in its wall time
    due = perf_counter() + PROBE_EVERY_S

    def sample():
        """Probe now; the ops since the last probe are scaled by the two around them."""
        probes.append(probe())
        factor = NOMINAL_PROBE_S / statistics.fmean(probes[-2:])
        scaled.extend(x * factor for x in pending)
        pending.clear()

    def step(inp):
        nonlocal due
        lat = run_op(workload, prog, inp, tmp, expected, tally)
        if lat is not None:
            latencies.append(lat)
            pending.append(lat)
        while perf_counter() >= due:   # catch up after long ops
            sample()
            due += PROBE_EVERY_S

    wall = timed_loop(workload, args.seed, args.seconds, step) - sum(probes[1:])
    sample()
    for check in workload.run_checks(prog, tmp, expected):
        tally.attempt(check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = NOMINAL_PROBE_S / statistics.fmean(probes)
    ms = sorted(1000 * x for x in latencies)
    raw = {
        "ops_per_s": len(latencies) / wall,
        "op_ms_p50": statistics.median(ms) if ms else 0.0,   # no op passed: correct is false
    }
    if len(ms) >= 100:
        raw["op_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_ms_p50": 1000 * statistics.median(scaled) if scaled else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{workload.name}: {len(ms)} timed ops in {wall:.2f} s, {len(probes)} probes, "
          f"mean scale {scale:.3f}; set-ups " + ", ".join(f"{x:.3f}" for x in setups)
          + " s")
    units = dict(END_TO_END, op_ms_p90="ms")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in raw.items():
        print(f"  unscaled {name} = {value:.6g} {units[name]}")
    print(f"  fail_frac = {tally.failed / tally.attempted:.6g} share"
          + ("" if "op_ms_p90" in raw else "; op_ms_p90 needs 100 ops"))
    context = {"probe_s_mean": statistics.fmean(probes), "probes": len(probes),
               "scale": scale}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, context


def traced_run(workload, prog, args, tmp, expected, tally):
    """Each input runs untraced, then traced; the difference is the overhead."""
    tracer = Tracer()
    prog.fresh()
    prog.set_tracer(tracer)
    workload.warm_up(prog, tmp)    # traced only so the tracer sees the keys it uses
    prog.set_tracer(None)
    tracer.end_op(measured=False)
    tracer.reset_stats()

    overheads = []

    def step(inp):
        plain = run_op(workload, prog, inp, tmp, expected, tally)
        traced = run_op(workload, prog, inp, tmp, expected, tally, tracer)
        if plain is not None and traced is not None:
            overheads.append(traced - plain)

    timed_loop(workload, args.seed, args.seconds, step)
    for check in workload.run_checks(prog, tmp, expected):
        tally.attempt(check)
    metrics = tracer.metrics(statistics.fmean(overheads) if overheads else 0.0)
    print(f"{workload.name}: {tracer.ops} traced ops, unscaled times")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return metrics, {"probe_s": probe()}


def machine_context() -> dict:
    """Context stored beside the metrics, not a metric: what the machine was like."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "wachdeform" / "cli.py").is_file():
        print(f"bench: no wachdeform package under {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())[workload.name]
    context = machine_context()

    tally = Tally()
    run = traced_run if args.trace else untraced_run
    with scratch_dir(ROOT) as tmp:
        metrics, speed = run(workload, Program(src), args, tmp, expected, tally)
    context.update(speed)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
