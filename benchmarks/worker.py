"""Workload process started by run.py; one per set-up probe or measured run.

In-process workloads (forms-pipeline, group-models): set up (import, make
the inputs, warm up), print READY, then run the fixed batch again and again
for --seconds, each followed by a run of the speed kernel, and print one JSON
summary line. With --trace 1 every untimed
batch is followed by a traced one, so the tracing overhead is measured
against batches of the same process.

With --trace-pass it is instead one traced pass of ``gexforms verify-paper
--json``: it hooks the layers, runs the CLI entry point, prints the CLI's own
output unchanged and then one JSON line with the per-layer values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gexforms  # noqa: E402

import speed  # noqa: E402
from paper_pass import peak_rss_mib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WARMUP_ITEMS = 3


def run_batch(items, tracer=None):
    """(batch wall time, per-item latencies, outputs)."""
    pc = time.perf_counter
    lat, outs = [], []
    t0 = pc()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
            item = tracer.span("bench.item", item)
        s = pc()
        outs.append(item())
        lat.append(pc() - s)
    return pc() - t0, lat, outs


class Gate:
    """Checks the first batch item by item; later batches must reproduce it."""

    def __init__(self, workload, corrupt: bool):
        self.workload = workload
        self.corrupt = corrupt
        self.reference = None
        self.bad: set[int] = set()

    def failures(self, outs) -> int:
        if self.reference is None:
            self.reference = outs
            for i, out in enumerate(outs):
                if self.corrupt and i == 0:
                    out = self.workload.corrupt(out)
                if not self.workload.check(i, out):
                    self.bad.add(i)
            return len(self.bad)
        return sum(
            i in self.bad or out != ref
            for i, (out, ref) in enumerate(zip(outs, self.reference))
        )


def measure(args) -> int:
    wl = workloads.BUILDERS[args.workload](args.seed, args.size == "tiny")
    run_batch(wl.items[:WARMUP_ITEMS])
    print("READY", flush=True)
    if args.setup_only:
        return 0

    gate = Gate(wl, args.corrupt)
    tracer = tracing.Tracer() if args.trace else None
    walls, kernels, lats, traced_walls, layer_samples = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall, lat, outs = run_batch(wl.items)
        kernels.append(speed.kernel_seconds())
        walls.append(wall)
        lats.append(lat[: wl.queries])
        attempted += len(outs)
        failed += gate.failures(outs)
        if tracer is not None:
            tracer.install()
            tracer.reset_stats()
            try:
                wall, _, outs = run_batch(wl.items, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_samples.append(tracer.layer_metrics(len(wl.items)))
            attempted += len(outs)
            failed += gate.failures(outs)
        if time.perf_counter() - start >= args.seconds:
            break

    summary = {
        "attempted": attempted,
        "failed": failed,
        "batches": len(walls),
        "items": len(wl.items),
        "walls_s": walls,
        "kernel_s": kernels,
        "item_latencies_s": lats,
        "peak_rss_mib": peak_rss_mib(),
    }
    if tracer is not None:
        layers = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        layers["trace.wall_s"] = statistics.median(traced_walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(walls)
        summary["layers"] = layers
        tracer.write_spans(args.spans)
    print(json.dumps(summary))
    return 0


def trace_pass(args) -> int:
    from gexforms import cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.item = 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify-paper", "--json"])
    tracer.uninstall()
    sys.stdout.write(out.getvalue())
    print(json.dumps({"layers": tracer.layer_metrics(1)}))
    tracer.write_spans(args.spans)
    return rc


def main() -> int:
    if not Path(gexforms.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"gexforms imported from {gexforms.__file__}, not from the checkout")
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-pass", action="store_true")
    p.add_argument("--spans", default=str(ROOT / ".bench_results" / "spans.jsonl"))
    args = p.parse_args()
    if args.trace_pass:
        return trace_pass(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
