"""The gexforms benchmark: three seeded workloads, timed from outside the library.

    python3 benchmarks/run.py --workload forms-pipeline --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1
    python3 benchmarks/run.py --self-check
    python3 benchmarks/run.py --compare before.jsonl after.jsonl

A run prints its metrics by name and unit, then a record with the
environment, then as its last line one JSON object with the keys correct,
attempted, failed and metrics. Every record is also appended to a results
file (JSON lines), which --compare reads. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("forms-pipeline", "paper-oracles", "group-models")
# Measuring processes per run of an in-process workload. Each is preceded by
# a set-up-only probe and reports its own set-up too, so setup_s is a median
# of 2 * ROUNDS fresh set-ups spread over the run; paper-oracles probes once
# before every pass.
ROUNDS = 3
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 271828  # also verify-paper's own default GEXFORMS_SEED

sys.path.insert(0, str(HERE))
from speed import kernel_seconds, scaled  # noqa: E402
from tracing import VERIFY_CHECKS, per_layer_units  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["GEXFORMS_SEED"] = str(seed)
    return env


class Child:
    """A child process whose stdout is read line by line, killed on timeout."""

    def __init__(self, argv: list[str], env: dict):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def wait_ready(self) -> float:
        """Seconds from spawn until the child printed READY."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.start
        self.finish()
        raise RuntimeError(f"child exited before READY: {self.proc.args}")

    def finish(self) -> tuple[list[str], int, float]:
        """(remaining stdout lines, exit code, seconds from spawn to exit)."""
        lines = self.proc.stdout.read().splitlines()
        self.timer.cancel()
        rc = self.proc.wait()
        elapsed = time.perf_counter() - self.start
        self.proc.stdout.close()
        return lines, rc, elapsed


def setup_probe(argv: list[str], env: dict) -> float:
    child = Child(argv, env)
    t = child.wait_ready()
    _, rc, _ = child.finish()
    if rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return t


def median_layers(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def p90(values: list[float]) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=10)[-1]


def time_metrics(walls, lats, setups, rss, scale: bool) -> dict:
    """End-to-end metrics from (seconds, kernel seconds next to it) pairs,
    scaled to the reference speed or as measured."""
    def values(pairs):
        return [scaled(t, k) if scale else t for t, k in pairs]

    lat = values(lats)
    return {
        "wall_s": statistics.median(values(walls)),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_p90_ms": 1e3 * p90(lat),
        "setup_s": statistics.median(values(setups)),
        "peak_rss_mib": statistics.median(rss),
    }


# -- the in-process workloads --------------------------------------------------


def run_in_process(name, seed, seconds, trace, size, corrupt, spans) -> dict:
    base = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--size", size]
    env = child_env(seed)
    setups, walls, lats, rss, layer_samples = [], [], [], [], []
    attempted = failed = 0
    for r in range(ROUNDS):
        k = kernel_seconds()
        setups.append((setup_probe(base + ["--setup-only"], env), k))
        argv = base + ["--seconds", str(seconds / ROUNDS), "--trace", str(trace),
                       "--spans", str(spans)]
        if corrupt and r == 0:
            argv.append("--corrupt")
        child = Child(argv, env)
        setups.append((child.wait_ready(), k))
        lines, rc, _ = child.finish()
        if rc != 0 or not lines:
            raise RuntimeError(f"{name} worker failed with exit code {rc}")
        summary = json.loads(lines[-1])
        attempted += summary["attempted"]
        failed += summary["failed"]
        for wall, k, lat in zip(summary["walls_s"], summary["kernel_s"],
                                summary["item_latencies_s"]):
            walls.append((wall, k))
            lats += [(t, k) for t in lat]
        rss.append(summary["peak_rss_mib"])
        if trace:
            layer_samples.append(summary["layers"])
    return {
        "attempted": attempted,
        "failed": failed,
        "batches": len(walls),
        "items_per_batch": summary["items"],
        "metrics": time_metrics(walls, lats, setups, rss, scale=True),
        "raw_metrics": time_metrics(walls, lats, setups, rss, scale=False),
        "layers": median_layers(layer_samples) if trace else None,
    }


# -- paper-oracles: verify-paper in a fresh interpreter per pass ---------------


def paper_output_ok(lines: list[str], rc: int, corrupt: bool) -> bool:
    """8/8 PASS, in suite order, with the summary line and exit code 0."""
    try:
        records = [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        return False
    if corrupt and records:
        records[0] = dict(records[0], status="FAIL")
    checks, summary = records[:-1], records[-1] if records else {}
    return (
        rc == 0
        and [r.get("name") for r in checks] == VERIFY_CHECKS
        and all(r.get("status") == "PASS" for r in checks)
        and summary == {"summary": f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed", "ok": True}
    )


def run_paper_oracles(seed, seconds, trace, size, corrupt, spans) -> dict:
    env = child_env(seed)
    probe = [sys.executable, "-c", "import gexforms.cli; print('READY', flush=True)"]
    user_pass = [sys.executable, str(HERE / "paper_pass.py")]
    traced_pass = [sys.executable, str(HERE / "worker.py"), "--workload", "paper-oracles",
                   "--trace-pass", "--spans", str(spans)]
    setups, walls, rss, traced_walls, layer_samples = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        k = kernel_seconds()
        setups.append((setup_probe(probe, env), k))
        lines, rc, wall = Child(user_pass, env).finish()
        walls.append((wall, k))
        rss.append(json.loads(lines[-1])["peak_rss_mib"])
        attempted += 1
        failed += not paper_output_ok(lines[:-1], rc, corrupt and attempted == 1)
        if trace:
            lines, rc, wall = Child(traced_pass, env).finish()
            traced_walls.append(wall)
            layer_samples.append(json.loads(lines[-1])["layers"])
            attempted += 1
            failed += not paper_output_ok(lines[:-1], rc, False)
        if size == "tiny" or time.perf_counter() - start >= seconds:
            break
    layers = None
    if trace:
        layers = median_layers(layer_samples)
        layers["trace.wall_s"] = statistics.median(traced_walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(
            w for w, _ in walls
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "batches": len(walls),
        "items_per_batch": 1,
        "metrics": time_metrics(walls, walls, setups, rss, scale=True),
        "raw_metrics": time_metrics(walls, walls, setups, rss, scale=False),
        "layers": layers,
    }


# -- one run --------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
    }


def run_one(name, seed, seconds, trace, size="full", corrupt=False) -> dict:
    """Run one workload; returns the full record (result line plus context)."""
    spec = load_spec()
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{name}-seed{seed}.jsonl"
    if name == "paper-oracles":
        res = run_paper_oracles(seed, seconds, trace, size, corrupt, spans)
    else:
        res = run_in_process(name, seed, seconds, trace, size, corrupt, spans)
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res["layers"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = res["metrics"]
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "batches": res["batches"],
        "items_per_batch": res["items_per_batch"],
        "failed_frac": res["failed"] / res["attempted"],
        "raw_metrics": res["raw_metrics"],
        "env": environment(seed),
        "result": result,
    }


def print_record(record: dict):
    for k, m in record["result"]["metrics"].items():
        print(f"{record['workload']:15s} {k:48s} {m['value']:>16.6f} {m['unit']}")
    print(f"{record['workload']:15s} {'failed_frac':48s} {record['failed_frac']:>16.6f} ratio")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))


# -- compare mode (choosing-metrics section 8) ---------------------------------


def _stats(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _fmt(q, n) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] n={n}"


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: both sides' medians and quartiles,
    and whether B is within the bound of A. Returns 1 if any metric is worse
    by more than its bound."""
    spec = load_spec()

    def load(path):
        runs: dict[str, list[dict]] = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            if rec["trace"] == 0 and rec["size"] == "full":
                runs.setdefault(rec["workload"], []).append(rec)
        return runs

    a, b = load(path_a), load(path_b)
    worse = False
    print(f"{'workload':15s} {'metric':13s} {'A median [q1, q3]':32s} "
          f"{'B median [q1, q3]':32s} {'change':>8s} {'bound':>6s}  verdict")
    for wl in WORKLOADS:
        if wl not in a or wl not in b:
            continue
        for m in spec["end_to_end"]:
            name, bound, sign = m["name"], m["bound"], (1 if m["better"] == "lower" else -1)
            va = [r["result"]["metrics"][name]["value"] for r in a[wl]]
            vb = [r["result"]["metrics"][name]["value"] for r in b[wl]]
            qa, qb = _stats(va), _stats(vb)
            change = sign * (qb[1] - qa[1]) / qa[1]  # > 0 means B is worse
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            b_always_better = all(sign * y < sign * x for x in va for y in vb)
            seeds_a = {r["env"]["seed"]: r["result"]["metrics"][name]["value"] for r in a[wl]}
            pairs = [(seeds_a[r["env"]["seed"]], r["result"]["metrics"][name]["value"])
                     for r in b[wl] if r["env"]["seed"] in seeds_a]
            wins = sum(sign * y < sign * x for x, y in pairs)
            if spread > bound and not b_always_better:
                verdict = "unresolved (spread above bound)"
            elif change > bound:
                verdict = "WORSE beyond bound"
                worse = True
            elif (pairs and wins >= 0.9 * len(pairs)
                  and sign * (qa[1] - qb[1]) > qa[2] - qa[0]):
                verdict = f"better (wins {wins}/{len(pairs)} pairs)"
            else:
                verdict = "within bound"
            print(f"{wl:15s} {name:13s} {_fmt(qa, len(va)):32s} {_fmt(qb, len(vb)):32s} "
                  f"{100 * change:+7.2f}% {bound:6.2f}  {verdict}")
    return 1 if worse else 0


# -- self-check -------------------------------------------------------------------


def self_check() -> int:
    """Each workload at tiny size, untraced and traced: every metric is
    emitted with its declared unit, and a corrupted output counts as failed."""
    spec = load_spec()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    declared = set(want[1])
    if declared != set(per_layer_units()) or any(
        per_layer_units()[k] != want[1][k] for k in declared
    ):
        print("self-check: BENCHMARK.json per_layer differs from what the tracer emits")
        return 1
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            rec = run_one(name, 1, 0.5, trace, size="tiny")
            res = rec["result"]
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metric names or units differ")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed']} items failed")
            if trace and name == "forms-pipeline":
                cpi = res["metrics"]["f2linalg.symplectic_basis.calls_per_item"]["value"]
                if cpi != 6.0:
                    problems.append(f"symplectic_basis.calls_per_item is {cpi}, not 6.0")
            print(f"self-check: {name} trace={trace} failed={res['failed']}"
                  f"/{res['attempted']}")
        rec = run_one(name, 1, 0.5, 0, size="tiny", corrupt=True)
        if rec["result"]["correct"] or rec["result"]["failed"] < 1:
            problems.append(f"{name}: a corrupted output was not counted as failed")
        print(f"self-check: {name} corrupted failed={rec['result']['failed']}")
    for p in problems:
        print(f"self-check: FAIL {p}")
    print("self-check: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(RESULTS / "results.jsonl"),
                   help="JSON-lines file that every record is appended to")
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two results files")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "gexforms" / "__init__.py").is_file():
        print(f"error: no gexforms sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_one(n, args.seed, seconds, args.trace) for n in names]
    with open(args.results, "a") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    for rec in records:
        print_record(rec)
        print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
