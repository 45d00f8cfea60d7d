"""Write a BENCH file: the end-to-end statistics of two benchmark results files.

    python3 tools/bench_file.py PARENT.jsonl CHANGE.jsonl > BENCH_<n>.json

Each input holds the JSON records that ``benchmarks/run.py --results FILE``
appends, one per run; untraced full-size runs count.  For each side, each
workload and each end-to-end metric the output gives the median, the
quartiles (as ``run.py --compare`` computes them), n and the seeds, next to
the side's git SHAs and Python versions.  To diff the change side of two
BENCH files, metric by metric:

    python3 -c 'import json,sys; a,b=(json.load(open(p))["change"]["workloads"] for p in sys.argv[1:]); [print(w,m,a[w][m]["median"],"->",b[w][m]["median"]) for w in b if w in a for m in b[w]]' OLD.json NEW.json
"""

import json
import re
import statistics
import sys
from pathlib import Path


def side(path):
    """The SHAs, Python versions and per-metric statistics of one results file."""
    records = [json.loads(line) for line in Path(path).read_text().splitlines() if line]
    records = [r for r in records if r["trace"] == 0 and r["size"] == "full"]
    workloads = {}
    for r in records:
        for name, metric in r["result"]["metrics"].items():
            row = workloads.setdefault(r["workload"], {}).setdefault(name, {})
            row.setdefault("unit", metric["unit"])
            row.setdefault("values", []).append(metric["value"])
            row.setdefault("seeds", []).append(r["env"]["seed"])
    for metrics in workloads.values():
        for row in metrics.values():
            values = row.pop("values")
            q1, median, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            row.update(median=median, q1=q1, q3=q3, n=len(values))
            row["seeds"] = sorted(row.pop("seeds"))
    return {
        "git_sha": sorted({r["env"]["git_sha"] for r in records}, key=str),
        "python": sorted({r["env"]["python"] for r in records}),
        "workloads": workloads,
    }


def _one_line(match):
    """A JSON list of numbers or SHAs, written on one line."""
    return "[" + " ".join(match[1].split()) + "]"


if __name__ == "__main__":
    parent, change = sys.argv[1:3]
    text = json.dumps({"parent": side(parent), "change": side(change)}, indent=1)
    print(re.sub(r"\[\s+([^][{}]*?)\s+\]", _one_line, text))
