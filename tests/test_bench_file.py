import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"


def record(workload, seed, sha, wall_s, trace=0, size="full"):
    """One results line of benchmarks/run.py, reduced to what the tool reads."""
    return {
        "workload": workload,
        "trace": trace,
        "size": size,
        "env": {"python": "3.11.7", "git_sha": sha, "seed": seed},
        "result": {"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}},
    }


def test_bench_file_summarizes_each_side(tmp_path):
    """Two tiny results files: each side gets its SHA, Python version and,
    per workload and metric, the median, quartiles, n and seeds of its
    untraced full-size runs; traced and tiny runs are left out."""
    sides = {
        "parent": [
            record("group-models", seed, "aaa", wall_s)
            for seed, wall_s in [(3, 1.0), (1, 3.0), (2, 2.0)]
        ]
        + [record("group-models", 9, "aaa", 50.0, trace=1)],
        "change": [record("group-models", 1, None, 0.5)]
        + [record("forms-pipeline", 1, None, 9.0, size="tiny")],
    }
    paths = []
    for name, records in sides.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(str(path))
    out = subprocess.run(
        [sys.executable, str(TOOL), *paths], capture_output=True, text=True, check=True
    ).stdout
    bench = json.loads(out)
    assert bench["parent"]["git_sha"] == ["aaa"]
    assert bench["change"]["git_sha"] == [None]
    assert bench["parent"]["python"] == bench["change"]["python"] == ["3.11.7"]
    rows = {
        "parent": dict(unit="s", median=2.0, q1=1.0, q3=3.0, n=3, seeds=[1, 2, 3]),
        "change": dict(unit="s", median=0.5, q1=0.5, q3=0.5, n=1, seeds=[1]),
    }
    for name, row in rows.items():
        assert bench[name]["workloads"] == {"group-models": {"wall_s": row}}
