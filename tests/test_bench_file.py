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


def run_tool(tmp_path, sides, check=False):
    """The script on one results file per side, written from sides."""
    paths = []
    for name, records in sides.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(TOOL), *paths], capture_output=True, text=True, check=check
    )


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
    bench = json.loads(run_tool(tmp_path, sides, check=True).stdout)
    assert bench["parent"]["git_sha"] == ["aaa"]
    assert bench["change"]["git_sha"] == [None]
    assert bench["parent"]["python"] == bench["change"]["python"] == ["3.11.7"]
    rows = {
        "parent": dict(unit="s", median=2.0, q1=1.0, q3=3.0, n=3, seeds=[1, 2, 3]),
        "change": dict(unit="s", median=0.5, q1=0.5, q3=0.5, n=1, seeds=[1]),
    }
    for name, row in rows.items():
        assert bench[name]["workloads"] == {"group-models": {"wall_s": row}}


def test_bench_file_refuses_a_sha_on_both_sides(tmp_path):
    """A run of uncommitted source carries its parent's SHA, so a SHA that
    labels runs on both sides is refused: exit 1, one stderr line naming
    it, nothing on stdout.  Null SHAs on both sides pass."""
    sides = {
        "parent": [record("group-models", 1, "aaa", 1.0)],
        "change": [record("group-models", 1, None, 0.5)]
        + [record("group-models", 2, "aaa", 0.5)],
    }
    refused = run_tool(tmp_path, sides)
    assert refused.returncode == 1
    assert refused.stderr == "bench_file: git_sha aaa labels runs on both sides\n"
    assert refused.stdout == ""
    sides["parent"] = [record("group-models", 1, None, 1.0)]
    sides["change"] = sides["change"][:1]
    bench = json.loads(run_tool(tmp_path, sides, check=True).stdout)
    assert bench["parent"]["git_sha"] == bench["change"]["git_sha"] == [None]
