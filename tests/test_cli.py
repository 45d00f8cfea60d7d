import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gexforms import admissible, clifford, gexgroup, quadform, verify
from gexforms.cli import main
from gexforms.verify import DEFAULT_SEED, get_seed, run_suite

H_MINUS = "l=2;d=11;u=1"
H_PLUS = "l=2;d=00;u=1"
Q_ONE = "l=1;d=1;u="
HM_Q1 = "l=3;d=111;u=100"
ZERO2 = "l=2;d=00;u=0"
# H+^2 + Q1 + 0 behind a random change of basis
HIDDEN6 = "l=6;d=101101;u=010111001000001"


@pytest.fixture(scope="module")
def suite_report():
    """One run of the whole suite, shared by the CLI and the direct test."""
    return run_suite()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_h_minus(capsys):
    code, out, _ = run(capsys, "classify", H_MINUS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H- (m1=1, kind=Minus, m2=0)"
    assert lines[1] == f"normal-form: {H_MINUS}"
    assert lines[2] == "witness:"
    assert lines[3:] == ["  10", "  01"]


def test_classify_mixed_form(capsys):
    code, out, _ = run(capsys, "classify", HM_Q1)
    assert code == 0
    assert out.splitlines() == [
        "H+ + Q1 (m1=1, kind=QOne, m2=1)",
        "normal-form: l=3;d=001;u=100",
        "witness:",
        "  100",
        "  010",
        "  111",
    ]
    code, out, _ = run(capsys, "classify", HIDDEN6)
    assert code == 0
    assert out.splitlines() == [
        "H+^2 + Q1 + 0 (m1=2, kind=QOne, m2=2)",
        "normal-form: l=6;d=000010;u=100000000100000",
        "witness:",
        "  010101",
        "  111001",
        "  101001",
        "  000011",
        "  110100",
        "  000001",
    ]


def test_classify_bad_form(capsys):
    code, _, err = run(capsys, "classify", "l=2;d=0;u=0")
    assert code == 2
    assert "error:" in err


Q1_ZERO14 = "l=15;d=1" + "0" * 14 + ";u=" + "0" * 105


@pytest.mark.parametrize(
    "seed, argv",
    [
        (None, ["classify", "l=2;d=00;u=0;"]),
        (None, ["admissible", "l=21;d=" + "0" * 21 + ";u=" + "0" * 210, "--oracle"]),
        (None, ["group", "l=17;d=" + "0" * 17 + ";u=" + "0" * 136]),
        (None, ["central-product", H_MINUS, ZERO2]),
        (None, ["central-product", H_MINUS, Q1_ZERO14]),
        (None, ["en", "0"]),
        (None, ["en", "1"]),
        (None, ["en", "18"]),
        ("x12", ["verify-paper"]),
        (None, ["en", " +٣ "]),
        (None, ["en", "03"]),
        (None, ["en", "x"]),
    ],
)
def test_every_rejection_is_one_error_line(capsys, monkeypatch, seed, argv):
    """Each input the library rejects exits 2 with nothing on stdout and a
    single error line on stderr, whichever command it reaches."""
    monkeypatch.setattr(verify, "run_suite", lambda: pytest.fail("suite ran"))
    if seed is not None:
        monkeypatch.setenv(verify.SEED_ENV_VAR, seed)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_admissible_verdicts(capsys):
    code, out, _ = run(capsys, "admissible", H_MINUS)
    assert code == 0 and out.strip() == "ADMISSIBLE"
    code, out, _ = run(capsys, "admissible", H_PLUS)
    assert code == 0 and out.strip() == "NOT ADMISSIBLE"


def test_admissible_witness_and_oracle(capsys):
    code, out, _ = run(capsys, "admissible", H_MINUS, "--witness", "--oracle")
    assert code == 0
    assert out.splitlines() == ["ADMISSIBLE (oracle agrees)", "  11", "  10"]
    code, out, _ = run(capsys, "admissible", HIDDEN6, "--witness", "--oracle")
    assert code == 0
    assert out.splitlines() == [
        "ADMISSIBLE (oracle agrees)",
        "  101000",
        "  111010",
        "  100000",
        "  001010",
        "  011110",
        "  010101",
    ]


def test_admissible_oracle_cap(capsys):
    big = "l=21;d=" + "0" * 21 + ";u=" + "0" * 210
    code, _, err = run(capsys, "admissible", big, "--oracle")
    assert code == 2
    assert "capped" in err


def test_admissible_oracle_disagreement(capsys, monkeypatch):
    """An oracle that misses the basis of an admissible form is reported on
    stdout with exit code 1."""
    monkeypatch.setattr(admissible, "is_admissible_bruteforce", lambda q: None)
    code, out, err = run(capsys, "admissible", H_MINUS, "--oracle")
    assert (code, out, err) == (1, "ADMISSIBLE (ORACLE DISAGREES)\n", "")


def test_group_summary(capsys):
    code, out, _ = run(capsys, "group", H_MINUS)
    assert code == 0
    assert out.strip() == "Q8, order 8, center 2, Frattini 2"
    code, out, _ = run(capsys, "group", ZERO2)
    assert code == 0
    assert out.strip() == "Z2^3, order 8, center 8, Frattini 1"
    # dim 16, all radical: the center's size comes without its 131072 elements
    zero16 = "l=16;d=" + "0" * 16 + ";u=" + "0" * 120
    code, out, _ = run(capsys, "group", zero16)
    assert code == 0
    assert out.strip() == "Z2^17, order 131072, center 131072, Frattini 1"
    q1_zero15 = "l=16;d=1" + "0" * 15 + ";u=" + "0" * 120
    code, out, _ = run(capsys, "group", q1_zero15)
    assert code == 0
    assert out.strip() == "Z4 x Z2^15, order 131072, center 131072, Frattini 2"


def test_group_dimension_cap(capsys):
    """A form above the group dimension cap exits 2 with one error line, as
    central-product does, not with a traceback."""
    zero17 = "l=17;d=" + "0" * 17 + ";u=" + "0" * 136
    code, out, err = run(capsys, "group", zero17)
    assert (code, out) == (2, "")
    assert err == "error: group dimension capped at 16\n"


def test_central_product(capsys):
    code, out, _ = run(capsys, "central-product", H_MINUS, H_MINUS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("gex:l=4;")
    assert lines[1].startswith("Q8^*2, order 32,")


def test_central_product_rejects_degenerate_factor(capsys):
    code, _, err = run(capsys, "central-product", H_MINUS, ZERO2)
    assert code == 2
    assert "Frattini" in err


def test_en_rows(capsys):
    code, out, _ = run(capsys, "en", "3")
    assert code == 0
    assert out.strip() == "n=3 residue=3 computed=Q8 x Z2 expected=Q8 x Z2 PASS"
    code, out, _ = run(capsys, "en", "17")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_en_bounds(capsys):
    code, _, err = run(capsys, "en", "1")
    assert code == 2
    code, _, err = run(capsys, "en", "18")
    assert code == 2


def test_help_names_each_cap(capsys):
    """--help states the current value of every cap, read from its constant."""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for phrase in (
        f"isometry oracle dim <= {quadform.ORACLE_DIM_CAP} (exhaustive GL search)",
        f"admissibility oracle dim <= {quadform.VALUE_TABLE_DIM_CAP}",
        f"group models dim <= {gexgroup.FROM_FORM_DIM_CAP}",
        f"group isomorphism oracle order <= {gexgroup.ISO_ORACLE_ORDER_CAP}",
        f"E(n) table n <= {clifford.MAX_N}",
    ):
        assert phrase in text


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_verify_paper_json(capsys, monkeypatch, suite_report, flags):
    """verify-paper prints one line per check and the summary, as text or
    as JSON records."""
    monkeypatch.setattr(verify, "run_suite", lambda: suite_report)
    code, out, _ = run(capsys, "verify-paper", *flags)
    assert code == 0
    if not flags:
        text = [c.format() for c in suite_report.checks] + [suite_report.summary()]
        assert out == "".join(f"{line}\n" for line in text)
        return
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    summary = records[-1]
    assert summary["ok"] is True
    checks = records[:-1]
    assert len(checks) == 8
    assert all(r["status"] == "PASS" for r in checks)
    names = {r["name"] for r in checks}
    assert "clifford-mod8-table" in names
    assert "admissibility-theorem-vs-search" in names


def test_closed_stdout_exits_1_without_traceback():
    """`verify-paper --json | head` must not print a BrokenPipeError
    traceback: the reader is gone before the first record is written."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
        [sys.executable, "-m", "gexforms.cli", "verify-paper", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


def test_verify_paper_rejects_bad_seed(capsys, monkeypatch):
    for raw in ("abc", " 7 ", "7\n", "\u0667", "+7", "1.5"):
        monkeypatch.setenv("GEXFORMS_SEED", raw)
        code, out, err = run(capsys, "verify-paper")
        assert code == 2
        assert out == ""
        assert err.startswith("error: GEXFORMS_SEED")
    monkeypatch.setenv("GEXFORMS_SEED", "-7")
    assert get_seed() == -7
    monkeypatch.setenv("GEXFORMS_SEED", "")
    assert get_seed() == DEFAULT_SEED


def test_verify_suite_direct(suite_report):
    report = suite_report
    assert report.ok
    assert report.passed == len(report.checks) == 8
    assert report.summary() == "8/8 checks passed"
    for c in report.checks:
        assert c.format().startswith("[PASS] ")
    # The details count the work done; none of them depends on the seed.
    assert [(c.name, c.detail) for c in report.checks] == [
        ("form-classification-complete", "2120 form pairs"),
        ("admissibility-theorem-vs-search", "1498 forms"),
        ("zero-summand-splitting", "296 padded forms"),
        ("group-form-dictionary", "3 tables + 50 random products"),
        ("central-product-identities", "orders, Frattini, and order-32 isomorphism"),
        ("group-model-laws", "16932 element pairs"),
        ("clifford-presentation-iso", "generator proof n=2..10"),
        ("clifford-mod8-table", "16 rows, n=2..17"),
    ]
