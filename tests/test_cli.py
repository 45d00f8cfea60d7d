import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gexforms import admissible, clifford, gexgroup, quadform, verify
from gexforms.cli import main
from gexforms.verify import DEFAULT_SEED, get_seed, run_suite

H_MINUS = "l=2;d=11;u=1"
H_PLUS = "l=2;d=00;u=1"
HM_Q1 = "l=3;d=111;u=100"
ZERO2 = "l=2;d=00;u=0"
# H+^2 + Q1 + 0 behind a random change of basis
HIDDEN6 = "l=6;d=101101;u=010111001000001"
# Dim 9, the first past the 8-bit block of the decomposition: its pairs
# include an H- plane, and two radical vectors have Q = 1.
DIM9 = "l=9;d=011001000;u=001101001001101010001001110000101000"
# At the admissibility oracle's cap, dim 20: one plane on coordinates 0 and
# 19 behind 18 zero coordinates, H- (admissible), and H+ with Q1 on
# coordinate 10 (not admissible, so the oracle exhausts its candidates).
PLANE20 = "l=20;d=1" + "0" * 18 + "1;u=" + "0" * 18 + "1" + "0" * 171
PLANE_Q1_20 = "l=20;d=" + "0" * 10 + "1" + "0" * 9 + ";u=" + "0" * 18 + "1" + "0" * 171
ZERO16 = "l=16;d=" + "0" * 16 + ";u=" + "0" * 120
Q1_ZERO15 = "l=16;d=1" + "0" * 15 + ";u=" + "0" * 120
Q1_ZERO14 = "l=15;d=1" + "0" * 14 + ";u=" + "0" * 105
README = Path(__file__).resolve().parents[1] / "README.md"

# Each command with the exact text it prints, exit code 0 and no stderr.
# Every `gexforms` example in the README is a row.
OUTPUTS = {
    ("classify", H_MINUS): """\
H- (m1=1, kind=Minus, m2=0)
normal-form: l=2;d=11;u=1
witness:
  10
  01
""",
    ("classify", HM_Q1): """\
H+ + Q1 (m1=1, kind=QOne, m2=1)
normal-form: l=3;d=001;u=100
witness:
  100
  010
  111
""",
    ("classify", HIDDEN6): """\
H+^2 + Q1 + 0 (m1=2, kind=QOne, m2=2)
normal-form: l=6;d=000010;u=100000000100000
witness:
  010101
  111001
  101001
  000011
  110100
  000001
""",
    ("classify", DIM9): """\
H+^3 + Q1 + 0^2 (m1=3, kind=QOne, m2=3)
normal-form: l=9;d=000000100;u=100000000000000100000000001000000000
witness:
  111000110
  010001100
  100011110
  000101000
  110001101
  000011010
  110000101
  000000010
  000000001
""",
    ("admissible", H_MINUS): "ADMISSIBLE\n",
    ("admissible", H_PLUS): "NOT ADMISSIBLE\n",
    ("admissible", H_MINUS, "--witness", "--oracle"): """\
ADMISSIBLE (oracle agrees)
  11
  10
""",
    ("admissible", HIDDEN6, "--witness", "--oracle"): """\
ADMISSIBLE (oracle agrees)
  101000
  111010
  100000
  001010
  011110
  010101
""",
    # The witness of DIM9 is pulled back through the columns of the
    # normal-form change of basis.
    ("admissible", DIM9, "--witness", "--oracle"): """\
ADMISSIBLE (oracle agrees)
  011000000
  100100000
  010110000
  111100100
  011100000
  111011000
  010000000
  110001010
  011010101
""",
    ("admissible", PLANE20, "--oracle"): "ADMISSIBLE (oracle agrees)\n",
    ("admissible", PLANE_Q1_20, "--oracle"): "NOT ADMISSIBLE (oracle agrees)\n",
    ("group", H_MINUS): "Q8, order 8, center 2, Frattini 2\n",
    ("group", ZERO2): "Z2^3, order 8, center 8, Frattini 1\n",
    # dim 16, all radical: the center's size comes without its 131072 elements
    ("group", ZERO16): "Z2^17, order 131072, center 131072, Frattini 1\n",
    ("group", Q1_ZERO15): "Z4 x Z2^15, order 131072, center 131072, Frattini 2\n",
    ("central-product", H_MINUS, H_MINUS): """\
gex:l=4;d=1111;u=100001
Q8^*2, order 32, center 2, Frattini 2
""",
    ("en", "3"): "n=3 residue=3 computed=Q8 x Z2 expected=Q8 x Z2 PASS\n",
    ("en", "17"): "n=17 residue=1 computed=Q8^*8 x Z2 expected=Q8^*8 x Z2 PASS\n",
}


@pytest.fixture(scope="module")
def suite_report():
    """One run of the whole suite, shared by the CLI and the direct test."""
    return run_suite()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", OUTPUTS, ids="-".join)
def test_command_output(capsys, argv):
    assert run(capsys, *argv) == (0, OUTPUTS[argv], "")


def test_readme_examples_are_rows():
    """Each `gexforms` line of the README's CLI block, comment stripped, is
    a row of OUTPUTS; verify-paper has tests of its own."""
    block = README.read_text().partition("## CLI")[2].partition("```sh\n")[2]
    lines = block.partition("```")[0].splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines]
    examples = {tuple(argv[1:]) for argv in argvs if argv[:1] == ["gexforms"]}
    assert examples - OUTPUTS.keys() == {("verify-paper", "[--json]")}


# Each rejected input with its seed and the one line it prints on stderr.
REJECTIONS = [
    (
        None,
        ["classify", "l=2;d=00;u=0;"],
        "error: form spec must read l=<dim>;d=<bits>;u=<bits>, got 'l=2;d=00;u=0;'",
    ),
    (
        None,
        ["admissible", "l=21;d=" + "0" * 21 + ";u=" + "0" * 210, "--oracle"],
        "error: value table capped at dimension 20",
    ),
    (
        None,
        ["group", "l=17;d=" + "0" * 17 + ";u=" + "0" * 136],
        "error: group dimension capped at 16",
    ),
    (
        None,
        ["central-product", H_MINUS, ZERO2],
        "error: central product needs a nontrivial Frattini subgroup on each side",
    ),
    (None, ["central-product", H_MINUS, Q1_ZERO14], "error: group dimension capped at 16"),
    (None, ["en", "0"], "error: E(n) table needs 2 <= n <= 17, got n = 0"),
    (None, ["en", "1"], "error: E(n) table needs 2 <= n <= 17, got n = 1"),
    (None, ["en", "18"], "error: E(n) table needs 2 <= n <= 17, got n = 18"),
    ("x12", ["verify-paper"], "error: GEXFORMS_SEED must be an integer (-?[0-9]+), got 'x12'"),
    (None, ["en", " +٣ "], "error: n must be a decimal integer (0|[1-9][0-9]*), got ' +٣ '"),
    (None, ["en", "03"], "error: n must be a decimal integer (0|[1-9][0-9]*), got '03'"),
    (None, ["en", "x"], "error: n must be a decimal integer (0|[1-9][0-9]*), got 'x'"),
    (None, ["classify", "l=2;d=0;u=0"], "error: field d needs 2 bits, got 1"),
    ("abc", ["verify-paper"], "error: GEXFORMS_SEED must be an integer (-?[0-9]+), got 'abc'"),
    (" 7 ", ["verify-paper"], "error: GEXFORMS_SEED must be an integer (-?[0-9]+), got ' 7 '"),
    ("7\n", ["verify-paper"], "error: GEXFORMS_SEED must be an integer (-?[0-9]+), got '7\\n'"),
    ("\u0667", ["verify-paper"], "error: GEXFORMS_SEED must be an integer (-?[0-9]+), got '\u0667'"),
    ("+7", ["verify-paper"], "error: GEXFORMS_SEED must be an integer (-?[0-9]+), got '+7'"),
    ("1.5", ["verify-paper"], "error: GEXFORMS_SEED must be an integer (-?[0-9]+), got '1.5'"),
]


@pytest.mark.parametrize(
    "seed, argv, line",
    REJECTIONS,
    ids=[f"{seed}-argv{i}" for i, (seed, _, _) in enumerate(REJECTIONS)],
)
def test_every_rejection_is_one_error_line(capsys, monkeypatch, seed, argv, line):
    """Each input the library rejects exits 2 with nothing on stdout and
    exactly its one error line on stderr, whichever command it reaches."""
    monkeypatch.setattr(verify, "run_suite", lambda: pytest.fail("suite ran"))
    if seed is not None:
        monkeypatch.setenv(verify.SEED_ENV_VAR, seed)
    assert run(capsys, *argv) == (2, "", line + "\n")


def test_admissible_oracle_disagreement(capsys, monkeypatch):
    """An oracle that misses the basis of an admissible form is reported on
    stdout with exit code 1."""
    monkeypatch.setattr(admissible, "is_admissible_bruteforce", lambda q: None)
    code, out, err = run(capsys, "admissible", H_MINUS, "--oracle")
    assert (code, out, err) == (1, "ADMISSIBLE (ORACLE DISAGREES)\n", "")


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


def test_get_seed_accepts_a_sign_and_reads_empty_as_unset(monkeypatch):
    """A leading minus is part of the seed's grammar, and an empty
    GEXFORMS_SEED means the default; the rejected spellings are rows of
    REJECTIONS."""
    monkeypatch.setenv("GEXFORMS_SEED", "-7")
    assert get_seed() == -7
    monkeypatch.setenv("GEXFORMS_SEED", "")
    assert get_seed() == DEFAULT_SEED


# verify-paper's lines and summary, the time of each check masked as Xs.
EXPECTED_SUITE = [
    "[PASS] form-classification-complete (normal forms of quadratic forms over GF(2), degenerate included) Xs 2120 form pairs",
    "[PASS] admissibility-theorem-vs-search (admissible forms are H+^m (m>=2), H- + H+^(m-1), H+^m + Q1 (m>=2)) Xs 1498 forms",
    "[PASS] zero-summand-splitting (admissibility is unchanged by zero orthogonal summands) Xs 296 padded forms",
    "[PASS] group-form-dictionary (Q8, D8, Z4 carry H-, H+, Q1; products act blockwise on forms) Xs 3 tables + 50 random products",
    "[PASS] central-product-identities (central products amalgamate the involution; Q8*Q8 = D8*D8) Xs orders, Frattini, and order-32 isomorphism",
    "[PASS] group-model-laws (squares realize Q and commutators realize B_Q) Xs 16932 element pairs",
    "[PASS] clifford-presentation-iso (E(n) matches the presented group on n-1 anticommuting generators) Xs generator proof n=2..10",
    "[PASS] clifford-mod8-table (E(n) x Z2 decomposes into central products by n mod 8) Xs 16 rows, n=2..17",
    "8/8 checks passed",
]


def test_verify_suite_direct(monkeypatch, suite_report):
    """Under the default seed and under GEXFORMS_SEED=12345 the suite reports
    exactly these lines once the time of each check is masked: the details
    count the work done, and none of them depends on the seed."""
    monkeypatch.setenv(verify.SEED_ENV_VAR, "12345")
    for report in (suite_report, run_suite()):
        lines = [c.format() for c in report.checks] + [report.summary()]
        assert [re.sub(r"\) [0-9]+\.[0-9]{2}s ", ") Xs ", line) for line in lines] == EXPECTED_SUITE

