"""Command-line surface: classify forms, test admissibility, inspect group
models, and run the full verification suite.

The library checks every input: a rejected one raises ValueError, and main
reports it as one ``error:`` line on stderr with exit code 2.  The commands
themselves handle no errors."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import admissible as adm
from . import clifford, gexgroup, quadform, verify
from .f2linalg import BitMatrix

CAPS_NOTE = (
    f"caps: isometry oracle dim <= {quadform.ORACLE_DIM_CAP} (exhaustive GL "
    f"search), admissibility oracle dim <= {quadform.VALUE_TABLE_DIM_CAP}, "
    f"group models dim <= {gexgroup.FROM_FORM_DIM_CAP}, group isomorphism "
    f"oracle order <= {gexgroup.ISO_ORACLE_ORDER_CAP}, E(n) table n <= "
    f"{clifford.MAX_N}"
)


def cmd_classify(args) -> int:
    q = quadform.parse_form(args.form)
    fc = quadform.classify(q)
    witness = quadform.normal_form_witness(q)
    rep = quadform.standard_form(fc)
    print(f"{fc.describe()} (m1={fc.m1}, kind={fc.kind.value}, m2={fc.m2})")
    print(f"normal-form: {rep.to_string()}")
    print("witness:")
    for row in witness.map.to_strings():
        print(f"  {row}")
    return 0


def cmd_admissible(args) -> int:
    q = quadform.parse_form(args.form)
    verdict = adm.is_admissible(q)
    suffix = ""
    if args.oracle:
        oracle_basis = adm.is_admissible_bruteforce(q)
        if (oracle_basis is not None) != verdict:
            print(f"{'ADMISSIBLE' if verdict else 'NOT ADMISSIBLE'} (ORACLE DISAGREES)")
            return 1
        suffix = " (oracle agrees)"
    print(("ADMISSIBLE" if verdict else "NOT ADMISSIBLE") + suffix)
    if args.witness and verdict:
        vectors = adm.admissible_witness(q)
        for row in BitMatrix(len(vectors), q.dim, vectors).to_strings():
            print(f"  {row}")
    return 0


def _group_summary(g: gexgroup.GexGroup) -> str:
    gc = gexgroup.classify_group(g)
    csize = len(gexgroup.center(g))
    fsize = gexgroup.frattini_order(g)
    return f"{gc.describe()}, order {g.order}, center {csize}, Frattini {fsize}"


def cmd_group(args) -> int:
    g = gexgroup.from_form(quadform.parse_form(args.form))
    print(_group_summary(g))
    return 0


def cmd_central_product(args) -> int:
    q1 = quadform.parse_form(args.form1)
    q2 = quadform.parse_form(args.form2)
    g = gexgroup.central_product(gexgroup.from_form(q1), gexgroup.from_form(q2))
    print(g.to_string())
    print(_group_summary(g))
    return 0


def cmd_en(args) -> int:
    row = clifford.verify_en_table(clifford.parse_n(args.n))[-1]
    print(row.format())
    return 0 if row.ok else 1


def cmd_verify_paper(args) -> int:
    verify.get_seed()  # a bad seed fails before any check runs
    report = verify.run_suite()
    if args.json:
        for c in report.checks:
            print(
                json.dumps(
                    {
                        "name": c.name,
                        "claim": c.claim,
                        "status": "PASS" if c.ok else "FAIL",
                        "detail": c.detail,
                        "elapsed_s": round(c.elapsed, 3),
                    }
                )
            )
        print(json.dumps({"summary": report.summary(), "ok": report.ok}))
    else:
        for c in report.checks:
            print(c.format())
        print(report.summary())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gexforms",
        description=(
            "Exact arithmetic for quadratic forms over GF(2) and their "
            "central-extension 2-groups. Forms are written as "
            "l=<dim>;d=<diag bits>;u=<upper polar bits>, e.g. H- + Q1 is "
            "l=3;d=111;u=100. " + CAPS_NOTE + ". Random checks honor the "
            f"{verify.SEED_ENV_VAR} environment variable."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="normal form, class data, and witness")
    p.add_argument("form")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("admissible", help="admissibility verdict")
    p.add_argument("form")
    p.add_argument("--witness", action="store_true", help="print an admissible basis")
    p.add_argument(
        "--oracle",
        action="store_true",
        help=(
            "cross-check with the definition-level greedy walk "
            f"(dim <= {quadform.VALUE_TABLE_DIM_CAP})"
        ),
    )
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("group", help="group model summary for a form")
    p.add_argument("form")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("central-product", help="central product of two group models")
    p.add_argument("form1")
    p.add_argument("form2")
    p.set_defaults(fn=cmd_central_product)

    p = sub.add_parser("en", help="one row of the E(n) x Z2 decomposition table")
    p.add_argument("n", help=f"2 <= n <= {clifford.MAX_N}")
    p.set_defaults(fn=cmd_en)

    p = sub.add_parser(
        "verify-paper", help="run the full verification suite (exit 0 iff all pass)"
    )
    p.add_argument("--json", action="store_true", help="machine-readable records")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Point stdout at devnull so
        # that the flush at interpreter exit cannot raise again, as the
        # Python docs on SIGPIPE recommend, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
