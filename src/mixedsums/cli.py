"""Command-line front end.

Subcommands: represent (one certificate), verify-range (the five named
forms over a range), survey (catalog scan), count, witnesses, and
negative-control.  represent and every constructive scan re-evaluate each
certificate they build; one that does not give back n is an internal
fault, since the five forms represent every n.  Output is human text by
default; --json and --csv emit machine formats that are byte-identical
across runs and worker counts, so wall_ms is reported as 0 there (human
output shows the measured value).

Exit codes: 0 success, 1 the oracle found a mathematical counterexample,
2 usage or input error, 3 an internal fault (a failed cross-check, which
raises AssertionError, or any other unexpected error), printed as a
traceback, and 141 (128 + SIGPIPE, what a shell reports for a filter
killed by a closed pipe) when the reader of stdout closed it first, as
`| head` does.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from typing import Iterable, Sequence

from .forms import FORM_NAMES, FORM_TERMS, Certificate, MixedForm, represent, verify
from .oracle import count, spec_of, witnesses
from .survey import (
    SOURCES,
    RangeReport,
    negative_control,
    verify_catalog,
    verify_theorem2_range,
)


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", action="store_const", const="json", dest="fmt")
    g.add_argument("--csv", action="store_const", const="csv", dest="fmt")
    p.set_defaults(fmt="human")


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="at most N worker processes; a scan too small to pay for a pool"
        " runs in this process",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedsums",
        description="mixed square/triangular representations: certificates, oracle, surveys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("represent", help="decompose one number under one named form")
    p.add_argument("form", help="one of " + ", ".join(FORM_NAMES))
    p.add_argument("n", type=int)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_represent)

    p = sub.add_parser("verify-range", help="check the five named forms over a range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--mode", choices=("constructive", "oracle"), default="constructive")
    p.add_argument("--forms", metavar="LIST", help="comma-separated form names (default all)")
    _add_jobs_flag(p)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_verify_range)

    p = sub.add_parser("survey", help="oracle-scan the form catalogs over a range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--source", choices=SOURCES, help="restrict to one catalog group")
    _add_jobs_flag(p)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_survey)

    p = sub.add_parser("count", help="count integer witnesses of n under a form")
    p.add_argument("spec", help="form name or term list like 1*sq+3*sq+1*tri")
    p.add_argument("n", type=int)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("witnesses", help="list witnesses of n in lexicographic order")
    p.add_argument("spec", help="form name or term list like 1*sq+3*sq+1*tri")
    p.add_argument("n", type=int)
    p.add_argument("--limit", type=int, default=10, metavar="N", help="witness cap (default 10)")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_witnesses)

    p = sub.add_parser(
        "negative-control",
        help="scan plain three squares; exits 1 on the expected exclusions",
    )
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    _add_jobs_flag(p)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_negative_control)

    return parser


# ── output ─────────────────────────────────────────────────────────────────


def _emit(
    fmt: str, doc: str, header: Sequence[str], rows: Iterable[Sequence], lines: Iterable[str]
) -> None:
    """Print one result as the JSON text doc, as CSV (header, then rows) or
    as human lines."""
    if fmt == "json":
        print(doc)
    elif fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    else:
        for line in lines:
            print(line)


def _compact(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ── represent ──────────────────────────────────────────────────────────────


def _witness_line(cert: Certificate) -> str:
    """The certificate as a sum, e.g. "4*(0)^2 + 2*T(-2) + T(0)"."""
    slots = []
    for (c, kind), v in zip(FORM_TERMS[cert.form], (cert.x, cert.y, cert.z)):
        term = f"({v})^2" if kind == "sq" else f"T({v})"
        slots.append(term if c == 1 else f"{c}*{term}")
    return " + ".join(slots)


def _cmd_represent(args: argparse.Namespace) -> int:
    form = MixedForm(args.form)
    cert = represent(form, args.n)
    if not verify(cert):
        raise AssertionError(f"certificate for {form.value} n={args.n} failed re-verification")
    row = [form.value, cert.n, cert.x, cert.y, cert.z]
    line = f"{form.value}: {cert.n} = {_witness_line(cert)}"
    _emit(args.fmt, cert.to_json(), ["form", "n", "x", "y", "z"], [row], [line])
    return 0


# ── range reports (verify-range, survey, negative-control) ────────────────


def _emit_reports(reports: Sequence[RangeReport], fmt: str) -> int:
    # wall time zeroed in JSON and CSV: machine output is byte-reproducible
    doc = [
        {
            "entry": r.entry.entry_id,
            "status": r.entry.status,
            "lo": r.lo,
            "hi": r.hi,
            "verified": r.verified_count,
            "counterexamples": list(r.counterexamples),
            "mode": r.mode,
            "wall_ms": 0,
        }
        for r in reports
    ]
    _emit(
        fmt,
        _compact(doc),
        ["entry", "lo", "hi", "verified", "counterexamples", "mode", "wall_ms"],
        (
            [r.entry.entry_id, r.lo, r.hi, r.verified_count, _joined(r.counterexamples), r.mode, 0]
            for r in reports
        ),
        (
            f"{r.entry.entry_id} [{r.lo}, {r.hi}] mode={r.mode}"
            f" status={r.entry.status} verified={r.verified_count}"
            f" counterexamples={_joined(r.counterexamples) or 'none'} wall={r.wall_ms}ms"
            for r in reports
        ),
    )
    failed = [r for r in reports if r.counterexamples]
    for r in failed:
        print(f"counterexample: {r.entry.entry_id} fails at n={r.counterexamples[0]}",
              file=sys.stderr)
    return 1 if failed else 0


def _joined(ns: Sequence[int]) -> str:
    return ";".join(str(n) for n in ns)


def _cmd_verify_range(args: argparse.Namespace) -> int:
    forms = None
    if args.forms is not None:  # an empty selection is an error, not "all"
        forms = [tok for tok in args.forms.split(",") if tok]
    reports = verify_theorem2_range(args.lo, args.hi, args.mode, forms, args.jobs)
    return _emit_reports(reports, args.fmt)


def _cmd_survey(args: argparse.Namespace) -> int:
    reports = verify_catalog(args.source, args.lo, args.hi, args.jobs)
    return _emit_reports(reports, args.fmt)


def _cmd_negative_control(args: argparse.Namespace) -> int:
    report = negative_control(args.lo, args.hi, args.jobs)
    return _emit_reports([report], args.fmt)


# ── count / witnesses ──────────────────────────────────────────────────────


def _cmd_count(args: argparse.Namespace) -> int:
    spec = spec_of(args.spec)
    c = count(spec, args.n)
    doc = _compact({"form": str(spec), "n": args.n, "count": c})
    _emit(args.fmt, doc, ["form", "n", "count"], [[str(spec), args.n, c]], [str(c)])
    return 0


def _cmd_witnesses(args: argparse.Namespace) -> int:
    spec = spec_of(args.spec)
    wl = witnesses(spec, args.n, args.limit)
    doc = {
        "form": str(spec),
        "n": wl.n,
        "limit": wl.limit,
        "witnesses": [list(t) for t in wl.items],
        "truncated": wl.truncated,
    }
    lines = [f"({x}, {y}, {z})" for x, y, z in wl.items]
    if wl.truncated:
        lines.append(f"... truncated at {wl.limit}")
    rows = ([str(spec), wl.n, *t] for t in wl.items)
    _emit(args.fmt, _compact(doc), ["form", "n", "x", "y", "z"], rows, lines)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone, which is neither a fault nor a counterexample;
        # stdout goes to devnull so the interpreter's exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OverflowError) as e:
        # covers unknown forms, parse failures, bad bounds and ceiling errors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        # a failed internal check or a broken pool: never a counterexample
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
