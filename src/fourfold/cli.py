"""Command-line front end: ranks, series, stable, growth, verify.

The library modules compute; this module alone decides what is printed.
Every command builds a CommandResult holding a JSON payload, a rendered text
table and a CSV form, each from the fields of the library's result records;
`--format` picks which one is printed.  Identical flags always produce
byte-identical output.

Exit codes: 0 on success, a not-applicable check or `-h`, 1 when a check
fails, a size limit is hit, required data is missing or stdout closes before
the output is written, 2 for usage errors (a flag spelled in full only, no
`--FLAG=--`) and mathematical domain violations.  A failed check prints its
result, ending in FAIL; every other refusal, argparse's among them, leaves
through _main as one `error:` line on stderr, with nothing on stdout.

Start-up: the module imports what `verify`, `ranks`, `series` and `growth`
run; `stable` imports its module when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._record import Record
from .errors import (
    DomainError,
    FourfoldError,
    ParseError,
    ResourceLimit,
    ValidationError,
    _int_arg,
    _numeral,
)
from .oracle import (
    DEFAULT_COLUMN_BUDGET,
    koszul_leading_monomial_check,
    quotient_dims_oracle,
)
from .ranks import (
    PBW_FAIL,
    PBW_NOT_APPLICABLE,
    _classification,
    growth_report,
    homotopy_ranks,
    pbw_identity_check,
    pbw_series,
    rank_polynomial_checks,
)
from .series import free_comm_series, quotient_series, tensor_series

DEFAULT_RANKS_DEGREE = 20
DEFAULT_VERIFY_DEGREE = 8
DEFAULT_GROWTH_PROBE = 60
BUDGET_ENV_VAR = "FOURFOLD_BUDGET"

STATUS_OK = "ok"
STATUS_FAIL = "fail"


class CommandResult(Record):
    """What a command prints: JSON payload, text table, CSV."""

    def __init__(self, status: str, payload: dict, rendered: str, csv: str):
        self.__dict__.update(status=status, payload=payload, rendered=rendered, csv=csv)

    @property
    def exit_code(self) -> int:
        return 1 if self.status == STATUS_FAIL else 0


def _align(rows, headers) -> str:
    """Fixed-width text table."""
    table = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _csv_lines(header: str, rows) -> str:
    return "\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n"


def _str_or_none(value):
    return None if value is None else str(value)


# -- commands ---------------------------------------------------------------


def cmd_ranks(betti: int, max_degree: int) -> CommandResult:
    table = homotopy_ranks(betti, max_degree)
    classification = _classification(betti)
    by_degree = list(enumerate(table.ranks, start=2))  # m_n is the rank of pi_{n+1}
    ranks = {f"pi_{n}": m for n, m in by_degree}
    payload = {"betti": table.betti, "ranks": ranks, "classification": classification}

    rows = list(ranks.items())
    rendered = "\n".join(
        [
            f"rational homotopy ranks at b2 = {betti}",
            _align(rows, ("group", "rank")),
            f"growth classification: {classification}",
        ]
    )
    csv = _csv_lines("degree,rank", by_degree)
    return CommandResult(STATUS_OK, payload, rendered, csv)


def cmd_series(
    kind: str, betti: int, terms: int, dims_spec: str | None = None
) -> CommandResult:
    if dims_spec is not None and kind != "free-comm":
        raise DomainError(f"--dims applies only to --kind free-comm, not {kind}")
    if dims_spec is None:  # with --dims, --betti is not used
        _int_arg("second Betti number", betti, 1)
    payload = {"kind": kind, "betti": betti}
    source = f"parameter {betti}"
    if kind == "tensor":
        series = tensor_series({1: betti, 2: betti}, terms)
    elif kind == "quotient":
        series = quotient_series(betti, terms)
    elif kind == "pbw":
        series = pbw_series(homotopy_ranks(betti, max(terms, 1)), terms)
    elif dims_spec is not None:  # free-comm: the generators, reported in place of --betti
        dims = dict(sorted(_parse_dims(dims_spec).items()))
        series = free_comm_series(dims, terms)
        payload = {"kind": kind, "dims": {str(d): m for d, m in dims.items()}}
        source = "generators " + ",".join(f"{d}:{m}" for d, m in dims.items())
    else:  # free-comm, the last of --kind's choices
        series = free_comm_series({1: betti, 2: betti}, terms)
    payload["truncation_order"] = series.truncation_order
    payload["coefficients"] = [str(c) for c in series.coeffs]
    rows = list(enumerate(payload["coefficients"]))
    rendered = "\n".join(
        [
            f"{kind} series at {source}, truncation order {terms}",
            _align(rows, ("degree", "coefficient")),
        ]
    )
    csv = _csv_lines("degree,coefficient", rows)
    return CommandResult(STATUS_OK, payload, rendered, csv)


def _parse_dims(spec: str) -> dict:
    """--dims '1:2,2:2' -> {1: 2, 2: 2}; a repeated degree adds up."""
    out = {}
    for part in spec.split(","):
        deg, sep, mult = (s.strip() for s in part.partition(":"))
        if not sep or not deg.isdecimal() or not mult.isdecimal():
            raise DomainError(f"bad --dims entry {part!r}; expected degree:multiplicity")
        deg = _numeral("a --dims degree", deg)
        out[deg] = out.get(deg, 0) + _numeral("a --dims multiplicity", mult)
    return out


def cmd_stable(
    betti: int, n: int, pi1_order: int, stems_file: str | None = None
) -> CommandResult:
    # only this command needs the stems tables, so only it imports them
    from .stable import bundled_stems_table, load_stems_table, stable_homotopy_finite_pi1

    if stems_file is not None:
        try:
            with open(stems_file, encoding="utf-8-sig") as fh:  # a leading BOM is skipped
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{stems_file}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from None
        stems = load_stems_table(text, source_note=stems_file)
    else:
        stems = bundled_stems_table()
    group = stable_homotopy_finite_pi1(betti, n, pi1_order, stems)
    human = str(group)
    payload = {
        "betti": betti,
        "n": n,
        "pi1_order": pi1_order,
        "stems_source": stems.source_note,
        "group": {"free_rank": group.free_rank, "torsion": list(group.torsion)},
        "human": human,
    }
    rendered = "\n".join(
        [
            f"pi_{n}^s = {human}",
            f"primary decomposition: free rank {group.free_rank}, "
            f"torsion {list(group.torsion)}",
        ]
    )
    csv = _csv_lines(
        "free_rank,torsion",
        [(group.free_rank, ";".join(map(str, group.torsion)))],
    )
    return CommandResult(STATUS_OK, payload, rendered, csv)


def cmd_growth(betti: int, probe: int) -> CommandResult:
    report = growth_report(betti, probe)
    payload = {
        "betti": report.betti,
        "classification": report.classification,
        "probe_degree": report.probe_degree,
        # Decimals, or None when elliptic
        "growth_base": _str_or_none(report.growth_base),
        "limit_residual": _str_or_none(report.limit_residual),
        "exponential_growth": report.exponential_growth,
        "precision": report.precision,
        "cumulative_bound_ok": {str(n): ok for n, ok in report.cumulative_bound_ok.items()},
    }
    lines = [
        f"growth report at b2 = {betti} (probe degree {probe})",
        f"classification: {report.classification}",
    ]
    if report.growth_base is not None:
        lines.append(f"growth base: {report.growth_base}")
        lines.append(f"limit residual at degree {probe}: {report.limit_residual}")
    else:
        lines.append("growth base: none (elliptic)")
    # both proved for every n at b2 >= 3 (the ranks module docstring)
    if report.exponential_growth:
        lines.append("exponential growth: yes, m_n > beta^n / (2n), proved for every n >= 1")
        lines.append(
            f"cumulative lower bound: 2n (m_1 + ... + m_2n) >= {betti - 1}^(2n), "
            "proved for every n >= 1"
        )
    else:
        lines.append("exponential growth: no")
    rendered = "\n".join(lines)
    scalars = {name: v for name, v in payload.items() if not isinstance(v, dict)}
    csv = _csv_lines(",".join(scalars), [["" if v is None else v for v in scalars.values()]])
    return CommandResult(STATUS_OK, payload, rendered, csv)


def cmd_verify(betti: int, max_degree: int, budget=None) -> CommandResult:
    _int_arg("second Betti number", betti, 1)
    checks = {}
    payload = {"betti": betti, "max_degree": max_degree}
    lines = [f"verification at b2 = {betti}, oracle degree {max_degree}"]

    report = quotient_dims_oracle(betti, max_degree, budget)
    # each is derived from the tensor and ideal dims on every read
    quotient = report.quotient_dims.dims
    series_match, euler_ok = report.series_match, report.euler_ok
    checks["oracle-series-match"] = all(series_match)
    checks["euler-identity"] = all(euler_ok)
    payload["oracle"] = {
        "betti_param": report.betti_param,
        "max_degree": report.max_degree,
        "tensor_dims": list(report.tensor_dims.dims),
        "ideal_dims": list(report.ideal_dims.dims),
        "quotient_dims": list(quotient),
        "series_match": list(series_match),
        "euler_ok": list(euler_ok),
        "field_used": report.field_used,
    }

    koszul_ok, lead = koszul_leading_monomial_check(betti)
    checks["koszul-leading-monomial"] = koszul_ok
    payload["koszul"] = {"ok": koszul_ok, "leading_monomial": lead}

    pbw = pbw_identity_check(betti, max_degree)
    payload["pbw"] = {"status": pbw.status, "first_failure": pbw.first_failure}
    if pbw.status != PBW_NOT_APPLICABLE:
        checks["pbw-identity"] = pbw.status != PBW_FAIL

    divisible, closed = rank_polynomial_checks(max(max_degree, 8))
    checks["divisibility-polynomial"] = divisible
    checks["closed-forms"] = closed

    rows = list(zip(
        range(max_degree + 1), report.tensor_dims.dims, report.ideal_dims.dims,
        quotient, series_match, euler_ok,
    ))
    flag = {True: "ok", False: "MISMATCH"}
    lines.append(
        _align(
            [(*dims, flag[series], flag[euler]) for *dims, series, euler in rows],
            ("degree", "tensor", "ideal", "quotient", "series", "euler"),
        )
    )
    lines.append(f"field used: {report.field_used}")
    lines.append(f"koszul leading monomial: {lead} ({'ok' if koszul_ok else 'FAIL'})")
    lines.append(f"pbw identities: {pbw.status}")
    lines.append(
        f"rank polynomials: divisibility {'ok' if divisible else 'FAIL'}, "
        f"closed forms {'ok' if closed else 'FAIL'}"
    )

    ok = all(checks.values())
    failing = sorted(name for name, passed in checks.items() if not passed)
    payload["checks"] = checks
    if failing:
        payload["failing_checks"] = failing
    lines.append("PASS" if ok else "FAIL")

    csv = _csv_lines(
        "degree,tensor_dim,ideal_dim,quotient_dim,series_match,euler_ok", rows
    )
    return CommandResult(STATUS_OK if ok else STATUS_FAIL, payload, "\n".join(lines), csv)


# -- argument plumbing ------------------------------------------------------


def _echo(text: str) -> str:
    """repr of a refused value, cut to its first 20 characters."""
    return repr(text[:20]) + ("..." if len(text) > 20 else "")


def _signed_numeral(name: str, text: str, error):
    """The int text spells as a decimal numeral with an optional sign (and
    whitespace around), read by _numeral, so a numeral past its digit limit
    raises error; None for any other text."""
    body = text.strip()
    digits = body[1:] if body.startswith(("+", "-")) else body
    if not digits.isdecimal():
        return None
    value = _numeral(name, digits, error)
    return -value if body.startswith("-") else value


def _int_flag(text: str) -> int:
    """argparse type of every integer flag."""
    value = _signed_numeral("the value", text, argparse.ArgumentTypeError)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse (subcommands too) refusing abbreviations and `--FLAG=--` by DomainError."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise DomainError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for dest, value in vars(parsed).items():
            if value == []:  # argparse's `--FLAG=--`; each dest is its flag
                self.error(f"argument --{dest.replace('_', '-')}: expected one argument")
        return parsed


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: table)",
    )

    parser = _Parser(
        prog="fourfold",
        description=(
            "Exact homotopy invariants of simply connected closed 4-manifolds "
            "from the second Betti number."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ranks", parents=[common], help="rational homotopy ranks")
    p.add_argument("--betti", type=_int_flag, required=True, help="second Betti number")
    p.add_argument("--max-degree", type=_int_flag, default=DEFAULT_RANKS_DEGREE)

    p = sub.add_parser("series", parents=[common], help="raw series coefficients")
    p.add_argument(
        "--kind",
        choices=("tensor", "quotient", "pbw", "free-comm"),
        required=True,
    )
    p.add_argument("--betti", type=_int_flag, required=True)
    p.add_argument("--terms", type=_int_flag, default=DEFAULT_RANKS_DEGREE)
    p.add_argument("--dims", help="free-comm generators, e.g. 1:2,2:2")

    p = sub.add_parser("stable", parents=[common], help="stable homotopy groups")
    p.add_argument("--betti", type=_int_flag, required=True)
    p.add_argument("--n", type=_int_flag, required=True, help="stable index")
    p.add_argument("--pi1-order", type=_int_flag, default=1)
    p.add_argument(
        "--stems-file",
        metavar="PATH",
        help="stems table file (default: bundled table for indices 0..19)",
    )

    p = sub.add_parser("growth", parents=[common], help="growth classification")
    p.add_argument("--betti", type=_int_flag, required=True)
    p.add_argument("--probe", type=_int_flag, default=DEFAULT_GROWTH_PROBE)

    p = sub.add_parser("verify", parents=[common], help="full verification suite")
    p.add_argument("--betti", type=_int_flag, required=True)
    p.add_argument("--max-degree", type=_int_flag, default=DEFAULT_VERIFY_DEGREE)
    p.add_argument(
        "--budget",
        type=_int_flag,
        default=None,
        metavar="COLUMNS",
        help=f"oracle matrix column cap (default {DEFAULT_COLUMN_BUDGET}; "
        f"env {BUDGET_ENV_VAR})",
    )

    return parser


def _resolve_budget(args) -> int | None:
    """Oracle budget from --budget, else FOURFOLD_BUDGET, else None (default)."""
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get(BUDGET_ENV_VAR, "")
        if not env:
            return None
        budget = _signed_numeral(BUDGET_ENV_VAR, env, DomainError)
        if budget is None:
            raise DomainError(f"{BUDGET_ENV_VAR}={_echo(env)} is not an integer")
        source = BUDGET_ENV_VAR
    _int_arg(source, budget, 1)
    return budget


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # The reader closed stdout early (`| head`), while argparse or the
        # result was printing.  Point stdout at devnull so the interpreter's
        # final flush of what is left cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        try:
            print("error: output pipe closed before all output was written",
                  file=sys.stderr)
        except OSError:  # stderr went with it (`2>&1 | head`)
            pass
        return 1


def _main(argv) -> int:
    try:
        text, code = _output(_build_parser().parse_args(argv))
    except (FourfoldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        usage = (DomainError, ParseError, ValidationError, OSError)
        return 2 if isinstance(exc, usage) else 1

    # print writes the final newline on its own: a long write into a pipe
    # whose reader has gone can come back short with no error, and this
    # second write then meets the closed pipe
    print(text)
    sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
    return code


def _output(args) -> tuple:
    """(text to print, less its final newline; exit code) of the parsed
    command.  An output value past Python's limit on int to str conversion
    is a ResourceLimit; the parsers refuse an input numeral past it."""
    try:
        if args.command == "ranks":
            result = cmd_ranks(args.betti, args.max_degree)
        elif args.command == "series":
            result = cmd_series(args.kind, args.betti, args.terms, args.dims)
        elif args.command == "stable":
            result = cmd_stable(args.betti, args.n, args.pi1_order, args.stems_file)
        elif args.command == "growth":
            result = cmd_growth(args.betti, args.probe)
        else:
            result = cmd_verify(args.betti, args.max_degree, _resolve_budget(args))
        if args.format == "json":
            text = json.dumps(result.payload, indent=2)
        elif args.format == "csv":
            text = result.csv[:-1]  # every CSV form ends in a newline
        else:
            text = result.rendered
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ResourceLimit(
            f"a value has more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for converting an int to text"
        ) from None
    return text, result.exit_code


if __name__ == "__main__":
    sys.exit(main())
