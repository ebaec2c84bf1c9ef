"""One rule shows a refused value in every error: errors._echo.

Each refusal below is given a value far too long to print: a 5,000-digit
int (more digits than Python converts to text by default), a 5,000-character
string or a 10**5-element list, through the library or through the command
line.  Each must raise its own error class, never a ValueError from
formatting the message, and its message must show at most the first 20
characters of the value.
"""

import pytest

from fourfold import cli, errors
from fourfold.errors import (
    DomainError,
    InsufficientStemsData,
    ParseError,
    ResourceLimit,
    ValidationError,
)
from fourfold.oracle import quotient_dims_oracle
from fourfold.ranks import homotopy_ranks
from fourfold.series import TruncatedSeries, free_comm_series
from fourfold.stable import FinAbGroup, StemsTable, bundled_stems_table, load_stems_table

BIG = 7 * (10**5000 - 1) // 9  # 5,000 sevens, built without int() of a numeral
SEVENS = "7" * 21  # what showing 21 characters of BIG would show
LONG = "x" * 5000
CUT = repr(LONG[:21])[:-1]  # what showing 21 characters of LONG would show
ITEMS = list(range(10**5))
Z = FinAbGroup(1)
# stem 0 as Z plus Z/p over the first 1,500 primes: its one invariant factor,
# their product, has more digits than Python converts to text by default
PRIMES = [p for p in range(2, 12_554) if all(p % d for d in range(2, int(p**0.5) + 1))]
PRODUCT = 1
for p in PRIMES:
    PRODUCT *= p
LEAD = PRODUCT
while LEAD >= 10**21:  # the product's first 21 digits, never converted whole
    LEAD //= 10


def raise_(exc):
    raise exc


#: (refusal, call, error class, what showing 21 characters of the value shows)
LIBRARY = [
    ("int-arg-minimum", lambda: homotopy_ranks(-BIG, 3), DomainError, "-" + SEVENS[:20]),
    ("int-arg-str", lambda: homotopy_ranks(LONG, 3), DomainError, CUT),
    ("int-arg-list", lambda: homotopy_ranks(ITEMS, 3), DomainError, repr(ITEMS[:7])[:21]),
    ("insufficient-stems-lookup", lambda: bundled_stems_table().lookup(BIG),
     InsufficientStemsData, SEVENS),
    ("insufficient-stems", lambda: raise_(InsufficientStemsData(BIG, BIG)),
     InsufficientStemsData, SEVENS),
    ("stems-entry", lambda: load_stems_table(f'{{"0": "Z", "{LONG}": "Z"}}'),
     ParseError, CUT),
    ("stems-entry-duplicate",
     lambda: load_stems_table(f'{{"0": "Z", "{SEVENS * 190}": "Z", "{SEVENS * 190}": "Z"}}'),
     ParseError, SEVENS),
    ("stems-term", lambda: load_stems_table(f"0: Z\n1: {LONG}"), ParseError, CUT),
    ("stems-cyclic-order", lambda: load_stems_table(f"0: Z\n1: Z/{LONG}"),
     ParseError, "'Z/" + LONG[:19]),
    ("stems-line", lambda: load_stems_table(f"0: Z\n{LONG}"), ParseError, CUT),
    ("stems-table-index", lambda: StemsTable({0: Z, BIG: "Z"}), ValidationError, SEVENS),
    ("stems-table-str", lambda: StemsTable({0: Z, 1: LONG}), ValidationError, CUT),
    ("stems-table-list", lambda: StemsTable({0: Z, 1: ITEMS}),
     ValidationError, repr(ITEMS[:7])[:21]),
    ("stems-table-stem-0", lambda: StemsTable({0: FinAbGroup(BIG)}),
     ValidationError, "Z^" + SEVENS[:19]),
    ("factor", lambda: FinAbGroup.from_orders(0, [BIG]), ResourceLimit, SEVENS),
    ("power", lambda: FinAbGroup(0, (2,)).power(BIG), ResourceLimit, SEVENS),
    ("rank", lambda: homotopy_ranks(3, 5).rank(BIG), DomainError, SEVENS),
    ("coefficient", lambda: TruncatedSeries((1,)).coefficient(BIG), DomainError, SEVENS),
    ("dims-by-degree", lambda: free_comm_series({-BIG: 1}, 3), DomainError, "-" + SEVENS[:20]),
    ("column-budget", lambda: quotient_dims_oracle(BIG, 3), ResourceLimit, SEVENS),
]


def shows_a_cut_value(message: str, shown: str) -> bool:
    """At most 20 characters of a value, in a message short enough to read:
    shown is what showing its first 21 would show."""
    return shown not in message and len(message) < 200


@pytest.mark.parametrize(
    "call, error, shown", [case[1:] for case in LIBRARY], ids=[case[0] for case in LIBRARY]
)
def test_a_library_refusal_shows_at_most_20_characters_of_its_value(call, error, shown):
    with pytest.raises(errors.FourfoldError) as exc:
        call()
    assert type(exc.value) is error
    assert shows_a_cut_value(str(exc.value), shown)


DIGITS = "7" * 4000  # below the default limit of int(), so the flag reads it

#: (refusal, argv, stems file text or None, exit code, what showing 21
#: characters of the value shows, text the message must hold)
COMMAND_LINE = [
    ("ranks-betti", ("ranks", "--betti", "-" + DIGITS), None, 2, "-" + DIGITS[:20],
     "error: second Betti number must be >= 1, got -"),
    ("stable-betti", ("stable", "--betti", DIGITS, "--n", "5"), None, 1, DIGITS[:21],
     "cyclic summands, more than"),
    ("stable-n", ("stable", "--betti", "3", "--n", DIGITS), None, 1, DIGITS[:21],
     "requested but table ends at 19"),
    ("dims", ("series", "--kind", "free-comm", "--betti", "1", "--dims", "1:" + "x" * 3000),
     None, 2, "'1:" + "x" * 19, "error: bad --dims entry '1:"),
    ("stems-json-key", ("stable", "--betti", "2", "--n", "5"), f'{{"0": "Z", "{LONG}": "Z"}}',
     2, CUT, "index must be a nonnegative integer"),
    ("stems-term", ("stable", "--betti", "2", "--n", "5"), f"0: Z\n1: {LONG}\n",
     2, CUT, "error: line 2: unrecognized term"),
    ("stems-line", ("stable", "--betti", "2", "--n", "5"), f"0: Z\n{LONG}\n",
     2, CUT, "error: line 2: expected `n: group`, got"),
    ("stems-stem-0", ("stable", "--betti", "2", "--n", "3"),
     "0: Z + " + " + ".join(f"Z/{p}" for p in PRIMES) + "\n1: Z/2\n2: Z/2\n3: Z/24\n",
     2, "Z/" + str(LEAD)[:19], "error: stem 0 must be Z, got Z/"),
    ("verify-column-budget", ("verify", "--betti", DIGITS[:2000], "--max-degree", "3"), None,
     1, DIGITS[:21], "-column matrix; budget is 50000 columns"),
]


@pytest.mark.parametrize(
    "argv, stems, code, shown, holds",
    [case[1:] for case in COMMAND_LINE],
    ids=[case[0] for case in COMMAND_LINE],
)
def test_a_command_line_refusal_is_one_short_error_line(
    capsys, monkeypatch, tmp_path, argv, stems, code, shown, holds
):
    monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
    if stems is not None:
        f = tmp_path / "stems.txt"
        f.write_text(stems, encoding="utf-8")
        argv = (*argv, "--stems-file", str(f))
    assert cli.main(list(argv)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert holds in err
    assert shows_a_cut_value(err, shown)
