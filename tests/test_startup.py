"""Start-up: what each entry point imports, the lazy package exports, the
hand-written record classes that replace dataclasses, and the one check that
every public function and constructor makes of its integer arguments."""

import ast
import copy
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
import typing
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import fourfold
from fourfold.cli import CommandResult
from fourfold.errors import (
    DomainError,
    InternalInconsistency,
    UngradedGenerator,
    ValidationError,
)
from fourfold.oracle import OracleReport, koszul_leading_monomial_check, quotient_dims_oracle
from fourfold.ranks import (
    GrowthReport,
    PbwCheck,
    RankTable,
    _checked_ranks,
    growth_base,
    growth_report,
    homotopy_ranks,
    pbw_identity_check,
    pbw_series,
    rank_polynomial_checks,
)
from fourfold.series import (
    GradedDims,
    TruncatedSeries,
    free_comm_series,
    quotient_series,
    tensor_series,
)
from fourfold.stable import (
    FinAbGroup,
    StemsTable,
    bundled_stems_table,
    integral_low_homotopy,
    stable_homotopy_finite_pi1,
    stable_homotopy_simply_connected,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

# -- import sets --------------------------------------------------------------

#: Modules that verify and ranks must not pay for: the stems tables, the
#: dataclasses machinery (which pulls in inspect), and the number types that
#: only other code paths build.
HEAVY = {"fourfold.stable", "dataclasses", "inspect", "fractions", "decimal"}


def loaded_modules(code: str) -> set:
    """sys.modules after running `code` in a fresh interpreter, minus what a
    bare interpreter in the same environment already has."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    report = "import sys; sys.stderr.write('\\n' + ' '.join(sys.modules))"

    def modules(body):
        proc = subprocess.run(
            [sys.executable, "-c", body + "\n" + report],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.splitlines()[-1].split())

    return modules(code) - modules("")


def main_modules(*argv) -> set:
    return loaded_modules(f"from fourfold.cli import main\nmain({list(argv)!r})")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--betti", "3", "--max-degree", "8"],
        ["verify", "--betti", "2", "--max-degree", "6", "--format", "json"],
        ["ranks", "--betti", "3"],
        ["series", "--kind", "pbw", "--betti", "3", "--terms", "10"],
        ["series", "--kind", "tensor", "--betti", "3", "--terms", "10"],
        ["series", "--kind", "quotient", "--betti", "3", "--terms", "10"],
        ["series", "--kind", "free-comm", "--betti", "1", "--dims", "1:2,2:2", "--terms", "6"],
    ],
)
def test_verify_ranks_and_series_import_no_heavy_module(argv):
    loaded = main_modules(*argv)
    assert "fourfold.oracle" in loaded  # the probe did run the command
    assert not loaded & HEAVY


def test_growth_imports_decimal_only():
    loaded = main_modules("growth", "--betti", "3", "--probe", "40")
    assert "decimal" in loaded
    assert not loaded & (HEAVY - {"decimal"})


def test_stable_command_imports_no_dataclasses():
    loaded = main_modules("stable", "--betti", "2", "--n", "5")
    assert "fourfold.stable" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}


def test_stems_table_imports_neither_oracle_nor_series():
    # what a fresh process pays to load the bundled table
    loaded = loaded_modules("import fourfold; fourfold.bundled_stems_table()")
    assert {m for m in loaded if m.startswith("fourfold")} == {
        "fourfold", "fourfold._record", "fourfold.errors", "fourfold.stable"
    }
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "json"}


def test_import_fourfold_loads_no_submodule():
    loaded = loaded_modules("import fourfold")
    assert {m for m in loaded if m.startswith("fourfold")} == {"fourfold"}


# -- lazy exports -------------------------------------------------------------

#: The public API; a name added or removed here is a deliberate API change.
PUBLIC_API = [
    "DomainError", "FinAbGroup", "FourfoldError", "GradedDims", "GrowthReport",
    "InsufficientStemsData", "InternalInconsistency", "OracleReport",
    "PBW_FAIL", "PBW_NOT_APPLICABLE", "PBW_PASS", "ParseError", "PbwCheck",
    "RankTable", "ResourceLimit", "StemsTable", "TruncatedSeries",
    "UngradedGenerator", "ValidationError", "bundled_stems_table",
    "free_comm_series", "growth_base", "growth_report", "homotopy_ranks",
    "integral_low_homotopy", "koszul_leading_monomial_check",
    "load_stems_table", "pbw_identity_check", "pbw_series", "quotient_dims_oracle",
    "quotient_series", "rank_polynomial_checks",
    "stable_homotopy_finite_pi1",
    "stable_homotopy_simply_connected", "tensor_series",
]


def test_public_api_is_pinned():
    assert fourfold.__all__ == PUBLIC_API


def test_every_export_is_its_home_modules_object():
    assert sorted(fourfold._HOME) == sorted(fourfold.__all__)
    for name in fourfold.__all__:
        home = importlib.import_module(f"fourfold.{fourfold._HOME[name]}")
        assert getattr(fourfold, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fourfold import *", namespace)
    for name in fourfold.__all__:
        assert namespace[name] is getattr(fourfold, name), name


def test_dir_lists_every_export():
    listed = dir(fourfold)
    assert set(fourfold.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'series_pow'"):
        fourfold.series_pow
    assert not hasattr(fourfold, "cli_main")


def typing_namespace(module) -> dict:
    """The module's globals plus the imports it makes under TYPE_CHECKING,
    the names a type checker resolves its annotations in."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), namespace)
    return namespace


@pytest.mark.parametrize("name", fourfold.__all__)
def test_annotations_of_every_export_resolve(name):
    # no lint step runs, so this is where an annotation naming nothing fails
    obj = getattr(fourfold, name)
    if isinstance(obj, type):
        obj = obj.__init__
    if callable(obj) and getattr(obj, "__module__", "").startswith("fourfold"):
        module = importlib.import_module(obj.__module__)
        typing.get_type_hints(obj, typing_namespace(module))


def test_submodules_are_attributes_of_the_package():
    for module in ("errors", "oracle", "ranks", "series", "stable"):
        assert getattr(fourfold, module) is importlib.import_module(f"fourfold.{module}")


# -- records --------------------------------------------------------------------

STEMS = {0: FinAbGroup(1), 1: FinAbGroup(0, (2,))}


def report_fields():
    return dict(
        betti_param=1, tensor_dims=GradedDims((1, 1, 2, 3)), ideal_dims=GradedDims((0, 0, 0, 1)),
    )


#: vars() of the GrowthReport in RECORDS: it stores the three fields it
#: derives from betti and probe_degree too, in the places perfbench reads them
GROWTH_VARS = dict(
    betti=3, classification="hyperbolic", probe_degree=4,
    growth_base=Decimal("2.6"), limit_residual=Decimal("0.1"),
    exponential_growth=True, cumulative_bound_ok={1: True, 2: True},
)


def stored(cls, fields) -> dict:
    """vars() of cls(**fields): a GrowthReport adds its derived fields, and a
    StemsTable keeps its mapping's stems as one tuple."""
    if cls is StemsTable:
        return {**fields, "entries": tuple(fields["entries"].values())}
    return GROWTH_VARS if cls is GrowthReport else fields


#: (class, field values in declaration order); each row builds one record.
RECORDS = [
    (OracleReport, report_fields()),
    (RankTable, dict(betti=3, ranks=(3, 5))),
    (PbwCheck, dict(status="fail", first_failure=4)),
    (GrowthReport, {
        name: value for name, value in GROWTH_VARS.items()
        if name not in ("classification", "exponential_growth", "cumulative_bound_ok")
    }),
    (TruncatedSeries, dict(coeffs=(1, 2, -3))),
    (GradedDims, dict(dims=(1, 0, 2))),
    (FinAbGroup, dict(free_rank=1, torsion=(8, 3))),
    (StemsTable, dict(entries=STEMS, source_note="two stems")),
    (CommandResult, dict(exit_code=0, payload={"a": 1}, rendered="r", csv="c")),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_constructs_by_position_and_keyword(cls, fields):
    assert list(inspect.signature(cls).parameters) == list(fields)
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    # vars() gives the fields in order, as perfbench reads a GrowthReport
    assert list(vars(by_keyword).items()) == list(stored(cls, fields).items())
    assert repr(by_keyword).startswith(f"{cls.__name__}({next(iter(fields))}=")


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_is_immutable(cls, fields):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert vars(record) == stored(cls, fields)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_equality_is_by_class_and_fields(cls, fields):
    record = cls(**fields)
    assert record == cls(**fields) and not record != cls(**fields)
    assert record != tuple(fields.values())
    other = [r for r in RECORDS if r[0] is not cls][0]
    assert record != other[0](**other[1])
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(TypeError):
        record < record  # records have no order


@pytest.mark.parametrize(
    "record",
    [RankTable(3, (3, 5)), PbwCheck("pass"),
     TruncatedSeries((1, 2)), GradedDims((1, 2)), FinAbGroup(1, (8, 3)), StemsTable(STEMS)],
    ids=lambda r: type(r).__name__,
)
def test_hashable_records_hash_by_value(record):
    again = pickle.loads(pickle.dumps(record))
    assert again is not record and hash(again) == hash(record)
    assert len({record, again}) == 1


def test_records_holding_a_dict_are_unhashable():
    # as with a frozen dataclass, the hash of a dict field raises; a
    # StemsTable is given a dict but holds a tuple
    for cls, fields in RECORDS:
        if any(isinstance(v, dict) for v in stored(cls, fields).values()):
            with pytest.raises(TypeError):
                hash(cls(**fields))


def test_record_defaults():
    assert FinAbGroup() == FinAbGroup(0, ()) == FinAbGroup.trivial()
    assert PbwCheck("pass").first_failure is None
    assert StemsTable(STEMS).source_note == ""
    growth = [GrowthReport(2, 5, None, None) for _ in range(2)]
    assert growth[0].cumulative_bound_ok == {}
    assert (growth[0].classification, growth[0].exponential_growth) == ("elliptic", False)
    assert growth[0].cumulative_bound_ok is not growth[1].cumulative_bound_ok


@pytest.mark.parametrize(
    "build, error, message",
    [
        # elements of a sequence or mapping pass _int_arg like any integer argument
        *[pytest.param(build, DomainError, message, id=name) for name, build, message in [
            ("GradedDims-dim=-1", lambda: GradedDims((-1,)), "dimension must be >= 0, got -1"),
            ("GradedDims-dim=1.9", lambda: GradedDims((1.9, 2)),
             "dimension must be an int, got 1.9"),
            ("GradedDims-dim='3'", lambda: GradedDims(("3",)),
             "dimension must be an int, got '3'"),
            ("free_comm_series-multiplicity=1.9", lambda: free_comm_series({1: 1.9}, 3),
             "multiplicity must be an int, got 1.9"),
            ("free_comm_series-multiplicity=-2", lambda: free_comm_series({1: 1, 2: -2}, 3),
             "multiplicity must be >= 0, got -2"),
            ("tensor_series-degree=1.7", lambda: tensor_series({1.7: 2}, 3),
             "degree must be an int, got 1.7"),
            ("tensor_series-degree='1'", lambda: tensor_series({"1": "2"}, 3),
             "degree must be an int, got '1'"),
            ("free_comm_series-multiplicity='x'", lambda: free_comm_series({1: "x"}, 3),
             "multiplicity must be an int, got 'x'"),
            ("tensor_series-degree=-1", lambda: tensor_series({-1: 2}, 3), "negative degree -1"),
            ("TruncatedSeries-coefficient=0.5", lambda: TruncatedSeries((1, 0.5)),
             "coefficient must be an int, got 0.5"),
            ("TruncatedSeries-coefficient=Fraction", lambda: TruncatedSeries((1, Fraction(1, 2))),
             "coefficient must be an int, got Fraction(1, 2)"),
        ]],
        pytest.param(lambda: tensor_series({0: 2}, 3), UngradedGenerator,
                     "degree-0 generators are not allowed", id="tensor_series-degree=0"),
        (lambda: quotient_series(3.0, 5), DomainError, "k must be an int, got 3.0"),
        # the named constructors check N before their loops; ids keep the rows apart
        pytest.param(lambda: quotient_series(3, -1), DomainError,
                     "truncation order must be >= 0, got -1", id="quotient_series-N=-1"),
        pytest.param(lambda: tensor_series({1: 2, 2: 2}, -1), DomainError,
                     "truncation order must be >= 0, got -1", id="tensor_series-two-term-N=-1"),
        pytest.param(lambda: tensor_series({1: 2}, -1), DomainError,
                     "truncation order must be >= 0, got -1", id="tensor_series-general-N=-1"),
        pytest.param(lambda: free_comm_series({2: 1}, -1), DomainError,
                     "truncation order must be >= 0, got -1", id="free_comm_series-N=-1"),
        (lambda: FinAbGroup(0, (6,)), DomainError, "torsion order 6 is not a prime power"),
        pytest.param(lambda: FinAbGroup(-1), DomainError, "free rank must be >= 0, got -1",
                     id="FinAbGroup-free_rank=-1"),
        (lambda: StemsTable({0: FinAbGroup(1), 2: FinAbGroup()}), ValidationError,
         "stems table is missing index 1"),
        (lambda: StemsTable({0: FinAbGroup(0, (2,))}), ValidationError, "stem 0 must be Z, got Z/2"),
        # a stem is a group: text is refused here, not when the assembly reads it
        pytest.param(lambda: StemsTable({0: FinAbGroup(1), 1: "Z/2"}), ValidationError,
                     "stem 1 must be a FinAbGroup, got 'Z/2'", id="StemsTable-value='Z/2'"),
        # the derived fields leave one check that reads a value the caller gives
        pytest.param(lambda: OracleReport(1, GradedDims((1, 1, 2)), GradedDims((0, 1))),
                     InternalInconsistency, "nonzero ideal dim at degree 1 < 3",
                     id="OracleReport-ideal-below-degree-3"),
        pytest.param(lambda: StemsTable({}), ValidationError, "stems table is missing index 0",
                     id="StemsTable-empty"),
        # elements of a sequence or mapping and the index of a method follow
        # _int_arg's rule: a bool is not an int
        *[pytest.param(build, DomainError, message, id=name) for name, build, message in [
            ("TruncatedSeries-empty", lambda: TruncatedSeries(()),
             "need at least 1 coefficient, got 0"),
            ("TruncatedSeries-coefficient=True", lambda: TruncatedSeries((True, 2)),
             "coefficient must be an int, got True"),
            ("GradedDims-dim=True", lambda: GradedDims((True, 2)), "dimension must be an int, got True"),
            ("tensor_series-degree=True", lambda: tensor_series({True: 2}, 3),
             "degree must be an int, got True"),
            ("free_comm_series-multiplicity=True", lambda: free_comm_series({1: True}, 3),
             "multiplicity must be an int, got True"),
            ("StemsTable-key=1.0", lambda: StemsTable({0: FinAbGroup(1), 1.0: FinAbGroup()}),
             "stem index must be an int, got 1.0"),
            ("StemsTable-key=-1", lambda: StemsTable({0: FinAbGroup(1), -1: FinAbGroup()}),
             "stem index must be >= 0, got -1"),
            ("lookup-n=3.0", lambda: bundled_stems_table().lookup(3.0),
             "stem index must be an int, got 3.0"),
            ("lookup-n=True", lambda: bundled_stems_table().lookup(True),
             "stem index must be an int, got True"),
            ("lookup-n='2'", lambda: bundled_stems_table().lookup("2"),
             "stem index must be an int, got '2'"),
            ("rank-n=True", lambda: RankTable(3, (3, 5)).rank(True),
             "degree must be an int, got True"),
            ("rank-n=None", lambda: RankTable(3, (3, 5)).rank(None),
             "degree must be an int, got None"),
            ("rank-n=0", lambda: RankTable(3, (3, 5)).rank(0), "degree 0 outside 1..2"),
            ("coefficient-i=True", lambda: TruncatedSeries((1, 2)).coefficient(True),
             "coefficient index must be an int, got True"),
            ("coefficient-i=1.0", lambda: TruncatedSeries((1, 2)).coefficient(1.0),
             "coefficient index must be an int, got 1.0"),
            ("coefficient-i=-1", lambda: TruncatedSeries((1, 2)).coefficient(-1),
             "coefficient index -1 outside 0..1"),
            ("GradedDims-getitem-i=None", lambda: GradedDims((1, 2))[None],
             "degree must be an int, got None"),
        ]],
        # every integer argument passes through errors._int_arg before any work:
        # an int that is not a bool, at or above the argument's minimum
        *[pytest.param(build, DomainError, message, id=name) for name, build, message in [
            ("homotopy_ranks-N=5.0", lambda: homotopy_ranks(3, 5.0),
             "max degree must be an int, got 5.0"),
            ("homotopy_ranks-b2='3'", lambda: homotopy_ranks("3", 5),
             "second Betti number must be an int, got '3'"),
            ("homotopy_ranks-b2=True", lambda: homotopy_ranks(True, 6),
             "second Betti number must be an int, got True"),
            ("growth_report-N=60.0", lambda: growth_report(3, 60.0),
             "probe degree must be an int, got 60.0"),
            ("growth_report-b2=3.5", lambda: growth_report(3.5, 10),
             "second Betti number must be an int, got 3.5"),
            ("growth_base-b2=2", lambda: growth_base(2),
             "second Betti number must be >= 3, got 2"),
            ("rank_polynomial_checks-N=8.0", lambda: rank_polynomial_checks(8.0),
             "max degree must be an int, got 8.0"),
            ("rank_polynomial_checks-N=-3", lambda: rank_polynomial_checks(-3),
             "max degree must be >= 0, got -3"),
            ("stable_homotopy_finite_pi1-m=2.0",
             lambda: stable_homotopy_finite_pi1(3, 5, 2.0, StemsTable(STEMS)),
             "order of the fundamental group must be an int, got 2.0"),
            ("integral_low_homotopy-b2=3.0", lambda: integral_low_homotopy(3.0),
             "second Betti number must be an int, got 3.0"),
            ("integral_low_homotopy-b2=2", lambda: integral_low_homotopy(2),
             "second Betti number must be >= 3, got 2"),
            ("quotient_dims_oracle-k=2.0", lambda: quotient_dims_oracle(2.0, 5),
             "alphabet parameter must be an int, got 2.0"),
            ("quotient_dims_oracle-budget=0", lambda: quotient_dims_oracle(2, 5, budget=0),
             "budget must be >= 1, got 0"),
            ("quotient_dims_oracle-budget='x'", lambda: quotient_dims_oracle(2, 5, budget="x"),
             "budget must be an int, got 'x'"),
            ("quotient_dims_oracle-budget=True", lambda: quotient_dims_oracle(2, 4, budget=True),
             "budget must be an int, got True"),
            ("koszul_leading_monomial_check-k=3.0", lambda: koszul_leading_monomial_check(3.0),
             "alphabet parameter must be an int, got 3.0"),
            ("quotient_series-N=5.0", lambda: quotient_series(3, 5.0),
             "truncation order must be an int, got 5.0"),
            ("quotient_series-k=True", lambda: quotient_series(True, 3),
             "k must be an int, got True"),
            ("quotient_series-k=0", lambda: quotient_series(0, 3), "k must be >= 1, got 0"),
            ("tensor_series-N=5.0", lambda: tensor_series({1: 2, 2: 2}, 5.0),
             "truncation order must be an int, got 5.0"),
            ("free_comm_series-N=5.0", lambda: free_comm_series({2: 1}, 5.0),
             "truncation order must be an int, got 5.0"),
            ("FinAbGroup-free_rank=1.5", lambda: FinAbGroup(1.5),
             "free rank must be an int, got 1.5"),
            ("FinAbGroup-torsion=2.9", lambda: FinAbGroup(0, (2.9,)),
             "torsion order must be an int, got 2.9"),
            ("FinAbGroup-torsion=1", lambda: FinAbGroup(0, (1,)),
             "torsion order must be >= 2, got 1"),
            ("from_orders-order=2.5", lambda: FinAbGroup.from_orders(0, [2.5]),
             "cyclic order must be an int, got 2.5"),
            ("from_orders-order='24'", lambda: FinAbGroup.from_orders(0, ["24"]),
             "cyclic order must be an int, got '24'"),
            ("from_orders-order=-1", lambda: FinAbGroup.from_orders(0, [-1]),
             "cyclic order must be >= 0, got -1"),
            ("from_orders-free_rank=-1", lambda: FinAbGroup.from_orders(-1, [0]),
             "free rank must be >= 0, got -1"),
            ("power-e=2.0", lambda: FinAbGroup(1).power(2.0),
             "direct-sum exponent must be an int, got 2.0"),
            ("power-e=-1", lambda: FinAbGroup(1).power(-1),
             "direct-sum exponent must be >= 0, got -1"),
        ]],
    ],
)
def test_record_validation(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_records_normalise_their_fields():
    assert TruncatedSeries([1, 2]).coeffs == (1, 2)
    assert GradedDims([1, 2]).dims == (1, 2)
    assert FinAbGroup(0, (3, 8, 2)).torsion == (2, 8, 3)


# -- integer arguments ----------------------------------------------------------

#: Each public name or method that takes an integer: (call, valid arguments,
#: positions of the integer arguments).  Integers inside a container (a
#: torsion or cyclic order, a stems key) and the arguments of methods are
#: reached through a lambda.
INT_CALLS = {
    "homotopy_ranks": (homotopy_ranks, (3, 6), (0, 1)),
    "pbw_identity_check": (pbw_identity_check, (3, 6), (0, 1)),
    "growth_base": (growth_base, (3,), (0,)),
    "growth_report": (growth_report, (3, 10), (0, 1)),
    "rank_polynomial_checks": (rank_polynomial_checks, (8,), (0,)),
    "quotient_series": (quotient_series, (3, 5), (0, 1)),
    "tensor_series": (lambda N: tensor_series({1: 2, 2: 2}, N), (5,), (0,)),
    "free_comm_series": (lambda N: free_comm_series({2: 1}, N), (5,), (0,)),
    "pbw_series": (lambda N: pbw_series(homotopy_ranks(3, 5), N), (5,), (0,)),
    "TruncatedSeries.coefficient": (lambda i: TruncatedSeries((1, 2, 3)).coefficient(i),
                                    (1,), (0,)),
    "GradedDims.__getitem__": (lambda i: GradedDims((1, 2))[i], (1,), (0,)),
    "quotient_dims_oracle": (quotient_dims_oracle, (2, 4, 1000), (0, 1, 2)),
    "koszul_leading_monomial_check": (koszul_leading_monomial_check, (3,), (0,)),
    "FinAbGroup": (lambda rank, q: FinAbGroup(rank, (q,)), (1, 8), (0, 1)),
    "FinAbGroup.from_orders": (
        lambda rank, d: FinAbGroup.from_orders(rank, [d]), (1, 24), (0, 1)
    ),
    "FinAbGroup.power": (lambda e: FinAbGroup(1, (2,)).power(e), (3,), (0,)),
    "StemsTable": (lambda n: StemsTable({0: FinAbGroup(1), n: FinAbGroup()}), (1,), (0,)),
    "StemsTable.lookup": (lambda n: bundled_stems_table().lookup(n), (3,), (0,)),
    "RankTable.rank": (lambda n: RankTable(3, (3, 5)).rank(n), (2,), (0,)),
    "integral_low_homotopy": (integral_low_homotopy, (3,), (0,)),
    "stable_homotopy_finite_pi1": (
        lambda k, n, m: stable_homotopy_finite_pi1(k, n, m, bundled_stems_table()),
        (3, 5, 2), (0, 1, 2),
    ),
    "stable_homotopy_simply_connected": (
        lambda k, n: stable_homotopy_simply_connected(k, n, bundled_stems_table()),
        (3, 5), (0, 1),
    ),
}

#: Records the package returns: the function that builds each has checked its
#: integer arguments, so their constructors keep what they are given.
RESULT_RECORDS = {"GrowthReport", "OracleReport", "PbwCheck", "RankTable"}

#: Constructors whose integers are all inside a container.
CONTAINER_ONLY = {"StemsTable"}

NOT_INTS = [3.0, True, "3", None, Fraction(3)]


#: A test of a value's type against int: the integer rule written out.
INT_RULE = re.compile(
    r"__class__\s+is(\s+not)?\s+int\b|type\([^)]*\)\s+is(\s+not)?\s+int\b"
    r"|isinstance\([^)]*\bint\b"
)


def test_the_integer_rule_is_written_in_errors_py_alone():
    # every other module calls _int_arg, so a copy of its rule cannot drift
    package = Path(fourfold.__file__).parent
    found = {
        f"{path.relative_to(package)}:{lineno}"
        for path in package.rglob("*.py")
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if INT_RULE.search(line)
    }
    assert {place.partition(":")[0] for place in found} == {"errors.py"}, sorted(found)


#: The f-string fields a raise may show as they are, by module, function and
#: field, each with the bound that keeps it short; any other field is an
#: _echo(...) call or type(...).__name__.
LABEL = "a label the package writes, such as 'stem index'"
STEMS_WHERE = "'line N' or 'entry ' + _echo(key), from the stems parser"
FIELD = "the field a caller sets on a frozen record: a misuse, not a refused value"
INT_LIMIT = "Python's int-to-text limit, 4300 by default"
SHOWN_AS_IS = {
    ("errors.py", "_int_arg", "name"): LABEL,
    ("errors.py", "_numeral", "name"): LABEL,
    ("errors.py", "_numeral", "sys.get_int_max_str_digits()"): INT_LIMIT,
    ("_record.py", "__setattr__", "name"): FIELD,
    ("_record.py", "__delattr__", "name"): FIELD,
    ("cli.py", "cmd_series", "kind"): "one of the --kind choices argparse accepts",
    ("cli.py", "_resolve_budget", "BUDGET_ENV_VAR"): "the constant 'FOURFOLD_BUDGET'",
    ("cli.py", "_output", "sys.get_int_max_str_digits()"): INT_LIMIT,
    ("stable.py", "power", "sys.maxsize"): "at most 19 digits",
    ("stable.py", "_parse_group_expr", "where"): STEMS_WHERE,
    ("stable.py", "load_stems_table", "where"): STEMS_WHERE,
    ("stable.py", "_stem_entries", "exc"):
        "a JSON decoder's message: a reason, then a line, column and offset",
    ("stable.py", "_read_stems", "exc.reason"): "a codec's reason, such as 'invalid start byte'",
    ("stable.py", "_read_stems", "path"):
        "a path the OS has just opened: at most PATH_MAX, 4096 bytes on Linux",
}


def raise_fields(path: Path):
    """(function, field) for each f-string field of a raise in path, the
    function being the innermost one that holds the raise."""
    owner = {}
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # ast.walk meets an outer function first, so the inner one wins
            owner.update((node, fn.name) for node in ast.walk(fn))
    for node, function in owner.items():
        if isinstance(node, ast.Raise) and node.exc is not None:
            for part in ast.walk(node.exc):
                if isinstance(part, ast.FormattedValue):
                    yield node.lineno, function, part.value


def by_the_rule(field: ast.expr) -> bool:
    """Whether field is an _echo(...) call or type(...).__name__."""
    if isinstance(field, ast.Call):
        return getattr(field.func, "id", None) == "_echo"
    return (isinstance(field, ast.Attribute) and field.attr == "__name__"
            and getattr(getattr(field.value, "func", None), "id", None) == "type")


def test_every_raise_shows_a_value_by_the_one_rule():
    # an int past Python's int-to-text limit, formatted directly, raises
    # ValueError while the message is built, and a long text is shown whole
    package = Path(fourfold.__file__).parent
    shown, found = set(), []
    for path in sorted(package.rglob("*.py")):
        for lineno, function, field in raise_fields(path):
            key = (str(path.relative_to(package)), function, ast.unparse(field))
            if key in SHOWN_AS_IS:
                shown.add(key)
            elif not by_the_rule(field):
                found.append(f"{key[0]}:{lineno}: {function}: {key[2]}")
    assert found == []
    assert shown == set(SHOWN_AS_IS)  # no entry outlives its raise


#: The package modules each lower module may import, anywhere in it: series
#: builds on errors and _record alone, ranks and oracle on series; stable and
#: cli, above them, are not listed.
IMPORTS_BELOW = {
    "errors.py": set(),
    "_record.py": set(),
    "series.py": {"errors", "_record"},
    "ranks.py": {"errors", "_record", "series"},
    "oracle.py": {"errors", "_record", "series"},
}


def package_imports(path: Path) -> set:
    """The fourfold modules path imports, at module level, under TYPE_CHECKING
    or inside a function; a public name imported from the package counts as
    its home module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("fourfold." * bool(node.level)) + (node.module or "")
            if module.rstrip(".") == "fourfold":  # from fourfold import name
                dotted = [f"fourfold.{fourfold._HOME.get(a.name, a.name)}" for a in node.names]
            else:
                dotted = [module]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("fourfold."))
    return found


def test_lower_modules_import_no_module_above_them():
    # ranks imports series, so series importing ranks would be a cycle
    package = Path(fourfold.__file__).parent
    imports = {name: package_imports(package / name) for name in IMPORTS_BELOW}
    assert {name: found - IMPORTS_BELOW[name] for name, found in imports.items()} == {
        name: set() for name in IMPORTS_BELOW
    }


def test_package_imports_reads_every_import_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from .series import x\nfrom . import oracle\nimport fourfold.stable\n"
        "from fourfold import homotopy_ranks\nimport os\n"
        "def f():\n    from fourfold.cli import main\n",
        encoding="utf-8",
    )
    assert package_imports(source) == {"series", "oracle", "stable", "ranks", "cli"}


def public_callables():
    """(name, callable) for every public function and class, and for every
    public method (and __getitem__) of a public class, as "Class.method"."""
    for name in fourfold.__all__:
        obj = getattr(fourfold, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        yield name, obj
        if isinstance(obj, type):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if callable(member) and (not attr.startswith("_") or attr == "__getitem__"):
                    yield f"{name}.{attr}", member


def test_the_integer_argument_table_lists_every_public_name_that_takes_an_int():
    takes_int = set()
    for name, obj in public_callables():
        params = inspect.signature(obj).parameters.values()
        if any(p.annotation in ("int", "Optional[int]") for p in params):
            takes_int.add(name)
    # the methods of a result record are public names like any other
    assert {"RankTable.rank", "StemsTable.lookup", "GradedDims.__getitem__"} <= takes_int
    assert takes_int - RESULT_RECORDS == set(INT_CALLS) - CONTAINER_ONLY


@pytest.mark.parametrize("name", sorted(INT_CALLS))
def test_every_integer_argument_refuses_what_is_not_an_int(name, empty_rank_store):
    """Each integer argument in turn, replaced by a float, a bool, a numeric
    string, None or a Fraction, raises DomainError before any work: no
    TypeError from deeper down, no answer in floats, and no change to the
    prefix store, which afterwards holds only int b2 keys and int ranks.

    Only types are varied.  Huge values are left out on purpose: several
    functions still do work unbounded in the size of their arguments, so a
    huge value tests a cost bound, not this check.
    """
    call, args, positions = INT_CALLS[name]
    call(*args)  # the valid call answers
    kept = dict(empty_rank_store.entries)
    for i in positions:
        for bad in NOT_INTS:
            if bad is None and name == "quotient_dims_oracle" and i == 2:
                continue  # budget=None is the default budget
            with pytest.raises(DomainError, match=" must be an int, got "):
                call(*args[:i], bad, *args[i + 1:])
    assert empty_rank_store.entries == kept
    for (compute, b2), (seq, _) in kept.items():
        assert type(b2) is int
        if compute is _checked_ranks:
            assert all(type(m) is int for m in seq)
