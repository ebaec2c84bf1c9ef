"""Start-up: what each entry point imports, the lazy package exports, and the
hand-written record classes that replace dataclasses."""

import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import fourfold
from fourfold.cli import CommandResult
from fourfold.errors import DomainError, InternalInconsistency, ValidationError
from fourfold.oracle import OracleReport
from fourfold.ranks import GrowthReport, PbwCheck, RankTable
from fourfold.series import GradedDims, TruncatedSeries
from fourfold.stable import FinAbGroup, StemsTable

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
    "cumulative_bound_check", "euler_identity_check",
    "free_comm_series", "growth_base", "growth_report", "homotopy_ranks",
    "ideal_degree_dim", "integral_low_homotopy", "koszul_leading_monomial_check",
    "load_stems_table", "pbw_identity_check", "pbw_series", "quotient_dims_oracle",
    "quotient_series", "rank_polynomial_checks", "rank_polynomial_eval",
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


def test_submodules_are_attributes_of_the_package():
    for module in ("errors", "oracle", "ranks", "series", "stable"):
        assert getattr(fourfold, module) is importlib.import_module(f"fourfold.{module}")


# -- records --------------------------------------------------------------------

STEMS = {0: FinAbGroup(1), 1: FinAbGroup(0, (2,))}


def report_fields():
    return dict(
        betti_param=1, max_degree=3, tensor_dims=GradedDims((1, 1, 2, 3)),
        ideal_dims=GradedDims((0, 0, 0, 1)), quotient_dims=GradedDims((1, 1, 2, 2)),
        series_match=(True,) * 4, euler_ok=(True,) * 4, field_used="integer",
    )


#: (class, field values in declaration order); each row builds one record.
RECORDS = [
    (OracleReport, report_fields()),
    (RankTable, dict(betti=3, max_degree=2, ranks=(3, 5))),
    (PbwCheck, dict(status="fail", first_failure=4)),
    (GrowthReport, dict(
        betti=3, classification="hyperbolic", probe_degree=4,
        growth_base=Decimal("2.6"), limit_residual=Decimal("0.1"),
        exponential_growth=True, precision=60, cumulative_bound_ok={1: True},
    )),
    (TruncatedSeries, dict(coeffs=(1, 2, -3), truncation_order=2)),
    (GradedDims, dict(dims=(1, 0, 2))),
    (FinAbGroup, dict(free_rank=1, torsion=(8, 3))),
    (StemsTable, dict(entries=STEMS, max_index=1, source_note="two stems")),
    (CommandResult, dict(status="ok", payload={"a": 1}, rendered="r", csv="c")),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_constructs_by_position_and_keyword(cls, fields):
    assert list(inspect.signature(cls).parameters) == list(fields)
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    # vars() gives the fields in order, as perfbench reads a GrowthReport
    assert list(vars(by_keyword).items()) == list(fields.items())
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
    assert vars(record) == fields


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
    [RankTable(3, 2, (3, 5)), PbwCheck("pass"),
     TruncatedSeries((1, 2), 1), GradedDims((1, 2)), FinAbGroup(1, (8, 3))],
    ids=lambda r: type(r).__name__,
)
def test_hashable_records_hash_by_value(record):
    again = pickle.loads(pickle.dumps(record))
    assert again is not record and hash(again) == hash(record)
    assert len({record, again}) == 1


def test_records_holding_a_dict_are_unhashable():
    # as with a frozen dataclass, the hash of a dict field raises
    for cls, fields in RECORDS:
        if any(isinstance(v, dict) for v in fields.values()):
            with pytest.raises(TypeError):
                hash(cls(**fields))


def test_record_defaults():
    assert FinAbGroup() == FinAbGroup(0, ()) == FinAbGroup.trivial()
    assert PbwCheck("pass").first_failure is None
    assert StemsTable(STEMS, 1).source_note == ""
    growth = [GrowthReport(2, "elliptic", 5, None, None, False, 60) for _ in range(2)]
    assert growth[0].cumulative_bound_ok == {}
    assert growth[0].cumulative_bound_ok is not growth[1].cumulative_bound_ok
    result = CommandResult("ok", {}, "r")
    assert result.csv == ""
    assert result.exit_code == 0 and CommandResult("fail", {}, "r").exit_code == 1


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GradedDims((-1,)), DomainError, "negative dimension in (-1,)"),
        (lambda: FinAbGroup(0, (6,)), DomainError, "torsion order 6 is not a prime power"),
        (lambda: FinAbGroup(-1), DomainError, "negative free rank -1"),
        (lambda: TruncatedSeries((1, 0.5), 1), DomainError, "coefficient 0.5 is not an int"),
        (lambda: TruncatedSeries((1, Fraction(1, 2)), 1), DomainError,
         "coefficient Fraction(1, 2) is not an int"),
        (lambda: TruncatedSeries((1,), -1), DomainError, "truncation order must be >= 0"),
        (lambda: TruncatedSeries((1,), 1), DomainError, "need 2 coefficients, got 1"),
        (lambda: OracleReport(**dict(report_fields(), quotient_dims=GradedDims((1, 1, 2, 3)))),
         InternalInconsistency, "quotient dim at degree 3 is not tensor - ideal"),
        (lambda: StemsTable({0: FinAbGroup(1)}, 1), ValidationError, "stems table is missing index 1"),
        (lambda: StemsTable({0: FinAbGroup(0, (2,))}, 0), ValidationError, "stem 0 must be Z, got Z/2"),
    ],
)
def test_record_validation(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_records_normalise_their_fields():
    assert TruncatedSeries([1, 2], 1).coeffs == (1, 2)
    assert GradedDims([1, 2]).dims == (1, 2)
    assert FinAbGroup(0, (3, 8, 2)).torsion == (2, 8, 3)
    assert not PbwCheck("fail") and PbwCheck("pass")
