"""End-to-end command-line behavior, driven through main() in process."""

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold import cli, errors
from fourfold.cli import main
from fourfold.oracle import DEFAULT_COLUMN_BUDGET, _word_count

SERIES_KINDS = ("tensor", "quotient", "pbw", "free-comm")


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv)."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ranks_table(capsys):
    code, out, err = run(capsys, "ranks", "--betti", "3", "--max-degree", "7")
    assert code == 0
    assert "pi_7" in out
    assert "55" in out
    assert "hyperbolic" in out
    assert err == ""


def test_ranks_json_shape_and_order(capsys):
    code, out, _ = run(
        capsys, "ranks", "--betti", "3", "--max-degree", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == 3
    assert list(payload["ranks"]) == ["pi_2", "pi_3", "pi_4", "pi_5"]
    assert payload["ranks"]["pi_5"] == 10
    assert payload["classification"] == "hyperbolic"


def test_ranks_json_is_deterministic(capsys):
    _, first, _ = run(capsys, "ranks", "--betti", "4", "--format", "json")
    _, second, _ = run(capsys, "ranks", "--betti", "4", "--format", "json")
    assert first == second


def test_ranks_csv(capsys):
    code, out, _ = run(
        capsys, "ranks", "--betti", "2", "--max-degree", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["degree,rank", "2,2", "3,2", "4,0"]


def test_ranks_rejects_nonpositive_betti(capsys):
    code, _, err = run(capsys, "ranks", "--betti", "0")
    assert code == 2
    assert "Betti" in err


def test_series_quotient(capsys):
    code, out, _ = run(
        capsys,
        "series", "--kind", "quotient", "--betti", "3", "--terms", "7",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "0,1", "1,3", "2,12", "3,44", "4,165", "5,615", "6,2296", "7,8568",
    ]


def test_series_free_comm_with_dims(capsys):
    code, out, _ = run(
        capsys,
        "series", "--kind", "free-comm", "--betti", "1",
        "--dims", "2:2", "--terms", "4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1", "0", "2", "0", "3"]


def test_series_repeated_dims_degree_adds_up(capsys):
    code, out, _ = run(
        capsys, "series", "--kind", "free-comm", "--betti", "1",
        "--dims", "1:1,1:2", "--terms", "6",
    )
    assert code == 0
    assert (code, out) == run(
        capsys, "series", "--kind", "free-comm", "--betti", "1",
        "--dims", "1:3", "--terms", "6",
    )[:2]


def test_series_free_comm_reports_dims_in_place_of_betti(capsys):
    argv = ["series", "--kind", "free-comm", "--betti", "1", "--dims", "2:1,1:1,1:1",
            "--terms", "2"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == {"1": 2, "2": 1} and "betti" not in payload
    assert list(payload) == ["kind", "dims", "truncation_order", "coefficients"]
    code, out, _ = run(capsys, *argv)
    assert out.splitlines()[0] == "free-comm series at generators 1:2,2:1, truncation order 2"
    # --betti is not used, so it is not checked either
    assert run(capsys, *argv[:4], "0", *argv[5:]) == run(capsys, *argv)
    # without --dims the parameter is still b2
    code, out, _ = run(capsys, "series", "--kind", "free-comm", "--betti", "2",
                       "--terms", "2", "--format", "json")
    assert json.loads(out)["betti"] == 2 and "dims" not in json.loads(out)


@pytest.mark.parametrize("kind", ["tensor", "quotient", "pbw"])
def test_series_dims_with_another_kind_is_usage_error(capsys, kind):
    code, out, err = run(
        capsys, "series", "--kind", kind, "--betti", "2", "--dims", "1:3"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --dims applies only to --kind free-comm, not {kind}\n"


def test_series_bad_dims_is_usage_error(capsys):
    code, _, err = run(
        capsys, "series", "--kind", "free-comm", "--betti", "1", "--dims", "nope"
    )
    assert code == 2
    assert "dims" in err


def test_series_superscript_digit_in_dims_is_usage_error(capsys):
    # str.isdigit accepts the superscript two, which int() rejects
    code, out, err = run(
        capsys, "series", "--kind", "free-comm", "--betti", "1", "--dims", "²:1"
    )
    assert (code, out) == (2, "")
    assert err == "error: bad --dims entry '²:1'; expected degree:multiplicity\n"


@pytest.mark.parametrize("empty", [("--dims", ""), ("--dims=",)], ids=["dims", "dims="])
def test_an_empty_dims_is_refused_not_read_as_absent(capsys, empty):
    # the generated empty-value forms run --kind tensor; here --dims is read
    argv = ("series", "--kind", "free-comm", "--betti", "3", *empty)
    assert run(capsys, *argv) == (
        2, "", "error: bad --dims entry ''; expected degree:multiplicity\n"
    )


def test_series_degree_zero_generator_is_usage_error(capsys):
    code, _, err = run(
        capsys, "series", "--kind", "free-comm", "--betti", "1", "--dims", "0:1"
    )
    assert code == 2
    assert "degree-0" in err


@pytest.mark.parametrize("kind", ["tensor", "free-comm"])
@pytest.mark.parametrize("betti", ["0", "-2"])
def test_series_rejects_nonpositive_betti(capsys, kind, betti):
    code, out, err = run(
        capsys, "series", "--kind", kind, "--betti", betti, "--terms", "3"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: second Betti number must be >= 1, got {betti}\n"


@pytest.mark.parametrize("kind", SERIES_KINDS)
def test_series_terms_zero_and_negative(capsys, kind):
    code, out, _ = run(
        capsys, "series", "--kind", kind, "--betti", "3", "--terms", "0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1"]
    code, out, err = run(
        capsys, "series", "--kind", kind, "--betti", "3", "--terms", "-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: truncation order must be >= 0, got -1\n"


dims_specs = st.lists(
    st.sampled_from(["0:1", "1:1", "1:2", "2:0", "2:2", "3:1", "4:3"]),
    min_size=1,
    max_size=3,
).map(",".join)


@given(
    kind=st.sampled_from(SERIES_KINDS),
    betti=st.integers(-3, 8),
    terms=st.integers(-2, 40),
    dims=st.none() | dims_specs,
)
@settings(max_examples=200, deadline=None)
def test_series_ends_in_result_or_one_line_error(kind, betti, terms, dims):
    argv = ["series", "--kind", kind, "--betti", str(betti), "--terms", str(terms),
            "--format", "json"]
    if dims is not None:
        argv += ["--dims", dims]
    out, err = io.StringIO(), io.StringIO()
    # capsys is function-scoped, which hypothesis rejects
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert code == 0
        assert err.getvalue() == ""
        coeffs = json.loads(out.getvalue())["coefficients"]
        assert len(coeffs) == terms + 1
        assert all(c.isdigit() for c in coeffs)  # nonnegative integers


def test_stable_table_output(capsys):
    code, out, _ = run(capsys, "stable", "--betti", "2", "--n", "5")
    assert code == 0
    assert "pi_5^s = (Z/24)^2 + Z/2 + Z" in out


def test_stable_json_payload(capsys):
    code, out, _ = run(
        capsys, "stable", "--betti", "2", "--n", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == {"free_rank": 1, "torsion": [2, 8, 8, 3, 3]}
    assert payload["human"] == "(Z/24)^2 + Z/2 + Z"
    assert payload["stems_source"] == "bundled reference table, stems 0..19"


def test_stable_with_pi1_order(capsys):
    code, out, _ = run(
        capsys,
        "stable", "--betti", "2", "--n", "6", "--pi1-order", "2",
        "--format", "json",
    )
    assert code == 0
    # one extra copy of the 5-stem, which is trivial, so unchanged
    assert json.loads(out)["group"] == {"free_rank": 0, "torsion": [2, 8, 3]}


def test_stable_past_table_fails_cleanly(capsys):
    code, out, err = run(capsys, "stable", "--betti", "2", "--n", "30")
    assert code == 1
    assert out == ""
    assert err == "error: stem index 28 requested but table ends at 19\n"


def test_stable_honors_stems_file(capsys, tmp_path):
    f = tmp_path / "tiny.txt"
    f.write_text("0: Z\n1: Z/2\n2: Z/2\n3: Z/24\n")
    code, out, _ = run(
        capsys,
        "stable", "--betti", "2", "--n", "5", "--stems-file", str(f),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["human"] == "(Z/24)^2 + Z/2 + Z"
    assert payload["stems_source"] == str(f)


def test_stable_source_is_in_the_payload_only(capsys, tmp_path):
    # the same group from the bundled table and from a file: table and csv
    # output stay the same, only the JSON payload names where the stems came from
    f = tmp_path / "tiny.txt"
    f.write_text("0: Z\n1: Z/2\n2: Z/2\n3: Z/24\n")
    base = ["stable", "--betti", "2", "--n", "5"]
    for fmt in ("table", "csv"):
        bundled = run(capsys, *base, "--format", fmt)
        from_file = run(capsys, *base, "--stems-file", str(f), "--format", fmt)
        assert bundled == from_file, fmt
        assert "stems" not in bundled[1], fmt


def test_stable_missing_stems_file(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "stable", "--betti", "2", "--n", "5",
        "--stems-file", str(tmp_path / "absent.txt"),
    )
    assert code == 2
    assert "absent.txt" in err


def test_stable_stems_file_not_utf8_is_usage_error(capsys, tmp_path):
    f = tmp_path / "binary.txt"
    f.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(
        capsys, "stable", "--betti", "2", "--n", "5", "--stems-file", str(f)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {f}: not UTF-8 text (byte 0: invalid start byte)\n"


def test_stable_deeply_nested_json_stems_file_is_usage_error(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text('{"0": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code, out, err = run(
        capsys, "stable", "--betti", "2", "--n", "5", "--stems-file", str(f)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad JSON stems document: maximum recursion depth")
    assert err.count("\n") == 1


def test_stable_json_entries_object_is_usage_error(capsys, tmp_path):
    # the flat object is the only JSON form; the note is the file's path
    f = tmp_path / "entries.json"
    f.write_text(json.dumps({"entries": {"0": "Z"}, "source_note": "mine"}))
    code, out, err = run(
        capsys, "stable", "--betti", "2", "--n", "5", "--stems-file", str(f)
    )
    assert code == 2
    assert out == ""
    assert err == "error: entry 'entries': index must be a nonnegative integer\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("line.txt", "0: Z\n1: Z/²\n", "line 2: bad cyclic order in 'Z/²'"),
        ("key.json", '{"0": "Z", "²": "Z/2"}',
         "entry '²': index must be a nonnegative integer"),
    ],
    ids=["line-order", "json-key"],
)
def test_stable_superscript_digit_in_stems_file_is_usage_error(
    capsys, tmp_path, name, text, message
):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "stable", "--betti", "2", "--n", "5", "--stems-file", str(f)
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_stable_order_too_large_to_factor_is_a_limit(capsys, tmp_path):
    f = tmp_path / "big.txt"
    f.write_text("0: Z\n1: Z/99999999999999999999999999989\n")
    code, out, err = run(
        capsys, "stable", "--betti", "2", "--n", "5", "--stems-file", str(f)
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: cyclic order 99999999999999999999999999989 is above 10**9, "
        "the largest factored\n"
    )


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "fourfold.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


def _assert_closed_pipe_ends_cleanly(proc):
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err
    assert err == "error: output pipe closed before all output was written\n"


def test_reader_closing_before_any_output():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader at all: the first write fails
    proc = _cli("series", "--kind", "tensor", "--betti", "2", "--terms", "3",
                "--format", "json", stdout=write_end)
    os.close(write_end)
    _assert_closed_pipe_ends_cleanly(proc)


def test_reader_closing_in_the_middle_of_the_output():
    # about 0.4 MB of JSON, far more than a pipe buffers, so the writer is
    # still writing when the reader goes away after its first bytes
    proc = _cli("series", "--kind", "tensor", "--betti", "2", "--terms", "1200",
                "--format", "json", stdout=subprocess.PIPE)
    assert proc.stdout.read(64).startswith(b"{")
    proc.stdout.close()
    _assert_closed_pipe_ends_cleanly(proc)


def test_reader_closing_in_the_middle_of_csv_output():
    # one long write of about 0.3 MB: the pipe takes part of it and the
    # write comes back short, with no error, once the reader has gone
    proc = _cli("series", "--kind", "tensor", "--betti", "2", "--terms", "1200",
                "--format", "csv", stdout=subprocess.PIPE)
    assert proc.stdout.read(64).startswith(b"degree,coefficient")
    proc.stdout.close()
    _assert_closed_pipe_ends_cleanly(proc)


def test_growth_hyperbolic(capsys):
    code, out, _ = run(capsys, "growth", "--betti", "3", "--probe", "40")
    assert code == 0
    assert "hyperbolic" in out
    assert "2.6180" in out
    assert "exponential growth: yes" in out


def test_growth_elliptic(capsys):
    code, out, _ = run(capsys, "growth", "--betti", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "elliptic"
    assert payload["growth_base"] is None


def test_growth_large_probe(capsys):
    # far past the degree where a float C**n would overflow
    code, out, err = run(capsys, "growth", "--betti", "3", "--probe", "1000")
    assert code == 0
    assert "exponential growth: yes" in out
    assert err == ""


def test_growth_prints_each_proved_fact_once(capsys):
    # the bound holds for every n >= 1, so it is one line, not a row per n
    for fmt in ("table", "csv"):
        lines = {
            probe: run(capsys, "growth", "--betti", "3", "--probe", probe, "--format", fmt)[1]
            .splitlines()
            for probe in ("60", "6000")
        }
        assert len(lines["60"]) == len(lines["6000"]), fmt
    assert lines["60"][1].startswith("3,hyperbolic,60,2.618")
    table = run(capsys, "growth", "--betti", "3", "--probe", "8")[1].splitlines()
    assert table[-2:] == [
        "exponential growth: yes, m_n > beta^n / (2n), proved for every n >= 1",
        "cumulative lower bound: 2n (m_1 + ... + m_2n) >= 2^(2n), proved for every n >= 1",
    ]
    # one CSV row at b2 <= 2 too: the payload's scalars, None as an empty cell
    payload = json.loads(run(capsys, "growth", "--betti", "2", "--format", "json")[1])
    header, row = run(capsys, "growth", "--betti", "2", "--format", "csv")[1].splitlines()
    assert header.split(",") == [k for k, v in payload.items() if not isinstance(v, dict)]
    assert row == "2,elliptic,60,,,False,60"


def test_verify_passes_at_small_degree(capsys):
    code, out, _ = run(capsys, "verify", "--betti", "2", "--max-degree", "5")
    assert code == 0
    assert out.rstrip().endswith("PASS")
    assert "koszul leading monomial: y2*x2 (ok)" in out


@pytest.mark.parametrize("betti", [1, 2, 3, 4])
def test_verify_at_degree_zero_passes(capsys, betti):
    # both PBW identities hold trivially at order 0
    code, out, err = run(capsys, "verify", "--betti", str(betti), "--max-degree", "0")
    assert code == 0
    assert out.endswith("PASS\n")
    assert err == ""


def test_verify_at_a_huge_betti_reads_the_leading_monomial_in_constant_time():
    """Listing the relation's 2k words at k = 10**12 would not finish."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fourfold.cli", "verify", "--betti", "1000000000000",
         "--max-degree", "0", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=30, preexec_fn=limit_memory,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["koszul"] == {
        "ok": True, "leading_monomial": "y1000000000000*x1000000000000"
    }


def test_verify_json_check_map(capsys):
    code, out, _ = run(
        capsys, "verify", "--betti", "3", "--max-degree", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == {
        "oracle-series-match": True,
        "euler-identity": True,
        "koszul-leading-monomial": True,
        "pbw-identity": True,
        "divisibility-polynomial": True,
        "closed-forms": True,
    }
    assert "failing_checks" not in payload


@pytest.mark.parametrize("betti", [1, 2, 3])
def test_verify_reports_the_rank_polynomial_checks(capsys, betti):
    code, out, _ = run(capsys, "verify", "--betti", str(betti), "--max-degree", "4")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "rank polynomials: divisibility ok, closed forms ok", "PASS"
    ]
    assert "informational" not in out


def test_verify_fails_on_a_changed_closed_form(capsys, monkeypatch):
    import fourfold.ranks

    closed_form = fourfold.ranks._closed_form
    # the c^1 coefficient of the degree-5 closed form, moved by 1
    monkeypatch.setattr(
        fourfold.ranks, "_closed_form", lambda j, c: closed_form(j, c) + (j == 5) * c
    )
    code, out, _ = run(
        capsys, "verify", "--betti", "3", "--max-degree", "4", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["failing_checks"] == ["closed-forms"]
    assert payload["checks"]["divisibility-polynomial"] is True
    code, out, _ = run(capsys, "verify", "--betti", "3", "--max-degree", "4")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "rank polynomials: divisibility ok, closed forms FAIL", "FAIL"
    ]


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--betti", "1", "--max-degree", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,tensor_dim,ideal_dim,quotient_dim,series_match,euler_ok"
    assert lines[4] == "3,3,1,2,True,True"


BUDGET_1000_AT_B2_4 = (
    "error: degree 5 at k=4 needs a 2240-column matrix; budget is 1000 columns\n"
)


def test_verify_budget_flag_limits_work(capsys):
    code, out, err = run(
        capsys, "verify", "--betti", "4", "--max-degree", "8", "--budget", "1000"
    )
    assert code == 1
    assert out == ""
    assert err == BUDGET_1000_AT_B2_4


def test_verify_below_degree_three_passes_under_any_budget(capsys):
    code, out, _ = run(
        capsys, "verify", "--betti", "3", "--max-degree", "2", "--budget", "5"
    )
    assert code == 0
    assert out.endswith("PASS\n")
    code, out, err = run(
        capsys, "verify", "--betti", "3", "--max-degree", "3", "--budget", "5"
    )
    assert code == 1
    assert out == ""
    assert err == "error: degree 3 at k=3 needs a 45-column matrix; budget is 5 columns\n"


def test_verify_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("FOURFOLD_BUDGET", "1000")
    code, out, err = run(capsys, "verify", "--betti", "4", "--max-degree", "8")
    assert code == 1
    assert out == ""
    assert err == BUDGET_1000_AT_B2_4


def test_verify_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("FOURFOLD_BUDGET", "1000")
    code, _, _ = run(
        capsys, "verify", "--betti", "4", "--max-degree", "5", "--budget", "60000"
    )
    assert code == 0


def test_verify_bad_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("FOURFOLD_BUDGET", "lots")
    code, _, err = run(capsys, "verify", "--betti", "2", "--max-degree", "3")
    assert code == 2
    assert "FOURFOLD_BUDGET" in err


def test_verify_rejects_nonpositive_budget_flag(capsys):
    code, out, err = run(capsys, "verify", "--betti", "3", "--budget", "-5")
    assert code == 2
    assert out == ""
    assert "--budget must be >= 1" in err


def test_verify_rejects_nonpositive_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("FOURFOLD_BUDGET", "0")
    code, out, err = run(capsys, "verify", "--betti", "3")
    assert code == 2
    assert out == ""
    assert "FOURFOLD_BUDGET must be >= 1" in err


def test_verify_rejects_nonpositive_betti(capsys):
    code, _, err = run(capsys, "verify", "--betti", "0")
    assert code == 2
    assert "second Betti number must be >= 1" in err
    assert "alphabet" not in err


@given(
    betti=st.integers(-2, 5),
    max_degree=st.integers(-2, 9),
    budget=st.sampled_from([None, -1, 0, 1, 40, 5000]),
    fmt=st.sampled_from(["table", "json", "csv"]),
)
@settings(max_examples=40, deadline=None)
def test_verify_ends_in_result_or_one_line_error(betti, max_degree, budget, fmt):
    argv = ["verify", "--betti", str(betti), "--max-degree", str(max_degree),
            "--format", fmt]
    if budget is not None:
        argv += ["--budget", str(budget)]
    out, err = io.StringIO(), io.StringIO()
    # capsys is function-scoped, which hypothesis rejects; an uncaught
    # exception would escape main() and fail the test
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    one_line_error = (
        out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: ")
    )
    result = out.getvalue() != "" and err.getvalue() == ""
    if code == 2:
        assert one_line_error
    elif code == 1:
        # a failed check prints its result; a limit prints one error line
        assert result or one_line_error
    else:
        assert result
    cap = DEFAULT_COLUMN_BUDGET if budget is None else budget
    if betti >= 1 and max_degree >= 0 and cap >= 1:
        if max_degree < 3 or cap >= _word_count(betti, max_degree):
            # within the budget (no matrix below degree 3): every check passes
            assert code == 0
            if fmt == "table":
                assert out.getvalue().endswith("PASS\n")
        else:
            assert code == 1 and one_line_error
            assert lines[0].endswith(f"budget is {cap} columns")


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "--betti", "3", "--max-degree", "1700"),
        ("series", "--kind", "quotient", "--betti", "12", "--terms", "700"),
    ],
)
def test_value_past_the_int_digit_limit_is_a_resource_limit(capsys, argv, fmt):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int to str conversion")
    # the lowest limit Python accepts; both commands print values of 700+ digits
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, *argv, "--format", fmt)
    finally:
        sys.set_int_max_str_digits(default)
    assert code == 1
    assert out == ""
    assert err == (
        "error: a value has more than 640 digits, "
        "Python's limit for converting an int to text\n"
    )


#: A numeral past the digits int() converts from text (0 where unlimited).
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (LIMIT + 700)
STABLE = ("stable", "--betti", "2", "--n", "5", "--stems-file")
FREE_COMM = ("series", "--kind", "free-comm", "--betti", "1", "--dims")


def flag_error(flag):
    return f"error: argument {flag}: the value has more than {LIMIT} digits"


@pytest.mark.skipif(not LIMIT, reason="this Python converts numerals of any length")
@pytest.mark.parametrize(
    "stems, env, argv, code, message",
    [
        (f"0: Z\n{LONG}: Z/2\n", None, STABLE, 2,
         f"error: line 2: index has more than {LIMIT} digits"),
        (f'{{"0": "Z", "{LONG}": "Z/2"}}', None, STABLE, 2,
         f"error: entry '{LONG}': index has more than {LIMIT} digits"),
        # past int() is past 10**9 too: the cyclic order is a resource limit
        (f"0: Z\n1: Z/{LONG}\n", None, STABLE, 1,
         f"error: line 2: cyclic order has more than {LIMIT} digits"),
        (None, None, (*FREE_COMM, f"{LONG}:1"), 2,
         f"error: a --dims degree has more than {LIMIT} digits"),
        (None, None, (*FREE_COMM, f"1:{LONG}"), 2,
         f"error: a --dims multiplicity has more than {LIMIT} digits"),
        (None, None, ("ranks", "--betti", LONG), 2, flag_error("--betti")),
        (None, None, ("ranks", "--betti", f"-{LONG}"), 2, flag_error("--betti")),
        (None, None, ("ranks", "--betti", "3", "--max-degree", LONG), 2,
         flag_error("--max-degree")),
        (None, None, ("series", "--kind", "quotient", "--betti", "3", "--terms", LONG), 2,
         flag_error("--terms")),
        (None, None, ("stable", "--betti", "2", "--n", LONG), 2, flag_error("--n")),
        (None, None, ("stable", "--betti", "2", "--n", "5", "--pi1-order", LONG), 2,
         flag_error("--pi1-order")),
        (None, None, ("growth", "--betti", "3", "--probe", LONG), 2, flag_error("--probe")),
        (None, None, ("verify", "--betti", "2", "--budget", LONG), 2, flag_error("--budget")),
        (None, LONG, ("verify", "--betti", "2"), 2,
         f"error: FOURFOLD_BUDGET has more than {LIMIT} digits"),
    ],
    ids=["line-index", "json-key", "cyclic-order", "dims-degree", "dims-multiplicity",
         "betti", "betti-signed", "max-degree", "terms", "n", "pi1-order", "probe",
         "budget", "budget-env"],
)
def test_input_numeral_past_the_int_digit_limit_is_refused_by_its_parser(
    capsys, monkeypatch, tmp_path, stems, env, argv, code, message
):
    if stems is not None:
        f = tmp_path / "stems.txt"
        f.write_text(stems, encoding="utf-8")
        argv = (*argv, str(f))
    if env is None:
        monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    else:
        monkeypatch.setenv("FOURFOLD_BUDGET", env)
    assert run(capsys, *argv) == (code, "", message + "\n")


def test_a_value_that_is_no_numeral_is_echoed_cut(capsys, monkeypatch):
    junk = "x" * 5000
    assert run(capsys, "ranks", "--betti", junk) == (
        2, "", "error: argument --betti: invalid int value: 'xxxxxxxxxxxxxxxxxxxx'...\n"
    )
    monkeypatch.setenv("FOURFOLD_BUDGET", junk)
    assert run(capsys, "verify", "--betti", "2") == (
        2, "", "error: FOURFOLD_BUDGET='xxxxxxxxxxxxxxxxxxxx'... is not an integer\n"
    )


@pytest.mark.parametrize("text", ["3_000", "0x10", "1e3", "2.0", "3 3", "+-3", ""])
def test_an_integer_flag_reads_a_decimal_numeral_only(capsys, text):
    # int() reads 3_000; an integer flag, like every numeral the package
    # reads, takes decimal digits with one optional sign
    assert run(capsys, "ranks", "--betti", "3", "--max-degree", text) == (
        2, "", f"error: argument --max-degree: invalid int value: {text!r}\n"
    )


def test_a_sign_and_surrounding_whitespace_still_parse(capsys, monkeypatch):
    plain = run(capsys, "ranks", "--betti", "3", "--max-degree", "6")
    assert run(capsys, "ranks", "--betti", "+3", "--max-degree", " 6 ") == plain
    assert run(capsys, "ranks", "--betti", "-3") == (
        2, "", "error: second Betti number must be >= 1, got -3\n"
    )
    monkeypatch.setenv("FOURFOLD_BUDGET", " +1000 ")
    assert run(capsys, "verify", "--betti", "4", "--max-degree", "8") == (
        1, "", BUDGET_1000_AT_B2_4
    )


@pytest.mark.skipif(not LIMIT, reason="this Python converts numerals of any length")
def test_input_numeral_past_the_limit_only_by_leading_zeros_is_read(capsys, tmp_path):
    f = tmp_path / "stems.txt"
    f.write_text(f"0: Z\n{'0' * LIMIT}1: Z/{'0' * LIMIT}2\n", encoding="utf-8")
    code, out, err = run(capsys, "stable", "--betti", "1", "--n", "3", "--stems-file", str(f))
    assert (code, err) == (0, "")
    assert out.startswith("pi_3^s = Z/2\n")


@pytest.mark.skipif(not LIMIT, reason="this Python converts numerals of any length")
def test_json_number_value_is_refused_not_converted(capsys, tmp_path):
    # the JSON parser reads a number as a float, which int() never sees
    f = tmp_path / "stems.json"
    f.write_text(f'{{"0": "Z", "1": {LONG}}}', encoding="utf-8")
    code, out, err = run(capsys, "stable", "--betti", "1", "--n", "3", "--stems-file", str(f))
    assert (code, out, err) == (2, "", "error: entry '1': value must be a JSON string\n")


@pytest.mark.parametrize("value", ["[2]", '{"a": "1"}', "null", "true", "0", "2.5", "NaN"])
def test_a_json_stems_value_that_is_not_a_string_is_refused(capsys, tmp_path, value):
    # not echoed as a Python repr, and the number 0 is not the trivial group
    f = tmp_path / "stems.json"
    f.write_text(f'{{"0": "Z", "1": {value}}}', encoding="utf-8")
    code, out, err = run(capsys, "stable", "--betti", "1", "--n", "3", "--stems-file", str(f))
    assert (code, out, err) == (2, "", "error: entry '1': value must be a JSON string\n")


@pytest.mark.parametrize("stems", [
    "0: Z\n1: Z/2\n2: Z/2\n3: Z/24\n",
    '{"0": "Z", "1": "Z/2", "2": "Z/2", "3": "Z/24"}',
], ids=["line", "json"])
def test_a_stems_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, stems):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(stems, encoding="utf-8")
    marked.write_text(stems, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for fmt in ("table", "csv", "json"):
        argv = ("stable", "--betti", "2", "--n", "3", "--format", fmt, "--stems-file")
        code, out, err = run(capsys, *argv, str(marked))
        assert (code, err) == (0, ""), fmt
        assert out == run(capsys, *argv, str(plain))[1].replace(str(plain), str(marked)), fmt


RAISED = [
    (errors.FourfoldError("a bug"), 1),
    (errors.InternalInconsistency("two computations disagree"), 1),
    (errors.ResourceLimit("over budget"), 1),
    (errors.InsufficientStemsData(20, 19), 1),
    (errors.DomainError("bad value"), 2),
    (errors.UngradedGenerator("degree 0"), 2),
    (errors.ParseError("bad document"), 2),
    (errors.ValidationError("bad content"), 2),
    (OSError("no such file"), 2),
]


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


@pytest.mark.parametrize("exc, code", RAISED, ids=lambda v: type(v).__name__)
def test_every_error_is_one_stderr_line_with_its_exit_code(capsys, monkeypatch, exc, code):
    # one case per error class of the package, plus OSError
    assert {type(e) for e, _ in RAISED} == _subclasses(errors.FourfoldError) | {OSError}

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "cmd_ranks", fail)
    assert run(capsys, "ranks", "--betti", "3") == (code, "", f"error: {exc}\n")


def test_verify_deep_at_betti_one(capsys):
    # degree 30 has 1,346,269 columns; right multiplication certifies nearly
    # every row r * v dependent before it is built
    code, out, err = run(
        capsys, "verify", "--betti", "1", "--max-degree", "30", "--budget", "1400000"
    )
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    assert err == ""


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate") == (
        2, "", "error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'ranks', 'series', 'stable', 'growth', 'verify')\n"
    )


def test_missing_required_flag_is_usage_error(capsys):
    assert run(capsys, "ranks") == (
        2, "", "error: the following arguments are required: --betti\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # argparse hands a flag's `--` over as [], past its type and choices
        (("ranks", "--betti", "3", "--format=--"), "argument --format: expected one argument"),
        (("stable", "--betti", "2", "--n", "5", "--stems-file=--"),
         "argument --stems-file: expected one argument"),
        (("ranks", "--betti=--"), "argument --betti: expected one argument"),
        (("series", "--kind=--", "--betti", "3"), "argument --kind: expected one argument"),
        # no abbreviations: --bet is not --betti, nor --max --max-degree
        (("ranks", "--bet", "3", "--max", "4"),
         "the following arguments are required: --betti"),
        (("ranks", "--betti", "x"), "argument --betti: invalid int value: 'x'"),
    ],
    ids=["format-dashes", "stems-file-dashes", "betti-dashes", "kind-dashes",
         "abbreviations", "betti-not-int"],
)
def test_an_argparse_refusal_is_one_error_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def _flags():
    """(subparser, command, the command's other required flags with a value,
    option string, its action) for each option string of each command."""
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        for action in sub._actions:
            others = [
                arg for a in sub._actions if a.required and a is not action
                for arg in (a.option_strings[0], _value(a))
            ]
            for flag in action.option_strings:
                yield sub, command, others, flag, action


def _value(action) -> str:
    return action.choices[0] if action.choices else "3"


def _argv_forms():
    """For each option string of each command, given with the command's other
    required flags: the flag as `--FLAG=--`, and each strict prefix of it
    longer than `--` (that no flag spells) with a value."""
    for sub, command, others, flag, action in _flags():
        yield [command, *others, f"{flag}=--"]
        for end in range(3, len(flag)):
            if flag[:end] not in sub._option_string_actions:
                yield [command, *others, flag[:end], _value(action)]


def _empty_value_forms():
    """Each flag that takes a value, given an empty one as `--FLAG ""` and as
    `--FLAG=`, with the command's other required flags."""
    for _, command, others, flag, action in _flags():
        if action.nargs != 0:  # -h takes none
            yield [command, *others, flag, ""]
            yield [command, *others, f"{flag}="]


def _assert_one_error_line(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", list(_argv_forms()), ids=" ".join)
def test_every_flag_refuses_dashes_and_abbreviations(capsys, argv):
    _assert_one_error_line(*run(capsys, *argv))


@pytest.mark.parametrize("argv", list(_empty_value_forms()), ids=shlex.join)
def test_every_flag_refuses_an_empty_value(capsys, argv):
    # an empty --dims or --stems-file is a value, not the flag left out
    _assert_one_error_line(*run(capsys, *argv))


@pytest.mark.parametrize("command", ["", "ranks", "series", "stable", "growth", "verify"])
def test_help_is_printed_on_stdout_with_exit_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"] if command else ["-h"])
    out = capsys.readouterr()
    assert exc.value.code == 0
    assert out.out.startswith(f"usage: fourfold {command}".rstrip() + " ")
    assert out.err == ""


def test_flags_belong_to_the_one_command_that_reads_them(capsys):
    # --stems-file is read by stable only, --budget by verify only
    required = {
        "ranks": ["--betti", "3"],
        "series": ["--kind", "tensor", "--betti", "3"],
        "stable": ["--betti", "2", "--n", "5"],
        "growth": ["--betti", "3"],
        "verify": ["--betti", "3"],
    }
    for flag, value, owner in (
        ("--stems-file", "/nonexistent", "stable"),
        ("--budget", "-5", "verify"),
    ):
        for command in sorted(set(required) - {owner}):
            assert run(capsys, command, *required[command], flag, value) == (
                2, "", f"error: unrecognized arguments: {flag} {value}\n"
            ), (command, flag)
