"""The benchmark's own tests: its references against the package at small sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import io
import json
import math
import random
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fourfold  # noqa: E402
import fourfold.cli  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
def test_necklace_formula_matches_homotopy_ranks(k):
    assert reference.necklace_ranks(k, 120) == fourfold.homotopy_ranks(k, 120).ranks


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_series_recurrences_match_package(k):
    assert reference.quotient_coefficients(k, 40) == fourfold.quotient_series(k, 40).as_int_list()
    dims = {1: k, 2: k}
    assert reference.tensor_coefficients(dims, 40) == fourfold.tensor_series(dims, 40).as_int_list()


@pytest.mark.parametrize("dims", [{1: 2, 2: 1}, {2: 3}, {1: 1, 3: 2}, {1: 4}])
def test_free_comm_product_matches_package(dims):
    assert reference.free_comm_coefficients(dims, 25) == fourfold.free_comm_series(dims, 25).as_int_list()


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_pbw_references_match_package(k):
    table = fourfold.homotopy_ranks(k, 20)
    by_degree = dict(enumerate(reference.necklace_ranks(k, 20), start=1))
    assert reference.free_comm_coefficients(by_degree, 20) == fourfold.pbw_series(table, 20).as_int_list()
    assert reference.pbw_status(k, 20) == fourfold.pbw_identity_check(k, 20).status


def test_stems_table_matches_bundled_table():
    bundled = fourfold.bundled_stems_table()
    assert reference.check_stems_table(reference.STEMS, bundled) == {"max_index": 19}


def test_known_stable_group():
    # pi_5^s at b2 = 2 is (Z/24)^2 + Z/2 + Z
    assert reference.stable_group(reference.STEMS, 2, 5) == (1, [2, 3, 3, 8, 8])


def test_stable_assembly_matches_package():
    stems = fourfold.bundled_stems_table()
    for k in (1, 2, 5):
        for n in range(21):
            for m in (1, 3):
                g = fourfold.stable_homotopy_finite_pi1(k, n, m, stems)
                want = reference.stable_group(reference.STEMS, k, n, m)
                assert reference.check_group(want, g.free_rank, g.torsion)


@pytest.mark.parametrize("k,n", [(1, 60), (2, 60), (3, 60), (5, 200), (12, 100)])
def test_growth_check_accepts_package(k, n):
    reference.check_growth(k, n, vars(fourfold.growth_report(k, n)))


def test_wrong_answers_are_caught():
    with pytest.raises(reference.WrongAnswer):
        reference.check_ranks(3, 6, (3, 5, 5, 10, 24, 56))
    with pytest.raises(reference.WrongAnswer):
        reference.check_series([1, 2, 6], ["1", "2", "13/2"])
    with pytest.raises(reference.WrongAnswer):
        reference.check_group((1, [2]), 1, [3])
    doc = dict(vars(fourfold.growth_report(3, 40)))
    doc["cumulative_bound_ok"] = {**doc["cumulative_bound_ok"], 1: False}
    with pytest.raises(reference.WrongAnswer):
        reference.check_growth(3, 40, doc)


def test_library_checks_accept_a_ranks_deep_cycle():
    cycle = next(workloads.cycles("ranks-deep", 7))
    stems = fourfold.bundled_stems_table()
    for op in cycle:
        args = op["args"]
        if op["fn"] == "homotopy_ranks" or (op["fn"] == "growth_report" and args[1] > 150):
            continue  # large sizes: covered by the benchmark runs
        if op["fn"] == "pbw_identity_check" and args[1] > 25:
            continue
        result = getattr(fourfold, op["fn"])(*worker.arguments(op, stems))
        reference.check_library(op, result)


def test_cli_checks_accept_a_cli_mix_cycle(tmp_path):
    stems = workloads.random_stems(random.Random(0), 30)
    path = tmp_path / "stems.txt"
    path.write_text(reference.stems_text(stems))
    cycle = next(workloads.cycles("cli-mix", 3, (str(path), stems)))
    assert {op["cmd"] for op in cycle} == {"ranks", "series", "stable", "growth", "verify"}
    for op in cycle:
        out = io.StringIO()
        with redirect_stdout(out):
            code = fourfold.cli.main(op["argv"])
        reference.check_cli(op, code, json.loads(out.getvalue()), stems)


def test_verify_check_reads_every_flag():
    out = io.StringIO()
    with redirect_stdout(out):
        code = fourfold.cli.main(["verify", "--betti", "2", "--max-degree", "6", "--format", "json"])
    payload = json.loads(out.getvalue())
    reference.check_verify(2, 6, code, payload)
    payload["checks"]["euler-identity"] = False
    with pytest.raises(reference.WrongAnswer):
        reference.check_verify(2, 6, code, payload)
    payload["checks"]["euler-identity"] = True
    del payload["oracle"]
    op = {"cmd": "verify", "k": 2, "n": 6}
    with pytest.raises(reference.WrongAnswer, match="malformed"):
        reference.check_cli(op, 0, payload, {})


def test_seed_fixes_the_ops_and_every_seed_has_the_same_mix():
    first = [next(workloads.cycles("ranks-deep", 5)) for _ in range(2)]
    assert first[0] == first[1]
    kinds = [sorted(op["fn"] for op in next(workloads.cycles("ranks-deep", s))) for s in (1, 2)]
    assert kinds[0] == kinds[1]


def test_growth_ops_stay_below_the_overflow():
    cycle_iter = workloads.cycles("ranks-deep", 3)
    degrees = []
    for _ in range(40):
        for op in next(cycle_iter):
            if op["fn"] == "growth_report":
                k, n = op["args"]
                assert 100 <= n <= 500
                assert n * math.log(float(reference.growth_base(k))) <= workloads.GROWTH_LOG_LIMIT
                degrees.append(n)
    assert min(degrees) < 120 and max(degrees) > 480


def test_wide_verify_shapes_stay_wide():
    for k, n in workloads.VERIFY_WIDE.items():
        columns = reference.word_counts(k, n)[n]
        assert columns <= 350_000
        assert reference.relation_rows(k, n) < 0.03 * columns


def test_setup_samples_are_spread_over_the_run():
    events = []

    def execute(op):
        time.sleep(0.01)
        events.append("op")
        return {}

    def setup():
        events.append("setup")
        return 0.1

    records, setup_s = workloads.measure(([i] for i in range(10**6)), execute, seconds=0.3, setup=setup)
    assert setup_s == [0.1] * workloads.SETUP_SAMPLES
    assert len(records) == events.count("op")
    assert events.index("setup") < len(events) // 2 < len(events) - 1 - events[::-1].index("setup")


def test_tail_percentile_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values[:28], 64) == 18
    assert run.percentile(values[:7], 50) == 4


def test_self_times_cover_the_span_once():
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        main = tracer.wrap("cli", "main", fourfold.cli.main)
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "--betti", "2", "--max-degree", "6", "--format", "json"]) == 0
        summary = tracer.take()
    finally:
        uninstall()
    assert fourfold.cli.quotient_dims_oracle is fourfold.oracle.quotient_dims_oracle
    self_total = sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert summary["span_s"] == pytest.approx(self_total)
    assert summary["cli.calls"] == 1 and summary["oracle.calls"] == 2
    assert summary["oracle.columns"] == sum(reference.word_counts(2, 6)[3:])
    assert summary["oracle.rank"] == sum(
        t - q for t, q in zip(reference.word_counts(2, 6), reference.quotient_coefficients(2, 6))
    )
