"""Acceptance suite: ten gate criteria, one printed pass/fail line each.

Run with -s to see the per-criterion lines; under plain pytest the test
names carry the same numbering.
"""

import json
import time
from decimal import Decimal
from pathlib import Path

from fourfold import (
    PBW_PASS,
    GrowthReport,
    bundled_stems_table,
    growth_report,
    homotopy_ranks,
    koszul_leading_monomial_check,
    pbw_identity_check,
    quotient_dims_oracle,
    quotient_series,
    stable_homotopy_simply_connected,
)
from fourfold.ranks import _closed_form
from refimpl import marker_table, stem_exponents

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(num, ok, summary):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {num} failed: {summary}"


def test_criterion_01_low_degree_rank_rows():
    t0 = time.perf_counter()
    row3 = homotopy_ranks(3, 6).ranks
    row4 = homotopy_ranks(4, 6).ranks
    closed4 = tuple([4] + [_closed_form(j, 4) for j in range(2, 7)])
    elapsed = time.perf_counter() - t0
    ok = (
        row3 == (3, 5, 5, 10, 24, 55)
        and row4 == closed4
        and row4 == (4, 9, 16, 45, 144, 456)
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"rank rows b2=3 {row3}, b2=4 {row4} agree with closed forms "
        f"({elapsed:.3f}s)",
    )


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for k, N in ((1, 8), (2, 8), (3, 7)):
        rep = quotient_dims_oracle(k, N)
        expected = tuple(quotient_series(k, N).as_int_list())
        agree = rep.quotient_dims.dims == expected and all(rep.series_match)
        ok = ok and agree
        detail.append(f"k={k} deg<={N} {'ok' if agree else 'MISMATCH'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(2, ok, f"oracle vs closed form: {', '.join(detail)} ({elapsed:.1f}s)")


def test_criterion_03_euler_identity_on_oracle_dims():
    ok = True
    for k, N in ((1, 8), (2, 8), (3, 7)):
        rep = quotient_dims_oracle(k, N)
        ok = ok and all(rep.euler_ok) and len(rep.euler_ok) == N + 1
    _report(3, ok, "cubic Euler identity holds on oracle dims, k=1..3")


def test_criterion_04_pbw_product_identities():
    ok = all(pbw_identity_check(k, 12).status == PBW_PASS for k in range(2, 7))
    _report(4, ok, "both product-series identities hold to order 12 for k=2..6")


def test_criterion_05_ranks_are_nonnegative_integers():
    ok = True
    for k in range(2, 11):
        ranks = homotopy_ranks(k, 40).ranks
        ok = ok and all(isinstance(r, int) and r >= 0 for r in ranks)
    _report(5, ok, "m_n(k) is a nonnegative integer for k=2..10, n=1..40")


def test_criterion_06_ellipticity_boundary():
    row2 = homotopy_ranks(2, 40).ranks
    row1 = homotopy_ranks(1, 40).ranks
    ok = (
        row2[:2] == (2, 2)
        and all(r == 0 for r in row2[2:])
        and row1 == (1, 0, 0, 1) + (0,) * 36
    )
    _report(6, ok, "b2=2 ranks vanish from degree 3 on; b2=1 gives 1,0,0,1,0,...")


def test_criterion_07_growth_limit():
    t0 = time.perf_counter()
    rep = growth_report(3, 60)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.precision >= 50
        and rep.limit_residual is not None
        and rep.limit_residual < Decimal("1e-6")
        and elapsed < 1.0
    )
    _report(
        7,
        ok,
        f"|60 m_60 / beta^60 - 1| = {rep.limit_residual:.3E} < 1e-6 "
        f"at {rep.precision} digits ({elapsed:.3f}s)",
    )


def test_criterion_08_cumulative_lower_bound():
    # the paper's bound from the ranks themselves, in integers:
    # 2n * (m_1 + ... + m_2n) >= (b2 - 1)^(2n); the package answers the same
    ok = True
    for betti in range(3, 8):
        ranks = homotopy_ranks(betti, 30).ranks
        holds = {
            n: 2 * n * sum(ranks[: 2 * n]) >= (betti - 1) ** (2 * n) for n in range(1, 16)
        }
        flags = GrowthReport(betti, 30, None, None).cumulative_bound_ok
        ok = ok and all(holds.values()) and flags == holds
    _report(8, ok, "cumulative bound holds exactly for b2=3..7, n=1..15")


def test_criterion_09_stable_assembly():
    # shape test: stem i is Z/p_i in the marker table, for n=0..12, k=1..4
    markers = marker_table()
    shape_ok = True
    for k in range(1, 5):
        for n in range(13):
            out = stable_homotopy_simply_connected(k, n, markers)
            expected = {}
            for idx, mult in ((n - 2, k), (n - 3, k - 1), (n - 5, 1)):
                if idx >= 0 and mult > 0:
                    expected[idx] = expected.get(idx, 0) + mult
            shape_ok = shape_ok and stem_exponents(out) == expected

    # golden test: bundled table at b2=2 against hand-substituted values
    golden = json.loads((GOLDEN_DIR / "stable_b2_2.json").read_text())
    stems = bundled_stems_table()
    golden_ok = True
    for n in range(2, 11):
        g = stable_homotopy_simply_connected(2, n, stems)
        want = golden[str(n)]
        golden_ok = golden_ok and (
            g.free_rank == want["free_rank"]
            and list(g.torsion) == want["torsion"]
            and str(g) == want["human"]
        )

    _report(
        9,
        shape_ok and golden_ok,
        "marker-table exponent bookkeeping (n=0..12, k=1..4) and b2=2 golden "
        "values (n=2..10) both match",
    )


def test_criterion_10_koszul_leading_monomial():
    ok = True
    for k in range(1, 6):
        unique, lead = koszul_leading_monomial_check(k)
        ok = ok and unique and str(lead) == f"y{k}*x{k}"
    _report(10, ok, "unique leading monomial y_k x_k for k=1..5")
