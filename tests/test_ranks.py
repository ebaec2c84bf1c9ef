"""Rank tables, closed forms, growth classification, and the arithmetic helpers."""

import random
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourfold import (
    PBW_FAIL,
    PBW_NOT_APPLICABLE,
    PBW_PASS,
    DomainError,
    GrowthReport,
    InternalInconsistency,
    PbwCheck,
    growth_base,
    growth_report,
    homotopy_ranks,
    pbw_identity_check,
    rank_polynomial_checks,
)
from fourfold import ranks as ranks_module
from fourfold.cli import cmd_growth, cmd_ranks
from fourfold.ranks import (
    GROWTH_PRECISION,
    RANK_STORE_BYTES,
    RankTable,
    _checked_ranks,
    _closed_form,
    _growth_base,
    _lucas,
    _necklace,
    _pbw_agreement,
    _PrefixStore,
)
from fourfold.series import _power_sums
from refimpl import moebius, newton_sums, pbw_product, series_log, series_reciprocal


# mu on 1..20, from any number theory table
MOEBIUS_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


def test_moebius_small_values():
    assert [moebius(n) for n in range(1, 21)] == MOEBIUS_20


def test_moebius_rejects_nonpositive():
    with pytest.raises(ValueError):
        moebius(0)


@given(st.integers(min_value=1, max_value=300))
def test_moebius_divisor_sum_is_indicator(n):
    total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
    assert total == (1 if n == 1 else 0)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=15))
@settings(max_examples=80)
def test_lambda_matches_log_series(k, n):
    """lambda_n = -L_n / n is the t^n coefficient of log(1 - kt + t^2)."""
    poly = series_log([1, -k, 1] + [0] * max(0, n - 2))
    assert Fraction(-_lucas(k, n)[n], n) == poly[n]


def test_lambda_power_sum_recurrence():
    # n * lambda_n = -s_n where s_n = k s_{n-1} - s_{n-2}, s_0 = 2, s_1 = k
    for k in (2, 3, 5):
        s = [2, k]
        for n in range(2, 12):
            s.append(k * s[-1] - s[-2])
        assert _lucas(k, 11) == s
        lam = series_log([1, -k, 1] + [0] * 9)
        for n in range(1, 12):
            assert n * lam[n] == -s[n]


def test_ranks_match_log_series_inversion():
    """Independent Fraction path: Moebius-invert the coefficients of log(1 - kt + t^2).

    m_n = -sum_{d|n} (-1)^(n + n/d) mu(d) lambda_{n/d} / d, with lambda_j the
    t^j coefficient of the series logarithm and mu from the table above.
    """
    n_max = 15
    for k in range(2, 10):
        lam = series_log([1, -k, 1] + [0] * (n_max - 2))
        expected = tuple(
            -sum(
                (-1) ** (n + n // d) * MOEBIUS_20[d - 1] * lam[n // d] / d
                for d in range(1, n + 1)
                if n % d == 0
            )
            for n in range(1, n_max + 1)
        )
        assert homotopy_ranks(k, n_max).ranks == expected, k


def _necklace_reference(k, N):
    """m_1..m_N as one divisor sum per degree, (1/n) sum_{d|n} (-1)^(n+n/d) mu(d) L_{n/d}."""
    lucas = _lucas(k, N)
    out = []
    for n in range(1, N + 1):
        acc = sum(
            (-1) ** (n + n // d) * moebius(d) * lucas[n // d]
            for d in range(1, n + 1)
            if n % d == 0
        )
        assert acc % n == 0
        out.append(acc // n)
    return tuple(out)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=400))
@example(2, 1)
@example(3, 1)
@example(3, 2)
@example(40, 399)
@example(40, 400)
@settings(max_examples=100, deadline=None)
def test_sieve_matches_divisor_sum_reference(k, N):
    assert homotopy_ranks(k, N).ranks == _necklace_reference(k, N)


@pytest.mark.parametrize("b2", [2, 1, 0, -1])
def test_signed_sieve_matches_divisor_sum_reference_below_three(b2):
    assert tuple(_necklace(b2, 200)) == _necklace_reference(b2, 200)


def test_signed_sieve_zeros_below_three():
    # (c - 1), c and (c + 1) divide m_j for j >= 3, 4 and 5, with c = b2 - 1
    assert _necklace(2, 9) == [2, 2, 0, 0, 0, 0, 0, 0, 0]
    assert _necklace(1, 9) == [1, 0, -1, 0, 0, 0, 0, 0, 0]
    assert _necklace(0, 9) == [0, -1, 0, 1, 0, 0, 0, 0, 0]


def test_rank_polynomial_checks_pass():
    assert rank_polynomial_checks(60) == (True, True)
    assert rank_polynomial_checks(0) == (True, True)


def test_rank_polynomial_checks_fail_on_a_changed_polynomial(monkeypatch, empty_rank_store):
    necklace = _necklace

    def nonzero_past_degree_six(k, N):
        ranks = necklace(k, N)
        ranks[-1] += N > 6
        return ranks

    monkeypatch.setattr("fourfold.ranks._necklace", nonzero_past_degree_six)
    assert rank_polynomial_checks(8) == (False, True)
    monkeypatch.undo()
    # one coefficient of the degree-5 closed form, c^1, moved by 1
    monkeypatch.setattr("fourfold.ranks._closed_form", lambda j, c: _closed_form(j, c) + (j == 5) * c)
    assert rank_polynomial_checks(8) == (True, False)


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=1, max_value=300))
@example(3, 300)
@settings(max_examples=100, deadline=None)
def test_growth_lemma_2n_m_n_at_least_lucas(k, N):
    """The growth lemma: 2n m_n >= L_n for k >= 3, so m_n > beta^n / (2n)."""
    ranks = homotopy_ranks(k, N).ranks
    lucas = _lucas(k, N)
    for n in range(1, N + 1):
        assert 2 * n * ranks[n - 1] >= lucas[n], (k, n)


def test_homotopy_ranks_hyperbolic_table():
    t = homotopy_ranks(3, 6)
    assert t.betti == 3
    assert t.ranks == (3, 5, 5, 10, 24, 55)
    assert t.rank(1) == 3  # rank of pi_2
    assert t.rank(6) == 55  # rank of pi_7


def test_rank_past_the_end_is_a_domain_error():
    table = RankTable(3, (1, 2))
    assert table.max_degree == 2 and table.rank(2) == 2
    for n in (0, 3, 4):
        with pytest.raises(DomainError, match=f"degree {n} outside 1..2"):
            table.rank(n)


def test_homotopy_ranks_boundary_case():
    assert homotopy_ranks(2, 8).ranks == (2, 2, 0, 0, 0, 0, 0, 0)


def test_homotopy_ranks_elliptic_special_case():
    assert homotopy_ranks(1, 9).ranks == (1, 0, 0, 1, 0, 0, 0, 0, 0)


def test_homotopy_ranks_rejects_bad_input():
    with pytest.raises(DomainError):
        homotopy_ranks(0, 5)
    with pytest.raises(DomainError):
        homotopy_ranks(3, 0)


@given(st.integers(min_value=2, max_value=10))
def test_anchor_values(k):
    t = homotopy_ranks(k, 2)
    assert t.rank(1) == k
    assert t.rank(2) == (k - 1) * (k + 2) // 2


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=40))
@settings(max_examples=120, deadline=None)
def test_ranks_are_nonnegative_integers(k, n):
    r = homotopy_ranks(k, n).rank(n)
    assert isinstance(r, int)
    assert r >= 0


def test_closed_forms_match_moebius_inversion():
    """Degrees 2..6 have polynomial closed forms in c = b2 - 1."""
    for betti in range(3, 9):
        table = homotopy_ranks(betti, 6)
        for j in range(2, 7):
            assert _closed_form(j, betti - 1) == table.rank(j), (betti, j)


def test_closed_form_values_at_betti_4():
    assert [_closed_form(j, 4 - 1) for j in range(2, 7)] == [9, 16, 45, 144, 456]


def test_closed_form_domain():
    for j in (1, 7):
        with pytest.raises(DomainError, match="supported range is 2..6"):
            _closed_form(j, 3)


def test_pbw_identities_pass_for_hyperbolic_range():
    for k in range(2, 7):
        for n in (1, 2, 12):
            chk = pbw_identity_check(k, n)
            assert chk.status == PBW_PASS, (k, n, chk)


def test_lucas_numbers_are_the_power_sums_of_the_pbw_quadratic():
    # PBW identity 1 reads L_1..L_N as the power sums of 1/(1 - k t + t^2);
    # negative k too, as the sieve calls _lucas(-k, N)
    for k in range(-12, 13):
        for N in range(61):
            assert _lucas(k, N)[1 : N + 1] == newton_sums([1, -k, 1], N)[1:], (k, N)


def _pbw_reference(k, ranks, N):
    """(status, first_failure) of both identities, from the product series."""
    m = dict(enumerate(ranks, start=1))
    for dims, poly in ((m, [1, -k, 1]), ({**m, 1: k - 1}, [1, 1 - k, 1 - k, 1])):
        lhs = pbw_product(dims, N)
        rhs = series_reciprocal((poly + [0] * N)[: N + 1])
        for n in range(N + 1):
            if lhs[n] != rhs[n]:
                return "fail", n
    return "pass", None


def test_pbw_check_matches_product_series_on_mutated_tables(monkeypatch, empty_rank_store):
    rng = random.Random(4)
    statuses = []
    for _ in range(400):
        k, N = rng.randint(2, 9), rng.randint(1, 40)
        ranks = list(homotopy_ranks(k, N).ranks)
        ranks[rng.randrange(N)] += rng.choice((-2, -1, 1, 2))
        table = RankTable(k, tuple(ranks))
        monkeypatch.setattr("fourfold.ranks.homotopy_ranks", lambda betti, n: table)
        empty_rank_store.clear()  # else an outcome stored for another table answers
        chk = pbw_identity_check(k, N)
        assert (chk.status, chk.first_failure) == _pbw_reference(k, ranks, N), (k, ranks)
        statuses.append(chk.status)
    assert statuses.count("fail") > 350


def test_pbw_check_matches_product_series_on_true_tables():
    for k in range(2, 8):
        assert _pbw_reference(k, homotopy_ranks(k, 30).ranks, 30) == ("pass", None)


def test_pbw_not_applicable_at_betti_one():
    chk = pbw_identity_check(1, 8)
    assert chk.status == PBW_NOT_APPLICABLE
    assert chk.first_failure is None


def test_growth_base_satisfies_quadratic():
    b = growth_base(3)
    # beta^2 = 3 beta - 1, to the carried precision
    err = abs(b * b - 3 * b + 1)
    assert err < Decimal("1e-55")


def test_growth_base_50_digits():
    b = growth_base(3)
    assert str(b).startswith("2.618033988749894848204586834365638117720309179805")


def test_growth_base_is_correctly_rounded():
    # against a 200-digit Decimal square root rounded once to the printed
    # digits; at 10**31 beta rounds up to 10**31 itself, a digit longer
    for k in [*range(3, 200), 10**30, 10**31]:
        with localcontext() as ctx:
            ctx.prec = 200
            reference = (k + Decimal(k * k - 4).sqrt()) / 2
            ctx.prec = ranks_module.GROWTH_PRECISION
            assert str(growth_base(k)) == str(+reference), k


def test_growth_base_needs_hyperbolic_betti():
    with pytest.raises(DomainError):
        growth_base(2)


def test_growth_base_is_computed_once_per_b2(monkeypatch, empty_rank_store):
    calls = []

    def counting(betti):
        calls.append(betti)
        return growth_base(betti)

    monkeypatch.setattr(ranks_module, "growth_base", counting)
    for k in range(3, 7):
        for N in (60, 1, 200, 5, 60):
            assert growth_report(k, N).growth_base == growth_base(k)
    assert calls == [3, 4, 5, 6]
    # each b2 gains one entry, a sequence of one
    kept = {key: seq for key, (seq, _) in empty_rank_store.entries.items()}
    assert {k for compute, k in kept if compute is _growth_base} == {3, 4, 5, 6}
    assert all(len(kept[_growth_base, k]) == 1 for k in range(3, 7))
    empty_rank_store.clear()
    assert growth_report(4, 60).growth_base == growth_base(4)
    assert calls == [3, 4, 5, 6, 4]


def test_growth_report_elliptic():
    rep = growth_report(2, 10)
    assert rep.classification == "elliptic"
    assert rep.growth_base is None
    assert not rep.exponential_growth


def test_growth_report_hyperbolic():
    rep = growth_report(3, 60)
    assert rep.classification == "hyperbolic"
    assert rep.exponential_growth
    assert rep.limit_residual < Decimal("1e-6")
    assert all(rep.cumulative_bound_ok.values())


def test_growth_flag_is_exact_at_tiny_probes():
    # the growth lemma decides the flag, so it needs no minimum window
    for betti in range(3, 13):
        for probe in (1, 2, 3):
            assert growth_report(betti, probe).exponential_growth, (betti, probe)


def test_growth_lemma_hypotheses_hold_exactly_from_three():
    # L_2 >= 2 L_1, 3 L_2 >= 7 L_1 and 21 k >= 58 (the ranks module docstring),
    # with L_1 = k and L_2 = k^2 - 2: growth_report sets exponential_growth
    # wherever b2 >= 3 because all three hold there and only there
    holds = [
        k for k in range(-50, 200)
        if k * k - 2 >= 2 * k and 3 * (k * k - 2) >= 7 * k and 21 * k >= 58
    ]
    assert holds == list(range(3, 200))
    assert all(_lucas(k, 2)[1:] == [k, k * k - 2] for k in range(-50, 200))


def test_growth_report_keeps_the_fields_perfbench_reads_and_a_fixed_precision():
    # perfbench reads vars(): the keys in this order, with classification and
    # exponential_growth derived from b2 (the growth lemma holds from 3 on)
    for betti in range(1, 13):
        fields = vars(growth_report(betti, 10))
        assert list(fields) == [
            "betti", "classification", "probe_degree", "growth_base",
            "limit_residual", "exponential_growth", "cumulative_bound_ok",
        ]
        hyperbolic = betti >= 3
        assert fields["classification"] == ("hyperbolic" if hyperbolic else "elliptic")
        assert fields["exponential_growth"] is hyperbolic
        assert growth_report(betti, 10).precision == GROWTH_PRECISION == 60


def test_growth_report_json_is_plain_data():
    report = growth_report(3, 12)
    d = cmd_growth(3, 12).payload
    assert d["classification"] == "hyperbolic"
    assert d["growth_base"] == str(report.growth_base)
    assert d["limit_residual"] == str(report.limit_residual)
    assert d["cumulative_bound_ok"] == {str(n): True for n in range(1, 7)}
    assert cmd_growth(2, 12).payload["growth_base"] is None


def test_cumulative_bound_range():
    # one flag per n of the probe window, n = 1 even at probe degree 1
    for betti in range(3, 8):
        for probe, n_max in ((30, 15), (31, 15), (2, 1), (1, 1)):
            result = growth_report(betti, probe).cumulative_bound_ok
            assert result == dict.fromkeys(range(1, n_max + 1), True), (betti, probe)
    # and none at b2 <= 2, where the bound is not proved
    assert [growth_report(betti, 30).cumulative_bound_ok for betti in (1, 2)] == [{}, {}]


def _cumulative_bound_reference(table, k, n_max):
    sums = [0]
    for i in range(1, 2 * n_max + 1):
        sums.append(sums[-1] + table.rank(i))
    return {n: 2 * n * sums[2 * n] >= (k - 1) ** (2 * n) for n in range(1, n_max + 1)}


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=1, max_value=150))
@example(3, 1)
@example(12, 150)
@settings(max_examples=40, deadline=None)
def test_cumulative_bound_matches_direct_reference(k, n_max):
    table = homotopy_ranks(k, 2 * n_max)
    flags = growth_report(k, 2 * n_max).cumulative_bound_ok
    assert flags == _cumulative_bound_reference(table, k, n_max)


def test_the_cumulative_bound_proof_holds_step_by_step():
    # steps 1, 2 and 4 of the proof in the ranks module docstring, checked on
    # the numbers, and the flags against the ranks, for k 3..200
    for k in range(3, 201):
        N = 300 if k <= 40 else 120
        table = homotopy_ranks(k, N)
        m = (0,) + table.ranks  # m[i] = m_i
        e = [0] + [m[d] - (m[d // 2] if d % 4 == 2 else 0) for d in range(1, N + 1)]
        c, weighted = [0] * (N + 1), [0] * (N + 1)  # sum_{d|n} d e_d, sum_{d|n} d m_d
        for d in range(1, N + 1):
            for n in range(d, N + 1, d):
                c[n] += d * e[d]
                weighted[n] += d * m[d]
        assert c == _power_sums(dict(enumerate(table.ranks, start=1)), N), k
        L = _lucas(k, N)
        assert c[1:] == L[1:], k  # step 1
        assert all(w >= cn for w, cn in zip(weighted, c)), k  # step 2
        assert L[1] == k  # step 4
        for j in range(2, N + 1):
            assert L[j] - (k - 1) * L[j - 1] == L[j - 1] - L[j - 2] >= 0, (k, j)
            assert L[j] >= (k - 1) ** j, (k, j)
        flags = GrowthReport(k, N, None, None).cumulative_bound_ok
        assert flags == _cumulative_bound_reference(table, k, N // 2), k


def test_cumulative_bound_check_reads_no_rank_table(monkeypatch, empty_rank_store):
    # a GrowthReport derives its bound flags from b2 and the probe degree alone
    def unreachable(*args):
        raise AssertionError("the cumulative bound read a rank table")

    monkeypatch.setattr("fourfold.ranks._necklace", unreachable)
    monkeypatch.setattr("fourfold.ranks.homotopy_ranks", unreachable)
    for probe, n_max in ((1, 1), (2, 1), (15, 7), (80, 40), (500, 250)):
        report = GrowthReport(10**30, probe, None, None)
        assert report.cumulative_bound_ok == dict.fromkeys(range(1, n_max + 1), True)
    assert not empty_rank_store.entries


def test_cumulative_bound_is_exact_rational():
    # the n = 1 case: m_1 + m_2 >= (b2 - 1)^2 / 2 with equality margin checked exactly
    betti = 3
    lhs = Fraction(sum(homotopy_ranks(betti, 2).ranks))
    rhs = Fraction((betti - 1) ** 2, 2)
    assert lhs >= rhs
    assert growth_report(betti, 2).cumulative_bound_ok == {1: True}


def test_rank_table_serialization():
    t = homotopy_ranks(3, 3)
    assert repr(t) == "RankTable(betti=3, ranks=(3, 5, 5))"
    result = cmd_ranks(3, 3)
    assert result.payload == {
        "betti": 3,
        "ranks": {"pi_2": 3, "pi_3": 5, "pi_4": 5},
        "classification": "hyperbolic",
    }
    assert result.csv == "degree,rank\n2,3\n3,5\n4,5\n"


# -- the prefix store ----------------------------------------------------------


def _assert_store_consistent(store, cap):
    assert store.nbytes == sum(size for _, size in store.entries.values())
    assert store.nbytes <= cap


def _kept(store, compute):
    """The b2 at which store keeps a prefix of compute's sequence."""
    return {k for kept, k in store.entries if kept is compute}


def test_store_answers_equal_the_fresh_sieve_in_any_call_order(empty_rank_store):
    rng = random.Random(14)
    N = {k: rng.randint(1, 400) for k in range(2, 21)}
    for _ in range(300):
        k = rng.randint(2, 20)
        # each b2's degree walks up and down, so calls both hit and extend
        N[k] = min(400, max(1, N[k] + rng.choice((-1, 1)) * rng.randint(1, 150)))
        assert homotopy_ranks(k, N[k]).ranks == tuple(_necklace(k, N[k])), (k, N[k])
    assert set(empty_rank_store.entries) == {(_checked_ranks, k) for k in range(2, 21)}


def _with_empty_store(check, *args):
    """check(*args) computed in full: the store swapped for an empty one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ranks_module, "_store", _PrefixStore())
        return check(*args)


def test_check_stores_answer_as_fresh_computations_in_any_call_order(empty_rank_store):
    rng = random.Random(20)
    N = {k: rng.randint(1, 300) for k in range(2, 13)}
    for _ in range(300):
        k = rng.randint(2, 12)
        # each b2's degree walks up and down, so calls both hit and extend
        N[k] = min(300, max(1, N[k] + rng.choice((-1, 1)) * rng.randint(1, 120)))
        check = rng.choice((pbw_identity_check, growth_report))
        assert check(k, N[k]) == _with_empty_store(check, k, N[k]), (check, k, N[k])
    assert _kept(empty_rank_store, _checked_ranks) == set(range(2, 13))
    assert _kept(empty_rank_store, _pbw_agreement) == set(range(2, 13))
    assert _kept(empty_rank_store, _growth_base) == set(range(3, 13))


def test_a_check_that_raises_stores_nothing(monkeypatch, empty_rank_store):
    homotopy_ranks(5, 50)
    before = dict(empty_rank_store.entries), empty_rank_store.nbytes
    necklace = _necklace

    def negative_last_term(k, N):
        ranks = necklace(k, N)
        ranks[-1] = -1
        return ranks

    monkeypatch.setattr("fourfold.ranks._necklace", negative_last_term)
    for k, N in ((5, 80), (7, 30)):
        with pytest.raises(InternalInconsistency, match="< 0"):
            homotopy_ranks(k, N)
        assert (dict(empty_rank_store.entries), empty_rank_store.nbytes) == before
    monkeypatch.undo()
    for k, N in ((5, 80), (5, 60), (7, 30), (7, 29)):
        assert homotopy_ranks(k, N).ranks == tuple(_necklace(k, N))


@pytest.mark.parametrize(
    "bad_call", [lambda: homotopy_ranks(3.0, 6), lambda: growth_report(3.5, 10)],
    ids=["homotopy_ranks(3.0, 6)", "growth_report(3.5, 10)"],
)
def test_a_non_int_betti_is_refused_before_it_reaches_the_store(bad_call, empty_rank_store):
    # 3.0 == 3 and hash(3.0) == hash(3): a float b2 kept under its key would
    # answer every later call at the int b2, with float ranks
    with pytest.raises(DomainError, match="second Betti number must be an int"):
        bad_call()
    ranks = homotopy_ranks(3, 4).ranks
    assert ranks == (3, 5, 5, 10)  # equal to (3.0, 5.0, 5.0, 10.0) too
    assert all(type(m) is int for m in ranks)
    assert all(type(b2) is int for _, b2 in empty_rank_store.entries)


def test_store_keeps_to_its_cap_and_evicts_the_oldest_first(monkeypatch, empty_rank_store):
    store = empty_rank_store
    for k in (3, 4, 5):
        homotopy_ranks(k, 60)
    cap = store.nbytes
    monkeypatch.setattr("fourfold.ranks.RANK_STORE_BYTES", cap)
    homotopy_ranks(3, 10)  # a hit leaves the order as it was
    assert list(store.entries) == [(_checked_ranks, k) for k in (3, 4, 5)]
    homotopy_ranks(6, 60)
    # the oldest entries went first, as many as the new one needed
    assert (_checked_ranks, 3) not in store.entries
    assert list(store.entries) == [
        (_checked_ranks, k) for k in (3, 4, 5, 6) if (_checked_ranks, k) in store.entries
    ]
    assert list(store.entries)[-1] == (_checked_ranks, 6)
    _assert_store_consistent(store, cap)
    # a table larger than the whole cap is returned but not kept
    kept = dict(store.entries)
    assert homotopy_ranks(7, 2000).ranks == tuple(_necklace(7, 2000))
    assert store.entries == kept
    rng = random.Random(3)
    for _ in range(200):
        k, N = rng.randint(2, 12), rng.randint(1, 120)
        assert homotopy_ranks(k, N).ranks == tuple(_necklace(k, N))
        _assert_store_consistent(store, cap)


def test_a_hit_takes_no_lock(empty_rank_store):
    class Refusing:
        def __enter__(self):
            raise AssertionError("a read took the store's lock")

        def __exit__(self, *exc_info):
            return False

    homotopy_ranks(3, 600)
    pbw_identity_check(3, 45)
    growth_report(3, 500)
    hits = [
        (entry_point, 3, N)
        for entry_point, degrees in (
            (homotopy_ranks, (1, 2, 300, 600)),
            (pbw_identity_check, (0, 12, 45)),
            (growth_report, (1, 14, 500)),
        )
        for N in degrees
    ]
    fresh = {call: _with_empty_store(*call) for call in hits}
    order = list(empty_rank_store.entries)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(empty_rank_store, "_lock", Refusing())
        for call in hits:
            assert call[0](*call[1:]) == fresh[call], call
    assert list(empty_rank_store.entries) == order


def test_the_ranks_deep_working_set_fills_at_most_a_quarter_of_the_cap(empty_rank_store):
    # what the ranks-deep mix reads, each prefix at its longest: no run evicts
    for k in range(2, 13):
        homotopy_ranks(k, 600)
    for k in range(2, 9):
        pbw_identity_check(k, 45)
    for k in range(3, 13):
        growth_report(k, 1)
    assert len(empty_rank_store.entries) == 11 + 7 + 10
    _assert_store_consistent(empty_rank_store, RANK_STORE_BYTES // 4)


def test_threads_share_the_store_and_get_the_fresh_answers(monkeypatch, empty_rank_store):
    # a cap of a few tables, so that threads evict each other's entries
    monkeypatch.setattr("fourfold.ranks.RANK_STORE_BYTES", 40_000)
    rng = random.Random(8)
    entry_points = (homotopy_ranks, pbw_identity_check, growth_report)
    calls = []
    for _ in range(4):
        thread_calls = []
        for _ in range(150):
            k = rng.randint(2, 9)
            thread_calls.append((rng.choice(entry_points), k, rng.randint(1, 250)))
        calls.append(thread_calls)
    fresh = {call: _with_empty_store(*call) for thread in calls for call in thread}
    wrong, errors = [], []

    def work(thread_calls):
        try:
            for call in thread_calls:
                if call[0](*call[1:]) != fresh[call]:
                    wrong.append(call)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(c,)) for c in calls]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert (wrong, errors) == ([], [])
    _assert_store_consistent(empty_rank_store, 40_000)


def test_one_cap_bounds_every_sequence_kept(monkeypatch, empty_rank_store):
    # a cap of a few tables, so that each sequence's entries evict the others'
    store, cap = empty_rank_store, 40_000
    monkeypatch.setattr("fourfold.ranks.RANK_STORE_BYTES", cap)
    fills = {
        homotopy_ranks: {_checked_ranks},
        growth_report: {_checked_ranks, _growth_base},
        pbw_identity_check: {_checked_ranks, _pbw_agreement},
    }
    rng = random.Random(23)
    crossed = 0
    for _ in range(300):
        k, N = rng.randint(2, 9), rng.randint(1, 250)
        entry_point = rng.choice(list(fills))
        before = set(store.entries)
        assert entry_point(k, N) == _with_empty_store(entry_point, k, N), (entry_point, k, N)
        _assert_store_consistent(store, cap)
        for (compute, b2), (seq, _) in store.entries.items():
            assert seq == _with_empty_store(compute, b2, len(seq)), (compute, b2)
        # an entry of a sequence this call cannot store was evicted by one it did
        evicted = {compute for compute, _ in before - set(store.entries)}
        crossed += bool(evicted - fills[entry_point])
    assert crossed


def test_entry_points_slice_one_stored_table(monkeypatch, empty_rank_store):
    calls, loops = [], []
    necklace = _necklace

    def counting(k, N):
        calls.append((k, N))
        return necklace(k, N)

    def counted(compute):
        def wrapper(k, N):
            loops.append((compute.__name__, k, N))
            return compute(k, N)
        return wrapper

    monkeypatch.setattr("fourfold.ranks._necklace", counting)
    for name in ("_growth_base", "_pbw_agreement"):
        monkeypatch.setattr(ranks_module, name, counted(getattr(ranks_module, name)))
    homotopy_ranks(3, 600)
    for n in (1, 2, 300, 599, 600):
        homotopy_ranks(3, n)
    # beta and the PBW loop are computed once each, for the longest request
    # first; the cumulative bound computes nothing
    for _ in range(3):
        growth_report(3, 500)
        growth_report(3, 14)
        pbw_identity_check(3, 45)
        pbw_identity_check(3, 0)
        pbw_identity_check(3, 12)
    assert calls == [(3, 600)]
    assert loops == [("_growth_base", 3, 1), ("_pbw_agreement", 3, 45)]
    homotopy_ranks(3, 601)
    assert calls == [(3, 600), (3, 601)]


def test_each_reader_takes_its_n_from_a_longer_kept_prefix(monkeypatch, empty_rank_store):
    k = 5
    homotopy_ranks(k, 40)  # the store keeps m_1..m_40
    assert homotopy_ranks(k, 7).ranks == tuple(_necklace(k, 7))
    # the residual at N is the one from m_N, not from the last rank kept
    beta = growth_base(k)
    with localcontext() as ctx:
        ctx.prec = GROWTH_PRECISION
        residual = +abs(Decimal(12) * Decimal(_necklace(k, 12)[-1]) / beta**12 - 1)
    assert growth_report(k, 12).limit_residual == residual
    # PBW flags kept to order 3 that fail there (from a table with m_3 off by
    # one): order 2 passes
    m_1, m_2, m_3 = homotopy_ranks(k, 3).ranks
    off_by_one = RankTable(k, (m_1, m_2, m_3 + 1))
    monkeypatch.setattr(ranks_module, "homotopy_ranks", lambda *_: off_by_one)
    pbw_identity_check(k, 3)
    monkeypatch.undo()
    assert empty_rank_store.entries[_pbw_agreement, k][0] == (True, True, False)
    assert pbw_identity_check(k, 2) == PbwCheck(PBW_PASS)
    assert pbw_identity_check(k, 3) == PbwCheck(PBW_FAIL, first_failure=3)
