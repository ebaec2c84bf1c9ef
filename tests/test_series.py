"""Truncated-series arithmetic and the named generating-series constructors."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourfold import (
    DomainError,
    GradedDims,
    TruncatedSeries,
    UngradedGenerator,
    free_comm_series,
    pbw_series,
    quotient_series,
    tensor_series,
)
from fourfold.cli import cmd_series
from fourfold.ranks import RankTable, homotopy_ranks
from fourfold.series import _poly_reciprocal
from refimpl import pbw_product, series_log, series_mul, series_reciprocal

coeff_lists = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=8),
    min_size=1,
    max_size=9,
)


def test_construction_keeps_exact_types():
    s = TruncatedSeries([1, 2, 3])
    assert all(type(c) is int for c in s.coeffs)
    assert s.coefficient(1) == 2
    with pytest.raises(DomainError):
        s.coefficient(5)  # beyond the truncation order is unknowable, not zero
    with pytest.raises(DomainError):
        TruncatedSeries([0.5])
    # the reference arithmetic divides in Fraction, never in float
    r = series_reciprocal([2, 1, 0, 0])
    assert all(type(c) is Fraction for c in r)
    assert r == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16)]


def test_coefficient_list_too_long_rejected():
    # the truncation order is the list's length less one, so no list is too
    # long for it: the order is no argument, and only an empty list is refused
    with pytest.raises(TypeError):
        TruncatedSeries(coeffs=(1, 2, 3), truncation_order=1)
    assert TruncatedSeries((1, 2, 3)).truncation_order == 2
    with pytest.raises(DomainError, match="^need at least 1 coefficient, got 0$"):
        TruncatedSeries([])


def test_mul_truncates_to_min_order():
    assert len(series_mul([1, 1, 1, 1, 1], [1, 1])) == 2
    # (1 + t + t^2)(1 - t) = 1 - t^3, truncated at order 1
    assert series_mul([1, 1, 1], [1, -1]) == [1, 0]


@given(coeff_lists)
def test_reciprocal_is_two_sided_inverse(coeffs):
    if coeffs[0] == 0:
        coeffs = [Fraction(1)] + coeffs[1:]
    r = series_reciprocal(coeffs)
    one = [1] + [0] * (len(coeffs) - 1)
    assert series_mul(coeffs, r) == one
    assert series_mul(r, coeffs) == one


def test_reciprocal_needs_unit_constant_term():
    with pytest.raises(ZeroDivisionError):
        series_reciprocal([0, 1])


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_log_turns_products_into_sums(xs, ys):
    n = min(len(xs), len(ys))
    a = [1] + xs[1:n]  # log needs constant term 1
    b = [1] + ys[1:n]
    assert series_log(series_mul(a, b)) == [
        x + y for x, y in zip(series_log(a), series_log(b))
    ]


def test_log_needs_unit_constant_term():
    with pytest.raises(ValueError, match="constant term must be 1, got 2"):
        series_log([2, 1])


def test_geometric_series():
    assert series_reciprocal([1, -1, 0, 0, 0, 0, 0]) == [1] * 7


def test_free_comm_even_generators_only():
    # two generators in degree 2: 1/(1-t^2)^2 = 1 + 2t^2 + 3t^4 + ...
    s = free_comm_series({2: 2}, 6)
    assert s.as_int_list() == [1, 0, 2, 0, 3, 0, 4]


def test_free_comm_odd_generators_square_to_zero():
    # three odd generators contribute (1+t)^3 and nothing more
    s = free_comm_series({1: 3}, 5)
    assert s.as_int_list() == [1, 3, 3, 1, 0, 0]


def test_free_comm_mixed_parity():
    # (1+t) / (1-t^2) = 1/(1-t)
    s = free_comm_series({1: 1, 2: 1}, 8)
    assert s.as_int_list() == [1] * 9


def test_free_comm_rejects_degree_zero_generator():
    with pytest.raises(UngradedGenerator):
        free_comm_series({0: 1, 2: 1}, 4)


@given(
    st.dictionaries(st.integers(min_value=1, max_value=12), st.integers(0, 4), max_size=4),
    st.integers(min_value=0, max_value=12),
)
@example({}, 5)
@example({1: 3}, 12)
@example({2: 4}, 12)
@example({1: 2, 2: 3}, 12)
@example({1: 0, 2: 2}, 7)  # a zero multiplicity
@example({1: 1, 2: 1, 3: 2}, 12)  # degree 3 takes _poly_reciprocal
@settings(max_examples=80, deadline=None)
def test_constructors_match_fraction_products(dims, N):
    """The integer recurrences agree with factor-by-factor Fraction arithmetic."""
    one = [1] + [0] * N
    product, den = one, list(one)
    for deg, mult in dims.items():
        t = [int(i == deg) for i in range(N + 1)]
        if deg % 2:
            factor = [a + b for a, b in zip(one, t)]
        else:
            factor = series_reciprocal([a - b for a, b in zip(one, t)])
        for _ in range(mult):
            product = series_mul(product, factor)
        if deg <= N:
            den[deg] -= mult
    free, tensor = free_comm_series(dims, N), tensor_series(dims, N)
    assert free.as_int_list() == product
    assert tensor.as_int_list() == series_reciprocal(den)
    assert all(type(c) is int for c in free.coeffs + tensor.coeffs)


@given(
    st.lists(st.one_of(st.just(0), st.integers(-6, 6)), max_size=50),
    st.integers(min_value=0, max_value=40),
)
@example([], 0)
@example([-2, 0, 0, 0], 6)  # trailing zeros
@example([0, 0, -1, 0, 3], 25)  # interior zeros
@example([-1, 0, 0, 0, 0, 7], 2)  # degree above N
@settings(max_examples=80, deadline=None)
def test_poly_reciprocal_matches_fraction_reference(tail, N):
    """The padded integer recurrence agrees with series_reciprocal on 1 + tail."""
    poly = [1] + tail
    got = _poly_reciprocal(poly, N)
    assert got == series_reciprocal((poly + [0] * N)[: N + 1])
    assert all(type(c) is int for c in got)


@given(
    st.sampled_from([(), (1,), (2,), (1, 2)]),
    st.integers(0, 12),
    st.integers(0, 12),
    st.booleans(),
    st.integers(min_value=0, max_value=1000),
)
@example((), 0, 0, False, 1000)
@example((1,), 5, 0, False, 1000)
@example((2,), 5, 0, False, 1000)
@example((1, 2), 3, 7, False, 1000)  # m_1 != m_2
@example((1, 2), 0, 4, False, 3)  # a zero multiplicity
@example((1, 2), 0, 0, False, 2)
@example((1, 2), 12, 12, True, 1000)  # m_1 == m_2
@example((1, 2), 1, 1, True, 0)
@example((1, 2), 5, 5, True, 1)
@settings(max_examples=40, deadline=None)
def test_tensor_series_low_degree_loop_matches_poly_reciprocal(degrees, a, b, same, N):
    """Generators of degree <= 2 agree with 1/poly: m_1 == m_2 (drawn when
    `same` and both degrees are listed) takes the one-multiply loop, any
    other set _poly_reciprocal itself."""
    dims = dict(zip(degrees, (a, a if same else b)))
    den = [1, -dims.get(1, 0), -dims.get(2, 0)]
    assert tensor_series(dims, N).as_int_list() == _poly_reciprocal(den, N)


@pytest.mark.parametrize("k", range(13))
@pytest.mark.parametrize("N", [0, 1, 2, 3, 299, 1000])
def test_tensor_series_loop_at_equal_multiplicities_matches_poly_reciprocal(k, N):
    assert tensor_series({1: k, 2: k}, N).as_int_list() == _poly_reciprocal([1, -k, -k], N)


@pytest.mark.parametrize("k", range(1, 13))
def test_quotient_series_loop_matches_poly_reciprocal(k):
    for N in (0, 1, 2, 3, 4, 299, 1000):
        assert quotient_series(k, N).as_int_list() == _poly_reciprocal([1, -k, -k, 1], N)


@pytest.mark.parametrize("constructor", [free_comm_series, tensor_series])
def test_constructors_reject_bad_generators(constructor):
    with pytest.raises(DomainError, match="negative degree -1"):
        constructor({-1: 2}, 3)
    with pytest.raises(DomainError, match="^multiplicity must be >= 0, got -2$"):
        constructor({1: 1, 2: -2}, 3)
    with pytest.raises(UngradedGenerator):
        constructor({0: 1}, 3)
    # an entry of multiplicity 0 is no generator, whatever its degree
    assert constructor({-1: 0, 0: 0, 1: 1}, 3) == constructor({1: 1}, 3)
    with pytest.raises(TypeError):
        constructor([0, 2], 3)  # a bare sequence is not a generator set


#: name: (build(k, N), reference(k, N)), the reference from tests/refimpl.py
NAMED_CONSTRUCTORS = {
    "quotient": (
        quotient_series,
        lambda k, N: series_reciprocal([1, -k, -k, 1] + [0] * N)[: N + 1],
    ),
    "tensor-two-term": (
        lambda k, N: tensor_series({1: k, 2: k}, N),
        lambda k, N: series_reciprocal([1, -k, -k] + [0] * N)[: N + 1],
    ),
    "tensor-general": (
        lambda k, N: tensor_series({1: k, 3: k}, N),
        lambda k, N: series_reciprocal([1, -k, 0, -k] + [0] * N)[: N + 1],
    ),
    "free-comm": (
        lambda k, N: free_comm_series({1: k, 2: k}, N),
        lambda k, N: pbw_product({1: k, 2: k}, N),
    ),
    "pbw": (
        lambda k, N: pbw_series(homotopy_ranks(k, max(N, 1)), N),
        lambda k, N: pbw_product(dict(enumerate(homotopy_ranks(k, N).ranks, 1)), N),
    ),
}


@pytest.mark.parametrize("name", NAMED_CONSTRUCTORS)
def test_named_constructors_hand_out_only_what_the_checked_constructor_accepts(name):
    """The named constructors skip TruncatedSeries' per-coefficient check:
    each result is one the checked constructor builds equal, of exact ints,
    truncated at the order asked for, and the reference series."""
    build, reference = NAMED_CONSTRUCTORS[name]
    for k in range(1, 13):
        expected = reference(k, 60)  # the series at N is its prefix
        for N in range(61):
            s = build(k, N)
            assert s == TruncatedSeries(s.coeffs), (k, N)
            assert s.truncation_order == N, (k, N)
            assert all(type(c) is int for c in s.coeffs), (k, N)
            assert s.as_int_list() == expected[: N + 1], (k, N)


def test_graded_dims_is_zero_past_its_end_and_no_generator_set():
    d = GradedDims((0, 2, 0, 4))
    assert [d[i] for i in range(-1, 6)] == [0, 0, 2, 0, 4, 0, 0]
    with pytest.raises(TypeError) as exc:
        free_comm_series(d, 3)
    assert str(exc.value) == "generators must be a mapping, not GradedDims"


def test_tensor_series_fibonacci_at_unit_dims():
    s = tensor_series({1: 1, 2: 1}, 8)
    assert s.as_int_list() == [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_tensor_series_matches_word_recurrence():
    # c_n = k (c_{n-1} + c_{n-2}) for generators k in degree 1 and k in degree 2
    for k in (2, 3, 4):
        s = tensor_series({1: k, 2: k}, 9)
        c = s.as_int_list()
        for n in range(2, 10):
            assert c[n] == k * (c[n - 1] + c[n - 2])


def test_quotient_series_recurrence_values():
    assert quotient_series(3, 8).as_int_list() == [
        1, 3, 12, 44, 165, 615, 2296, 8568, 31977,
    ]
    assert quotient_series(2, 8).as_int_list() == [
        1, 2, 6, 15, 40, 104, 273, 714, 1870,
    ]
    # orders below the cubic's degree
    assert [quotient_series(3, n).as_int_list() for n in range(3)] == [
        [1], [1, 3], [1, 3, 12],
    ]


def test_quotient_series_degenerate_parameter_one():
    # 1/(1 - t - t^2 + t^3) = 1/((1-t)^2 (1+t))
    assert quotient_series(1, 7).as_int_list() == [1, 1, 2, 2, 3, 3, 4, 4]


def test_quotient_series_rejects_parameter_below_one():
    with pytest.raises(DomainError):
        quotient_series(0, 5)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=20))
def test_quotient_recurrence_holds_generally(k, n):
    s = quotient_series(k, n + 3)
    a = s.as_int_list()
    m = n + 3
    assert a[m] == k * a[m - 1] + k * a[m - 2] - a[m - 3]


def test_quotient_equals_reciprocal_of_cubic():
    for k in (1, 2, 5):
        lhs = quotient_series(k, 10)
        assert lhs.as_int_list() == series_reciprocal([1, -k, -k, 1] + [0] * 7)


def test_pbw_series_accepts_rank_table_shape():
    s = pbw_series(RankTable(2, (2, 2)), 4)
    # two odd generators in degree 1, two even in degree 2
    assert s == free_comm_series({1: 2, 2: 2}, 4)
    assert s.as_int_list() == [1, 2, 3, 4, 5]


class _RanksOnly:
    ranks = (2, 2)


@pytest.mark.parametrize(
    "table", [{1: 2, 2: 2}, GradedDims((0, 2, 2)), _RanksOnly()],
    ids=lambda t: type(t).__name__,
)
def test_pbw_series_rejects_anything_but_a_rank_table(table):
    with pytest.raises(TypeError, match="pbw_series takes a RankTable, not "):
        pbw_series(table, 4)


def test_str_rendering():
    s = TruncatedSeries((1, 0, 2))
    assert "t^2" in str(s)
    assert cmd_series("tensor", 2, 2).payload == {
        "kind": "tensor",
        "betti": 2,
        "truncation_order": 2,
        "coefficients": ["1", "2", "6"],
    }
