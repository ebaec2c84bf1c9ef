"""Brute-force graded-algebra oracle: word bases, relation rows, exact ranks."""

import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold import (
    DomainError,
    GradedDims,
    InternalInconsistency,
    OracleReport,
    ResourceLimit,
    koszul_leading_monomial_check,
    quotient_dims_oracle,
    quotient_series,
    tensor_series,
)
from fourfold import oracle
from fourfold.oracle import (
    DEFAULT_COLUMN_BUDGET,
    _ideal_ranks,
    _pivot,
    _word_count,
    _word_offset,
)
from refimpl import eliminate, enumerate_words, relation_terms, word_text


def full_relation_rows(k, n, rel=None):
    """Every row u * r * v of degree n as a {column: +-1} dict: the whole
    matrix, the reference for the degree recursion.  Left degree ascending,
    then u lex, then v lex.  r is relation_terms(k) unless rel, a degree-3
    relation in the same form, is given."""
    rel = rel or relation_terms(k)
    for a in range(n - 2):
        b = n - 3 - a
        # the column of u * w * v is offset(u) + offset(w) + (position of v)
        mids = [(_word_offset(k, w, b + 3), c) for c, w in rel]
        width = _word_count(k, b)
        for u in enumerate_words(k, a):
            pu = _word_offset(k, u, n)
            for pos in range(pu, pu + width):
                yield {pos + m: c for m, c in mids}


def head_rows(k, n):
    """The W(n-3) rows r * v of degree n, v in lex order: the a = 0 rows,
    first in the full stream."""
    return list(islice(full_relation_rows(k, n), _word_count(k, n - 3)))


def top_degree(k, columns):
    """The highest degree with at most `columns` words."""
    top = 0
    while _word_count(k, top + 1) <= columns:
        top += 1
    return top


def record_degrees(monkeypatch, k, N, rel=None, may_refuse=False):
    """Run _ideal_ranks(k, N), with the relation rel in place of r if given,
    and record, per degree 3..N (the first with a row r * v), what its
    elimination starts from and what it makes: the skip flags (1 where the
    step's state is 2), a lookup of the lower degrees' pivots by column, its
    row flags (1 where the state is nonzero) and top, its pivots by column
    (the template at each state 0), what it keeps, (top, flags, template),
    and the rows it builds.  The step must leave its states as it found
    them.  With may_refuse, an InternalInconsistency ends the run and marks
    the degree that raised it as refused."""
    degrees = []
    step, reduce_row = oracle._degree_pivots, oracle._reduce_row

    def recording_step(k, n, widths, lower, states):
        assert n == len(degrees) + 3 == len(lower)
        given = bytes(states)
        # the lower degrees as they stand, and an empty window at degree n
        below = [*lower, (0, b"", None)]
        degrees.append({
            "skipped": bytes(state == 2 for state in given),
            "below": lambda col: _pivot(k, widths, below, n, col),
            "built": [],
        })
        step(k, n, widths, lower, states)
        top, flags, template = lower[n]
        assert bytes(states) == given and flags is states, (k, n)
        degrees[-1].update(
            top=top, flags=bytes(map(bool, flags)), kept=(top, bytes(flags), template),
            new={top + pos: template for pos, flag in enumerate(flags) if not flag},
        )

    def recording_reduce(row, *pivots):
        degrees[-1]["built"].append(dict(row))
        return reduce_row(row, *pivots)

    monkeypatch.setattr(oracle, "_degree_pivots", recording_step)
    monkeypatch.setattr(oracle, "_reduce_row", recording_reduce)
    if rel:
        monkeypatch.setattr(oracle, "_relation_terms", lambda k: rel)
    try:
        _ideal_ranks(k, N)
    except InternalInconsistency:
        if not may_refuse:
            raise
        degrees[-1]["refused"] = True
        return degrees
    finally:
        monkeypatch.undo()
    assert len(degrees) == N - 2
    return degrees


def by_column(pivots):
    """Pivots with each {column - lead column: value} as a dict: the same
    whichever order a row listed r's terms in."""
    return {col: (dict(rel), inv) for col, (rel, inv) in pivots.items()}


def degree(k, word):
    # letters 0..k-1 are the degree-1 x's, k..2k-1 the degree-2 y's
    return sum(1 if c < k else 2 for c in word)


def test_word_degree_and_rendering():
    assert degree(2, (0, 3, 1)) == 1 + 2 + 1
    assert word_text(2, (0, 3, 1)) == "x1*y2*x2"
    assert word_text(2, ()) == "1"


def test_word_count_matches_recurrence():
    for k in (1, 2, 3, 4):
        counts = [len(list(enumerate_words(k, n))) for n in range(8)]
        assert counts == [_word_count(k, n) for n in range(8)]
        assert counts[0] == 1
        assert counts[1] == k
        for n in range(2, 8):
            assert counts[n] == k * (counts[n - 1] + counts[n - 2])


def test_word_count_matches_tensor_series():
    for k in (1, 2, 3):
        s = tensor_series({1: k, 2: k}, 7)
        for n in range(8):
            assert len(list(enumerate_words(k, n))) == s.coefficient(n)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
def test_enumeration_is_sorted_and_duplicate_free(k, n):
    ws = list(enumerate_words(k, n))
    assert ws == sorted(ws)
    assert len(set(ws)) == len(ws)
    assert all(degree(k, w) == n for w in ws)


def test_canonical_relation_shape():
    terms = oracle._relation_terms(3)
    assert len(terms) == 6
    assert sorted(c for c, _ in terms) == [-1, -1, -1, 1, 1, 1]
    assert {degree(3, w) for _, w in terms} == {3}
    rendered = {(c, word_text(3, w)) for c, w in terms}
    assert (1, "x1*y1") in rendered
    assert (-1, "y1*x1") in rendered
    for k in range(1, 9):
        assert sorted(oracle._relation_terms(k)) == sorted(relation_terms(k)), k


def test_relation_rows_match_enumerated_columns():
    # rows built from the words themselves: column = position in enumeration
    for k in range(1, 5):
        rel = relation_terms(k)
        for n in range(3, 8):
            col = {w: i for i, w in enumerate(enumerate_words(k, n))}
            expected = [
                {col[u + w + v]: c for c, w in rel}
                for a in range(n - 2)
                for u in enumerate_words(k, a)
                for v in enumerate_words(k, n - 3 - a)
            ]
            assert list(full_relation_rows(k, n)) == expected, (k, n)


def test_production_rows_are_the_rows_with_empty_left_factor(monkeypatch):
    # each row the loop builds, and each pivot it places unbuilt, is the row
    # r * v at its lead column, as the full stream spells it
    for k in range(1, 5):
        for n, degree in enumerate(record_degrees(monkeypatch, k, 8), start=3):
            by_lead = {max(row): row for row in head_rows(k, n)}
            assert len(by_lead) == _word_count(k, n - 3)
            built = [max(row) for row in degree["built"]]
            assert [by_lead[lead] for lead in built] == degree["built"], (k, n)
            new = by_column(degree["new"])
            for pos, (lead, row) in enumerate(by_lead.items()):
                if degree["skipped"][pos] or lead in built:
                    continue
                # the row as a pivot: its lead -1 is its own inverse
                assert row[lead] == -1
                as_pivot = {c - lead: v for c, v in row.items() if c != lead}, -1
                assert new[lead] == as_pivot, (k, n, pos)


def test_block_walk_maps_columns_to_first_letter_and_rest():
    # one marker pivot, as a window of one template at the column the first
    # step down must reach, so the walk ends there or not at all; degree n's
    # own window is tested before any step, and none below degree 3, which
    # has no row r * v
    for k in range(1, 4):
        for n in range(3, 9):
            widths = [_word_count(k, m) for m in range(n + 1)]
            empty = [(0, b"", None)] * (n + 1)
            position = [
                {w: j for j, w in enumerate(enumerate_words(k, m))}
                for m in range(n + 1)
            ]
            for col, word in enumerate(enumerate_words(k, n)):
                c, rest = word[0], word[1:]
                m = n - (1 if c < k else 2)
                j = position[m][rest]
                marked = list(empty)
                marked[m] = (j, b"\x00", (m, j))
                assert _pivot(k, widths, marked, n, col) == ((m, j) if m >= 3 else None)
                marked[n] = (col, b"\x00", "own")
                assert _pivot(k, widths, marked, n, col) == "own"
                # a flag of 1 is no pivot: the walk goes on past it
                marked[n] = (col, b"\x01", "own")
                marked[m] = (j, b"\x01", (m, j))
                assert _pivot(k, widths, marked, n, col) is None
            # with no pivot at or below degree n, the walk runs out below degree 3
            assert all(
                _pivot(k, widths, empty, n, col) is None
                for col in range(widths[n])
            )


def test_degree_recursion_matches_elimination_of_the_full_matrix():
    for k in range(1, 5):
        top = top_degree(k, 20_000)
        recursive = _ideal_ranks(k, top)
        for n in range(top + 1):
            pivots, integral, _ = eliminate(full_relation_rows(k, n))
            # +-1 pivots throughout: the rank over Q is the rank mod every prime
            assert integral, (k, n)
            assert recursive[n] == len(pivots), (k, n)


def test_relation_whose_lead_overlaps_itself_is_refused(monkeypatch):
    # x2 x1 x2 - x1 x1 x1 at k = 2: the lead x2 x1 x2 overlaps itself, so {r}
    # is no Groebner basis and a row built at degree 5 is a new pivot, not a
    # zero.  The oracle raises there; the full elimination still has a rank.
    rel = ((1, (1, 0, 1)), (-1, (0, 0, 0)))
    monkeypatch.setattr(oracle, "_relation_terms", lambda k: rel)
    with pytest.raises(InternalInconsistency, match=r"of degree 5, k=2,"):
        _ideal_ranks(2, 7)
    assert _ideal_ranks(2, 4) == [0, 0, 0, 1, 4]
    ranks = [len(eliminate(full_relation_rows(2, n, rel))[0]) for n in (5, 6, 7)]
    assert ranks == [16, 55, 182]


def test_row_flags_are_the_lower_pivot_window(monkeypatch):
    # flag 1 exactly at the rows r * v whose lead is a pivot column of the
    # rows u * r * v with u nonempty, eliminated in full; also for a relation
    # whose lead overlaps itself, in the degrees before the oracle refuses it
    overlapping = ((1, (1, 0, 1)), (-1, (0, 0, 0)))
    cases = [(k, min(12, top_degree(k, 20_000)), None) for k in range(1, 7)]
    for k, N, rel in cases + [(2, 4, overlapping)]:
        for n, degree in enumerate(record_degrees(monkeypatch, k, N, rel), start=3):
            rows = full_relation_rows(k, n, rel)
            leads = [max(row) for row in islice(rows, _word_count(k, n - 3))]
            lower, _, _ = eliminate(rows)  # the rest of the stream
            assert leads == list(range(degree["top"], degree["top"] + len(leads)))
            flags = [int(lead in lower) for lead in leads]
            assert list(degree["flags"]) == flags, (k, n, rel)


def occurs(lead, word):
    return any(word[i:i + len(lead)] == lead for i in range(len(word)))


def test_row_and_skip_flags_find_the_lead_in_v_and_in_v_without_its_last_letter(
    monkeypatch,
):
    # the states kept three degrees back, against the words v of degree
    # n - 3: the row flags mark y_k x_k in v, the skips in v[:-1]
    for k in range(1, 5):
        lead = (2 * k - 1, k - 1)
        for n, degree in enumerate(record_degrees(monkeypatch, k, 8), start=3):
            words = list(enumerate_words(k, n - 3))
            assert list(degree["flags"]) == [occurs(lead, v) for v in words], (k, n)
            assert list(degree["skipped"]) == [occurs(lead, v[:-1]) for v in words], (k, n)
    # x1 x1 x1 overlaps itself, and as a monomial no row of it is refused: the
    # border step flags the lead in L * v past its first letter, and leaves
    # the skips at the lead in v[:-1]
    lead = (0, 0, 0)
    for n, degree in enumerate(record_degrees(monkeypatch, 2, 9, ((1, lead),)), start=3):
        words = list(enumerate_words(2, n - 3))
        assert list(degree["flags"]) == [occurs(lead, (lead + v)[1:]) for v in words], n
        assert list(degree["skipped"]) == [occurs(lead, v[:-1]) for v in words], n


def random_relation(rng, k, bordered):
    """A degree-3 relation with a lead of +-1 and up to three smaller words:
    the lead x_a x_b x_a, which overlaps itself, if bordered, else any word."""
    pool = list(enumerate_words(k, 3))
    a, b = rng.randrange(k), rng.randrange(k)
    lead = (a, b, a) if bordered else rng.choice(pool)
    below = [w for w in pool if w < lead]
    words = rng.sample(below, rng.randint(0, min(3, len(below))))
    return ((rng.choice((1, -1)), lead), *((rng.choice((1, -1, 2, -3)), w) for w in words))


#: SHA-256 of what every degree keeps, (top, flags, template), and the
#: leads of the rows it builds, in the order the oracle reaches them: at k =
#: 1..8 through the top degree within 20,000 columns, then for 20 seeded
#: random relations (test_what_every_degree_keeps_and_builds_is_unchanged).
ORACLE_DIGEST = "a817108d25a2f97e70583c9c2c547176e04053d87dd2008e91a3b21b4ef7774f"


def test_what_every_degree_keeps_and_builds_is_unchanged(monkeypatch):
    # a refactor of the elimination must keep each degree's state and the
    # rows it builds, not only the ranks they add up to
    runs = [(k, None) for k in range(1, 9)]
    rng = random.Random(35)
    runs += [(1 + trial % 3, random_relation(rng, 1 + trial % 3, trial % 2)) for trial in range(20)]
    digest = hashlib.sha256()
    refused = 0
    for k, rel in runs:
        for degree in record_degrees(monkeypatch, k, top_degree(k, 20_000), rel, True):
            refused += degree.get("refused", False)
            kept = "refused" if degree.get("refused") else degree["kept"]
            digest.update(repr((k, kept, [max(row) for row in degree["built"]])).encode())
    assert refused, "no random relation reaches a degree the oracle refuses"
    assert digest.hexdigest() == ORACLE_DIGEST


def test_random_relations_get_exact_ranks_until_the_oracle_refuses(monkeypatch):
    # any degree-3 relation with a lead of +-1: each rank the oracle returns is
    # the full elimination's.  Every other lead is x_a x_b x_a, which overlaps
    # itself (a border), so the border step is reached; where {r} is then no
    # Groebner basis, the oracle raises at the first built row that stays.
    rng = random.Random(3)
    bordered = refused = 0
    for trial in range(40):
        k = 1 + trial % 3
        rel = random_relation(rng, k, bordered=not trial % 2)
        lead = rel[0][1]
        monkeypatch.setattr(oracle, "_relation_terms", lambda k: rel)
        for N in range(3, top_degree(k, 600) + 1):
            try:
                rank = _ideal_ranks(k, N)[N]
            except InternalInconsistency:
                refused += 1
                break
            assert rank == len(eliminate(full_relation_rows(k, N, rel))[0]), (rel, N)
            bordered += N > 3 and lead[0] == lead[-1] and len(lead) == 3
    assert bordered and refused, (bordered, refused)


def test_rows_skipped_by_right_multiplication_reduce_to_zero(monkeypatch):
    for k in range(1, 5):
        skips = 0
        degrees = record_degrees(monkeypatch, k, top_degree(k, 20_000))
        for n, degree in enumerate(degrees, start=3):
            # every row r * v reduced in turn: none skipped, none placed unbuilt
            pivots, _, fates = eliminate(head_rows(k, n), degree["below"])
            assert by_column(pivots) == by_column(degree["new"]), (k, n)
            skipped = [pos for pos, flag in enumerate(degree["skipped"]) if flag]
            assert all(fates[pos] == "zero" for pos in skipped), (k, n)
            skips += len(skipped)
        # rows are first skipped in degree 7, past 20,000 columns at k = 4
        assert skips > 0 or k == 4, k


def test_rows_placed_unbuilt_are_the_rows_no_step_reduces(monkeypatch):
    for k in range(1, 5):
        degrees = record_degrees(monkeypatch, k, top_degree(k, 20_000))
        for n, degree in enumerate(degrees, start=3):
            heads = head_rows(k, n)
            built = {max(row) for row in degree["built"]}
            placed = [
                pos for pos, row in enumerate(heads)
                if not degree["skipped"][pos] and max(row) not in built
            ]
            _, _, fates = eliminate(heads, degree["below"])
            unreduced = [pos for pos, fate in enumerate(fates) if fate == "unreduced"]
            assert placed == unreduced, (k, n)


def test_rows_built_at_b2_3_through_degree_10(monkeypatch):
    # of the 11,929 rows r * v not skipped over degrees 3..10, 225 are built
    degrees = record_degrees(monkeypatch, 3, 10)
    assert sum(degree["skipped"].count(0) for degree in degrees) == 11_929
    assert sum(len(degree["built"]) for degree in degrees) == 225


def rank_of(rows):
    # eliminate reduces its rows in place, so it gets fresh copies
    pivots, integral, _ = eliminate([dict(r) for r in rows])
    return len(pivots), integral


def dense_rank(matrix, p=None):
    """Rank by dense Gaussian elimination over Q, or over GF(p) if p is given."""
    norm = (lambda v: v % p) if p else Fraction
    m = [[norm(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p) if p else 1 / m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] * inv
                m[r] = [norm(a - f * b) for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# The second row reduces to {0: -(2**61 - 1)}: zero over GF(2**61 - 1), where
# the rank is 1, but a unit over the rationals, where it is 2.
ROWS_VANISHING_MOD_P1 = [{0: 1, 1: 1}, {0: 1, 1: 2**61}]


def test_non_unit_pivot_gives_exact_rank_and_non_integral_flag():
    # the first pivot leads with 2; the second row reduces to {0: 1 - 3/2}
    assert rank_of([{0: 1, 1: 2}, {0: 1, 1: 3}]) == (2, False)
    # a multiple of that pivot row vanishes through the Fraction inverse
    assert rank_of([{0: 1, 1: 2}, {0: 3, 1: 6}]) == (1, False)
    assert rank_of(ROWS_VANISHING_MOD_P1) == (2, False)


def test_unit_pivots_stay_integral():
    # leads -1 and then 1; the third row is 3 * first - second and vanishes
    assert rank_of([{0: 1, 1: -1}, {0: 2, 1: -1}, {0: 1, 1: -2}]) == (2, True)
    assert rank_of(ROWS_VANISHING_MOD_P1[:1]) == (1, True)
    assert rank_of([]) == (0, True)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-3, 3), min_size=width, max_size=width),
            max_size=6,
        )
    )
)
def test_exact_rank_matches_dense_fraction_elimination(matrix):
    rank, integral = rank_of([{c: v for c, v in enumerate(row) if v} for row in matrix])
    assert rank == dense_rank(matrix)
    if integral:
        # unit pivots: the same rank over every prime field
        assert all(dense_rank(matrix, p) == rank for p in (2, 3, 5))


def test_oracle_stays_integral_within_the_default_budget():
    for k in range(1, 7):
        rep = quotient_dims_oracle(k, top_degree(k, DEFAULT_COLUMN_BUDGET))
        # every pivot is a template leading with -1; a row that would need
        # another pivot raises instead of reporting a field
        assert rep.field_used == "integer", k
        assert rep.all_ok, k


def test_ideal_dims_low_degrees():
    # degree < 3 cannot meet a degree-3 relation
    assert quotient_dims_oracle(2, 0).ideal_dims.dims == (0,)
    assert quotient_dims_oracle(2, 5).ideal_dims.dims == (0, 0, 0, 1, 4, 16)
    assert quotient_dims_oracle(3, 8).ideal_dims[8] == 3339


def test_single_relation_spans_one_dimension():
    for k in (1, 2, 3, 4):
        assert quotient_dims_oracle(k, 3).ideal_dims[3] == 1


def test_oracle_report_matches_closed_form():
    for k, N in ((1, 8), (2, 8), (3, 6)):
        rep = quotient_dims_oracle(k, N)
        assert rep.all_ok, (k, rep)
        assert rep.quotient_dims.dims == tuple(quotient_series(k, N).as_int_list())


def test_report_derives_max_degree_and_quotient_dims():
    # neither is stored: both are read off the tensor and ideal dims
    for k in range(1, 5):
        for N in range(9):
            rep = quotient_dims_oracle(k, N, budget=300_000)  # W(8) = 252,160 at k = 4
            assert rep.max_degree == N, (k, N)
            assert rep.quotient_dims.dims == tuple(quotient_series(k, N).coeffs), (k, N)
            assert set(vars(rep)) == {"betti_param", "tensor_dims", "ideal_dims"}


def _flags_from_dims(rep):
    """(series_match, euler_ok), recomputed from the report's dims alone."""
    k, N, q = rep.betti_param, rep.max_degree, rep.quotient_dims
    closed = quotient_series(k, N)
    series = tuple(q[n] == closed.coefficient(n) for n in range(N + 1))
    euler = tuple(
        q[n] - k * q[n - 1] - k * q[n - 2] + q[n - 3] == (n == 0) for n in range(N + 1)
    )
    return series, euler


def test_report_derives_its_flags_from_its_dims():
    # no report can carry flags that contradict its dims: they are read off them
    reports = [
        quotient_dims_oracle(k, N, budget=300_000) for k in range(1, 5) for N in range(9)
    ]
    good = quotient_dims_oracle(2, 6)
    ideal = list(good.ideal_dims.dims)
    ideal[5] += 1  # one dimension too many in degree 5
    altered = OracleReport(2, good.tensor_dims, GradedDims(tuple(ideal)))
    for rep in [*reports, altered]:
        series, euler = _flags_from_dims(rep)
        assert rep.series_match == series and rep.euler_ok == euler, rep
        assert rep.all_ok == (all(series) and all(euler))
        for name in ("series_match", "euler_ok", "all_ok"):
            with pytest.raises(AttributeError):
                setattr(rep, name, True)
    assert all(rep.all_ok for rep in reports)
    # degree 5 breaks the series there and the Euler identity at 5 and 6
    assert altered.series_match == (True,) * 5 + (False, True)
    assert altered.euler_ok == (True,) * 5 + (False, False)


def test_oracle_degenerate_parameter_one():
    # the quotient collapses to the commutative algebra on one x and one y
    rep = quotient_dims_oracle(1, 8)
    assert rep.quotient_dims.dims == (1, 1, 2, 2, 3, 3, 4, 4, 5)


def test_euler_identity_on_oracle_dims():
    for k, N in ((1, 8), (2, 8), (3, 7)):
        rep = quotient_dims_oracle(k, N)
        assert rep.euler_ok == (True,) * (N + 1), (k, rep.euler_ok)
        q = rep.quotient_dims
        for n in range(N + 1):
            # dim A_n - k dim A_{n-1} - k dim A_{n-2} + dim A_{n-3} = [n == 0]
            euler = q[n] - k * q[n - 1] - k * q[n - 2] + q[n - 3]
            assert euler == (n == 0), (k, n)


def test_report_internal_consistency_fields():
    rep = quotient_dims_oracle(2, 5)
    for n in range(6):
        assert (
            rep.tensor_dims[n] - rep.ideal_dims[n] == rep.quotient_dims[n]
        )
    assert rep.field_used == "integer"


def test_resource_limit_names_the_budget():
    with pytest.raises(ResourceLimit) as exc:
        quotient_dims_oracle(4, 7, budget=1000)
    assert "budget" in str(exc.value)


def test_budget_applies_to_full_oracle_run():
    with pytest.raises(ResourceLimit):
        quotient_dims_oracle(4, 8, budget=2000)
    # same degrees fit comfortably when the cap is lifted
    rep = quotient_dims_oracle(4, 5, budget=3000)
    assert rep.all_ok


def test_budget_counts_only_degrees_with_a_matrix():
    # below the relation's degree 3 no matrix is built, so no width is capped
    rep = quotient_dims_oracle(3, 2, budget=5)
    assert rep.all_ok
    assert rep.tensor_dims.dims == (1, 3, 12)
    with pytest.raises(ResourceLimit) as exc:
        quotient_dims_oracle(3, 3, budget=5)
    assert str(exc.value) == "degree 3 at k=3 needs a 45-column matrix; budget is 5 columns"


def test_no_work_below_degree_three(monkeypatch):
    # no row r * v below degree 3: no step, no relation offsets, no flags
    def refuse(*args):
        raise AssertionError("work below degree 3")

    for name in ("_degree_pivots", "_word_offset", "_containing"):
        monkeypatch.setattr(oracle, name, refuse)
    monkeypatch.setattr(oracle, "bytearray", refuse, raising=False)
    for k in (1, 3, 10**6):
        assert [_ideal_ranks(k, N) for N in range(3)] == [[0], [0, 0], [0, 0, 0]]
    # at b2 = 10**5, degree 2 would have taken 10**10 bytes of flags
    assert quotient_dims_oracle(10**5, 2, budget=1).ideal_dims.dims == (0, 0, 0)


def test_oracle_state_is_a_few_bytes_per_row():
    # no table per row and no flag per column: the oracle's traced peak stays
    # within a few copies of the W(N-3) row flags of its last degree
    for k, N in ((2, 12), (3, 11), (4, 9)):
        tracemalloc.start()
        try:
            _ideal_ranks(k, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * _word_count(k, N - 3), (k, N, peak)


def test_budget_is_checked_before_any_elimination(monkeypatch):
    def no_elimination(k, n, *state):
        raise AssertionError(f"degree {n} eliminated")

    monkeypatch.setattr(oracle, "_degree_pivots", no_elimination)
    with pytest.raises(ResourceLimit) as exc:
        quotient_dims_oracle(2, 13)
    assert str(exc.value) == (
        "degree 12 at k=2 needs a 136384-column matrix; budget is 50000 columns"
    )


def test_deep_degree_is_a_resource_limit_not_a_recursion_error():
    with pytest.raises(ResourceLimit):
        quotient_dims_oracle(2, 3000)
    assert _word_count(2, 3000) == 2 * (_word_count(2, 2999) + _word_count(2, 2998))


def test_oracle_is_deterministic():
    assert quotient_dims_oracle(2, 6) == quotient_dims_oracle(2, 6)


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=3, max_value=6))
def test_ideal_dim_agrees_with_series_difference(k, n):
    expected = tensor_series({1: k, 2: k}, n).coefficient(n) - quotient_series(
        k, n
    ).coefficient(n)
    assert quotient_dims_oracle(k, n).ideal_dims[n] == expected


def test_koszul_leading_monomial_for_small_alphabets():
    for k in range(1, 6):
        assert koszul_leading_monomial_check(k) == (True, f"y{k}*x{k}")


def test_koszul_leading_monomial_is_maximal_term():
    for k in range(1, 9):
        words = [w for _, w in relation_terms(k)]
        top = max(words)
        assert words.count(top) == 1  # unique: strictly above every other term
        assert koszul_leading_monomial_check(k) == (True, word_text(k, top)), k
    with pytest.raises(DomainError, match="alphabet parameter must be >= 1, got 0"):
        koszul_leading_monomial_check(0)
