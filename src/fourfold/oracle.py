"""Brute-force verification of the loop-homology quotient dimensions.

Words over x_1..x_k (degree 1), y_1..y_k (degree 2) are tuples of letter
codes x_i -> i-1, y_i -> k+i-1, in lex order for x_1 < ... < x_k < y_1 < ...
< y_k.  The degree-n slice of the ideal (r), r = sum_i (x_i y_i - y_i x_i), is
spanned by the rows u * r * v; the quotient dimension is W(n) - rank, W(n) the
number of degree-n words.  No rewriting or normal forms: exact ranks only.  A
column is a word's lex position from word counts: a letter c met with degree
`rem` still to spell skips min(c, k) W(rem-1) + max(0, c-k) W(rem-2) words.

Degree recursion.  The degree-n words that start with a letter c form one
block of columns: k x-blocks of width W(n-1), then k y-blocks of width
W(n-2).  A row u * r * v with u = c * u' is c * (u' * r * v), a degree
n - deg(c) row shifted by the offset of block c.  So the rows with u nonempty
span the direct sum of the lower-degree row spaces, one per block, with the
lower degrees' pivot rows, shifted, as an echelon basis (max columns stay
distinct).  Degree n streams only its W(n-3) rows r * v; a pivot is one of
degree n or is found by walking down the blocks (subtract the block offset,
go down deg(c)) until a degree below 3.  Nothing is copied, and
rank_n = k rank_{n-1} + k rank_{n-2} + (pivots of degree n).  Which columns
hold a pivot is a flag per column: k copies of degree n-1's flags, then k of
degree n-2's.  Degree n reads its lead window off them, then sets it to 1; a
walk starts at any column but a template's lead, and ends in None where no
lower pivot holds the column.

Right multiplication.  Appending a letter c is linear and injective; it maps
a row u * r * w to the row u * r * w c, and keeps the lex order of two words
of one degree, since neither is a prefix of the other.  If r * v reduced to
zero in its degree, it is a combination of the rows r * v'' with v'' < v and
of the rows with u nonempty, so r * v c is the same combination of the rows
r * v'' c, with v'' c < v c, and of rows with u nonempty: it is dependent
before its turn.  The elimination would reduce it to zero and change no pivot,
so it is skipped and never built; degree n reads its skips off the row flags
(below) of degrees n-1 and n-2 through a table from each word v to v[:-1].

Pivots are templates.  Every row r * v has the same entries relative to its
lead, the -1 at y_k x_k * v, and the rows come in increasing lead column.  A
row whose lead no lower pivot holds is a pivot as it stands (no earlier row
leads there): the degree's one template, placed at that lead, never built.
Every other row must reduce to zero.  The lead y_k x_k does not overlap
itself, so {r} is a Groebner basis (Bergman 1978): the degree-n ideal has one
dimension per word containing y_k x_k, and the shifted lower pivots (leads
containing it past the first letter) with the templates (leads y_k x_k * v, v
free of it) already span it.  The oracle checks rather than assumes this: it
builds the other rows and raises InternalInconsistency at one that does not
vanish.  A row is a template exactly where no lower pivot holds its lead: a
built row's is held, which is why it is built, and a skipped row's too, as a
dependent row's max column is a pivot column of the rows before it and this
degree's earlier rows lead left of it.  So a degree keeps its window's first
column top, its template and its lower-pivot window, a flag per row r * v, 0
at each template; no pivot is stored.  After it every lead holds a pivot.

Rank policy: one elimination over the integers, pivoting on the max column.
Every pivot, own or shifted, is a template leading with -1, so multipliers
are ints, every row is an integer combination of pivots, and pivots in
distinct columns stay independent modulo every prime: the rank is the rank
over Q and over every prime field at once, and the field is always "integer".
"""

from __future__ import annotations

from typing import Optional

from ._record import Record
from .errors import DomainError, InternalInconsistency, ResourceLimit
from .series import GradedDims, quotient_series

#: Largest admissible matrix width (= number of words in one degree).
#: 50,000 columns lets k = 3 reach degree 8 (35,316 columns) and refuses 9.
DEFAULT_COLUMN_BUDGET = 50_000


def _relation_terms(k: int) -> tuple:
    """r = sum_i (x_i y_i - y_i x_i) as ((+-1, letter codes), ...): 2k terms."""
    return tuple(
        (s, w) for i in range(k) for s, w in ((1, (i, k + i)), (-1, (k + i, i)))
    )


def _word_count(k: int, n: int) -> int:
    # c_n = k c_{n-1} + k c_{n-2}: append x (degree 1) or y (degree 2).
    if n < 0:
        return 0
    prev, count = 0, 1
    for _ in range(n):
        prev, count = count, k * (count + prev)
    return count


def _columns(k: int, n: int, budget: int) -> int:
    """Number of degree-n words; ResourceLimit when it exceeds the budget."""
    cols = _word_count(k, n)
    if cols > budget:
        raise ResourceLimit(
            f"degree {n} at k={k} needs a {cols}-column matrix; "
            f"budget is {budget} columns"
        )
    return cols


def _word_offset(k: int, letters, rem: int) -> int:
    """Lex position, among the degree-rem words, of the first one that starts
    with `letters` (of `letters` itself when its degree is rem)."""
    pos = 0
    for c in letters:
        # skip the words that start with a smaller x (degree 1) or y (degree 2)
        pos += min(c, k) * _word_count(k, rem - 1) + max(0, c - k) * _word_count(k, rem - 2)
        rem -= 1 if c < k else 2
    return pos


def _inherited_pivot(k: int, widths: list, degrees: list, n: int, col: int):
    """The lower degree's pivot that holds column col of degree n, or None.
    widths[m] is W(m); degrees[m] is degree m's (top, flags, template), whose
    pivots are its template at each column top + pos with flags[pos] == 0.
    Each step drops the first letter: the column within its block, one or two
    degrees down."""
    while n >= 3:
        x_width = widths[n - 1]
        if col < k * x_width:
            col, n = col % x_width, n - 1
        else:
            col, n = (col - k * x_width) % widths[n - 2], n - 2
        top, flags, template = degrees[n]
        pos = col - top
        if 0 <= pos < len(flags) and not flags[pos]:
            return template
    return None


def _prefix_tables(k: int):
    """Yield, for word degrees d = 1, 2, ..., a list that maps the position
    of each degree-d word v to where v[:-1] sits in the degree d-1 words
    followed by the degree d-2 words: its position when v ends in an x,
    W(d-1) + its position when v ends in a y.  Degree d is built from d-1
    and d-2 by first-letter blocks: for v = a * w, v[:-1] is a * w[:-1]."""
    older = [0] * k  # x_a -> the empty word, at 0
    # x_a x_b -> x_a, at a; y_b -> the empty word, at W(1) + 0
    old = [a for a in range(k) for _ in range(k)] + [k] * k
    yield older
    yield old
    d = 3
    while True:
        table = []
        for a in range(2 * k):
            e = d - 1 if a < k else d - 2  # degree of w
            # w's entry p < W(e-1) puts w[:-1] at p (w ends in an x), else at
            # p - W(e-1); a * w[:-1] is then a's block offset further on
            split = _word_count(k, e - 1)
            to_x = _word_offset(k, (a,), d - 1)
            to_y = _word_count(k, d - 1) - split + _word_offset(k, (a,), d - 2)
            below = old if a < k else older
            table += [p + to_x if p < split else p + to_y for p in below]
        yield table
        older, old = old, table
        d += 1


def _reduce_row(row: dict, pivot_at) -> bool:
    """Reduce row, a {column: nonzero int} dict, in place from its max column
    down by pivot_at(col), the pivot that holds col or None; whether the row
    vanished.

    A pivot is ((column - lead column, value) for the entries left of its
    lead, lead), so it applies at whatever column it leads; every lead is -1,
    its own inverse, so the multipliers are ints.
    """
    while row:
        c = max(row)
        piv = pivot_at(c)
        if piv is None:
            return False
        rel, inv = piv
        mult = row.pop(c) * inv  # coef - mult * lead is 0
        for d, vv in rel:
            cc = c + d
            nv = row.get(cc, 0) - mult * vv
            if nv:
                row[cc] = nv
            else:
                del row[cc]
    return True


def _degree_pivots(k: int, n: int, widths: list, degrees: list, has, skip) -> tuple:
    """Degree n's (top, flags, template): its lead window starts at column
    top, and flags is has[top:top + W(n-3)], its lower-pivot window, read
    once: 1 where a lower degree's pivot holds the lead, 0 at each template.

    The rows r * v go in lex order of v, skipping those flagged in skip.
    The lead of r * v is its -1 at y_k x_k * v, column top + pos for v at
    pos: a template pivot needs no work; any other row is built and must
    reduce to zero.  widths and degrees are as for _inherited_pivot; no
    argument is written.
    """
    mids = [(_word_offset(k, w, n), c) for c, w in _relation_terms(k)]
    top, lead = max(mids)  # lead -1 is its own inverse
    template = tuple((m - top, c) for m, c in mids if m != top), lead
    w = len(skip)
    flags = has[top:top + w]

    def pivot_at(col):
        # a window column flagged 0 is an earlier row's lead: a template
        pos = col - top
        if pos >= 0 and not flags[pos]:
            return template
        return _inherited_pivot(k, widths, degrees, n, col)

    # 1 at each row not skipped whose lead a lower pivot holds: flags are
    # bytes of 0 and 1, so one int AND over the window finds them all
    below = int.from_bytes(flags, "little")
    built = (below & ~int.from_bytes(skip, "little")).to_bytes(w, "little")
    pos = built.find(1)
    while pos >= 0:
        if not _reduce_row({pos + m: c for m, c in mids}, pivot_at):
            raise InternalInconsistency(
                f"row r * v at position {pos} of degree {n}, k={k}, "
                "does not reduce to zero"
            )
        pos = built.find(1, pos + 1)
    return top, flags, template


def _ideal_ranks(k: int, N: int) -> list:
    """Ranks of the ideal slices of degrees 0..N.  No row r * v exists below
    degree 3, so degrees 0..2 have rank 0 and an empty window; their column
    flags, all 0, are no wider than degree 3, whose width the budget checks."""
    if N < 3:
        return [0] * (N + 1)
    widths = [_word_count(k, m) for m in range(N + 1)]
    degrees = [(0, b"", None)] * 3
    out = [0] * 5  # degrees -2..2
    # degrees n-2, n-1: 1 at each column holding a pivot
    held = [bytearray(widths[1]), bytearray(widths[2])]
    prefixes = _prefix_tables(k)
    for n in range(3, N + 1):
        # column blocks by first letter: k of degree n-1, then k of n-2
        has = held[1] * k
        has += held[0] * k
        # r * v' dependent makes r * v' c dependent (right multiplication)
        skip = bytes(1) if n == 3 else bytes(
            map((degrees[n - 1][1] + degrees[n - 2][1]).__getitem__, next(prefixes))
        )
        top, flags, _ = state = _degree_pivots(k, n, widths, degrees, has, skip)
        degrees.append(state)
        has[top:top + len(flags)] = b"\x01" * len(flags)  # every lead is held
        held = [held[1], has]
        out.append(k * out[-1] + k * out[-2] + flags.count(0))
    return out[2:]


class OracleReport(Record):
    """Per-degree comparison of oracle dimensions against the closed form."""

    #: every pivot leads with -1 (module docstring, rank policy)
    field_used = "integer"

    def __init__(
        self,
        betti_param: int,
        max_degree: int,
        tensor_dims: GradedDims,
        ideal_dims: GradedDims,
        quotient_dims: GradedDims,
        series_match: tuple,
        euler_ok: tuple,
    ):
        self.__dict__.update(
            betti_param=betti_param,
            max_degree=max_degree,
            tensor_dims=tensor_dims,
            ideal_dims=ideal_dims,
            quotient_dims=quotient_dims,
            series_match=series_match,
            euler_ok=euler_ok,
        )
        for n in range(max_degree + 1):
            if quotient_dims[n] != tensor_dims[n] - ideal_dims[n]:
                raise InternalInconsistency(f"quotient dim at degree {n} is not tensor - ideal")
            if n < 3 and ideal_dims[n] != 0:
                raise InternalInconsistency(f"nonzero ideal dim at degree {n} < 3")

    @property
    def all_ok(self) -> bool:
        return all(self.series_match) and all(self.euler_ok)


def _euler_flags(k: int, qdims) -> tuple:
    """dim A_n - k dim A_{n-1} - k dim A_{n-2} + dim A_{n-3} == [n == 0]."""
    q = [0, 0, 0, *qdims]  # q[n + 3] = dim A_n, zero below degree 0
    return tuple(
        q[n + 3] - k * q[n + 2] - k * q[n + 1] + q[n] == int(n == 0)
        for n in range(len(qdims))
    )


def quotient_dims_oracle(k: int, N: int, budget: Optional[int] = None) -> OracleReport:
    """Compute quotient dimensions to degree N by rank alone and compare.

    series_match[n] compares against the closed-form quotient series;
    euler_ok[n] checks the cubic Euler identity using oracle dims only.
    Every degree from the relation's degree 3 up, where a matrix is built,
    has its width checked against the column budget (default
    DEFAULT_COLUMN_BUDGET) before any elimination.

    >>> quotient_dims_oracle(2, 5).ideal_dims.dims
    (0, 0, 0, 1, 4, 16)
    """
    if k < 1:
        raise DomainError(f"alphabet parameter must be >= 1, got {k}")
    if N < 0:
        raise DomainError(f"max degree must be >= 0, got {N}")
    budget = DEFAULT_COLUMN_BUDGET if budget is None else budget

    tensor = [_columns(k, n, budget) if n >= 3 else _word_count(k, n) for n in range(N + 1)]
    ideal = _ideal_ranks(k, N)
    quotient = [t - i for t, i in zip(tensor, ideal)]

    closed = quotient_series(k, N).coeffs
    return OracleReport(
        betti_param=k,
        max_degree=N,
        tensor_dims=GradedDims(tuple(tensor)),
        ideal_dims=GradedDims(tuple(ideal)),
        quotient_dims=GradedDims(tuple(quotient)),
        series_match=tuple(q == c for q, c in zip(quotient, closed)),
        euler_ok=_euler_flags(k, quotient),
    )


def koszul_leading_monomial_check(k: int) -> tuple:
    """(unique-leading-monomial flag, the leading word as text) for the relation r.

    The expected leading word under x_1 < ... < x_k < y_1 < ... < y_k is
    y_k x_k, and it must be the unique maximum among r's words.  It is read
    off k in O(1), without listing the 2k words of _relation_terms: the words
    (i, k + i) start with a letter i <= k - 1, and the words (k + i, i) start
    with k + i, a different letter for each i = 0..k-1.  All words have length
    2, so the lex maximum is the word of largest first letter when that letter
    is unique: (2k - 1, k - 1), i.e. y_k x_k, since 2k - 1 exceeds both k - 1
    (the first family) and every other k + i (the second).

    >>> koszul_leading_monomial_check(3)
    (True, 'y3*x3')
    """
    if k < 1:
        raise DomainError(f"alphabet parameter must be >= 1, got {k}")
    lead = (2 * k - 1, k - 1)  # the word (k + i, i) at i = k - 1
    # its first letter is above k - 1, the largest that starts an (i, k + i),
    # and above 2k - 2, the largest other k + i
    unique = lead[0] > k - 1 and lead[0] > 2 * k - 2
    text = "*".join(f"x{c + 1}" if c < k else f"y{c - k + 1}" for c in lead)
    return unique, text
