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
distinct).  Degree n streams only its W(n-3) rows r * v, its window kept
before they reduce.  One rule finds a pivot: test degree n's window, then
walk down the blocks (subtract the block offset, go down deg(c)), testing
each degree reached, until a degree below 3.  Nothing is copied, and
rank_n = k rank_{n-1} + k rank_{n-2} + (pivots of degree n).  A walk starts
at any column but a template's lead, and ends in None where no pivot holds
the column.  A degree's pivot columns are its words that contain the
lead L = y_k x_k (see Pivots are templates), so a lower pivot holds the lead
L * v of r * v where L occurs in it past the first letter: where v contains
L, or starts with the rest of L after a border (a proper suffix of L that is
also its prefix).  A word's state is 0 where it is free of L, 1 where it
contains L but not without its last letter, 2 where it does without it too
(L in v[:-1] is L in v).  y_k x_k has no border, so degree n's row flags are
the degree n-3 states; the border step, for a lead that overlaps itself,
raises 0 to 1 on a copy.  Only degrees n-3 and n-4 are kept: degree m's
states are k copies of degree m-1's, then k of m-2's, raised over degree m's
window L * w to 1 at m = 3 and to 2 from m = 4 on.

Right multiplication.  Appending a letter c is linear and injective; it maps
a row u * r * w to the row u * r * w c, and keeps the lex order of two words
of one degree, since neither is a prefix of the other.  If r * v reduced to
zero in its degree, it is a combination of the rows r * v'' with v'' < v and
of the rows with u nonempty, so r * v c is the same combination of the rows
r * v'' c, with v'' c < v c, and of rows with u nonempty: it is dependent
before its turn.  The elimination would reduce it to zero and change no pivot,
so it is skipped and never built: degree n skips the rows flagged 2, the v
with L in v[:-1].  It is sound for any relation: L in v[:-1] is L in
L * v[:-1] past its first letter, so a lower pivot held the lead of
r * v[:-1], which was then built and vanished, or was skipped.  At y_k x_k it
skips exactly the rows r * v[:-1] that were no template; with a border it
may skip fewer.

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
from .errors import InternalInconsistency, ResourceLimit, _echo, _int_arg
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
            f"degree {_echo(n)} at k={_echo(k)} needs a {_echo(cols)}-column matrix; "
            f"budget is {_echo(budget)} columns"
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


def _pivot(k: int, widths: list, degrees: list, n: int, col: int):
    """The pivot that holds column col of degree n, or None.  widths[m] is
    W(m); degrees[m] is degree m's (top, flags, template), whose pivots are
    its template at each column top + pos with flags[pos] == 0.  Each degree
    from n down is tested in turn: where its window does not hold the column,
    the step drops the first letter, the column within its block, one or two
    degrees down."""
    while n >= 3:
        top, flags, template = degrees[n]
        if top <= col < top + len(flags) and not flags[col - top]:
            return template
        x_width = widths[n - 1]
        if col < k * x_width:
            col, n = col % x_width, n - 1
        else:
            col, n = (col - k * x_width) % widths[n - 2], n - 2
    return None


def _reduce_row(row: dict, k: int, widths: list, degrees: list, n: int) -> bool:
    """Reduce row, a {column: nonzero int} dict of degree n, in place from its
    max column down by the pivots _pivot finds; whether the row vanished.

    A pivot is ((column - lead column, value) for the entries left of its
    lead, lead), so it applies at whatever column it leads; every lead is -1,
    its own inverse, so the multipliers are ints.
    """
    while row:
        c = max(row)
        piv = _pivot(k, widths, degrees, n, c)
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


def _mark(k: int, states: bytearray, words, m: int, state: int) -> bytearray:
    """states, one per degree-m word, raised to at least state at the words
    that start with one of words (at none for a word of degree above m)."""
    floor = bytes(max(b, state) for b in range(256))
    for word in words:
        top = _word_offset(k, word, m)
        w = _word_count(k, m - len(word) - sum(c >= k for c in word))
        states[top:top + w] = states[top:top + w].translate(floor)
    return states


def _containing(k: int, m: int, older: bytearray, old: bytearray, lead) -> bytearray:
    """Degree m's states by first letter, k copies of degree m-1's (old) and
    then k of degree m-2's (older), with degree m's window lead * w raised to
    1 at m = 3 (w empty) and to 2 from m = 4 on."""
    states = bytearray().join([old] * k + [older] * k)  # one allocation
    return _mark(k, states, [lead], m, 2 if m >= 4 else 1)


def _degree_pivots(k: int, n: int, widths: list, degrees: list, flags) -> None:
    """Append degree n's (top, flags, template) to degrees (as for _pivot):
    its lead window starts at column top.  flags has one entry per row r * v,
    v at pos among the degree n-3 words: 0 at each template, 1 where a lower
    degree's pivot holds the row's lead, 2 where one does and right
    multiplication shows the row dependent (module docstring); the nonzero
    flags are its lower-pivot window.

    The rows r * v then go in lex order of v, skipping those flagged 2.  The
    lead of r * v is its -1 at y_k x_k * v, column top + pos: a template pivot
    needs no work; a row flagged 1 is built and must reduce to zero.
    """
    mids = [(_word_offset(k, w, n), c) for c, w in _relation_terms(k)]
    top, lead = max(mids)  # lead -1 is its own inverse
    degrees.append((top, flags, (tuple((m - top, c) for m, c in mids if m != top), lead)))
    pos = flags.find(1)
    while pos >= 0:
        if not _reduce_row({pos + m: c for m, c in mids}, k, widths, degrees, n):
            raise InternalInconsistency(
                f"row r * v at position {_echo(pos)} of degree {_echo(n)}, k={_echo(k)}, "
                "does not reduce to zero"
            )
        pos = flags.find(1, pos + 1)


def _ideal_ranks(k: int, N: int) -> list:
    """Ranks of the ideal slices of degrees 0..N.  No row r * v exists below
    degree 3, so degrees 0..2 have rank 0, an empty window and no flags."""
    if N < 3:
        return [0] * (N + 1)
    widths = [_word_count(k, m) for m in range(N + 1)]
    lead = max(w for _, w in _relation_terms(k))
    # the rest of the lead after each border, a proper suffix also its prefix
    rests = [lead[b:] for b in range(1, len(lead)) if lead[-b:] == lead[:b]]
    degrees = [(0, b"", None)] * 3  # no row below degree 3: never tested
    out = [0] * 5  # degrees -2..2
    # the states of the words of degrees m-1 and m = n-3 (module docstring);
    # the empty word is free of the lead
    states = bytearray(0), bytearray(1)
    for n in range(3, N + 1):
        m = n - 3
        if m:  # degree m's window, lead * w, is empty below degree 3
            states = states[1], _containing(k, m, *states, lead)
        # lead * v holds the lead past its first letter where v does, or where
        # v starts with the rest of the lead after a border: raise 0 to 1 there
        flags = _mark(k, bytearray(states[1]), rests, m, 1) if rests else states[1]
        _degree_pivots(k, n, widths, degrees, flags)
        out.append(k * out[-1] + k * out[-2] + flags.count(0))
    return out[2:]


def _euler_flags(k: int, qdims) -> tuple:
    """dim A_n - k dim A_{n-1} - k dim A_{n-2} + dim A_{n-3} == [n == 0]."""
    q = [0, 0, 0, *qdims]  # q[n + 3] = dim A_n, zero below degree 0
    return tuple(
        q[n + 3] - k * q[n + 2] - k * q[n + 1] + q[n] == int(n == 0)
        for n in range(len(qdims))
    )


class OracleReport(Record):
    """Per-degree comparison of oracle dimensions against the closed form.

    Only the oracle's own dims are stored.  max_degree, quotient_dims
    (tensor - ideal) and the flags are derived from them on each read:
    series_match[n] compares quotient_dims against the closed-form quotient
    series, euler_ok[n] checks the cubic Euler identity on quotient_dims
    alone, and all_ok is both together.
    """

    #: every pivot leads with -1 (module docstring, rank policy)
    field_used = "integer"

    def __init__(self, betti_param: int, tensor_dims: GradedDims, ideal_dims: GradedDims):
        for n in range(3):
            if ideal_dims[n] != 0:
                raise InternalInconsistency(f"nonzero ideal dim at degree {_echo(n)} < 3")
        self.__dict__.update(
            betti_param=betti_param, tensor_dims=tensor_dims, ideal_dims=ideal_dims
        )

    @property
    def max_degree(self) -> int:
        return len(self.tensor_dims.dims) - 1

    @property
    def quotient_dims(self) -> GradedDims:
        pairs = zip(self.tensor_dims.dims, self.ideal_dims.dims)
        return GradedDims(tuple(t - i for t, i in pairs))

    @property
    def series_match(self) -> tuple:
        closed = quotient_series(self.betti_param, self.max_degree).coeffs
        return tuple(q == c for q, c in zip(self.quotient_dims.dims, closed))

    @property
    def euler_ok(self) -> tuple:
        return _euler_flags(self.betti_param, self.quotient_dims.dims)

    @property
    def all_ok(self) -> bool:
        return all(self.series_match) and all(self.euler_ok)


def quotient_dims_oracle(k: int, N: int, budget: Optional[int] = None) -> OracleReport:
    """Compute quotient dimensions to degree N by rank alone.

    The report compares them with the closed form (OracleReport).  Every
    degree from the relation's degree 3 up, where a matrix is built, has its
    width checked against the column budget (default DEFAULT_COLUMN_BUDGET)
    before any elimination.

    >>> quotient_dims_oracle(2, 5).ideal_dims.dims
    (0, 0, 0, 1, 4, 16)
    """
    _int_arg("alphabet parameter", k, 1)
    _int_arg("max degree", N, 0)
    budget = DEFAULT_COLUMN_BUDGET if budget is None else budget
    _int_arg("budget", budget, 1)

    tensor = [_columns(k, n, budget) if n >= 3 else _word_count(k, n) for n in range(N + 1)]
    return OracleReport(k, GradedDims(tuple(tensor)), GradedDims(tuple(_ideal_ranks(k, N))))


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
    _int_arg("alphabet parameter", k, 1)
    lead = (2 * k - 1, k - 1)  # the word (k + i, i) at i = k - 1
    # its first letter is above k - 1, the largest that starts an (i, k + i),
    # and above 2k - 2, the largest other k + i
    unique = lead[0] > k - 1 and lead[0] > 2 * k - 2
    text = "*".join(f"x{c + 1}" if c < k else f"y{c - k + 1}" for c in lead)
    return unique, text
