"""Brute-force verification of the loop-homology quotient dimensions.

Words over the alphabet x_1..x_k (degree 1), y_1..y_k (degree 2) are stored
as tuples of letter codes: x_i -> i-1, y_i -> k+i-1.  The code order realizes
the letter order x_1 < ... < x_k < y_1 < ... < y_k, and plain tuple comparison
is the left-lexicographic monomial order (two distinct words of equal degree
are never prefixes of each other, so lex is total there).

The two-sided ideal is generated by the single degree-3 element
r = sum_i (x_i y_i - y_i x_i).  Its degree-n slice is spanned by the rows
u * r * v over all word pairs with deg(u) + deg(v) = n - 3, expanded in the
degree-n word basis by concatenation; the quotient dimension is then

    (number of degree-n words) - rank(row span).

No rewriting or normal forms anywhere: dimensions come from exact ranks only.

Columns are the lex positions of the degree-n words, computed from word
counts alone: a letter c met with degree `rem` still to spell is preceded by
min(c, k) * W(rem - 1) + max(0, c - k) * W(rem - 2) words, where W counts the
words of a degree.  So the rows are streamed without building any degree-n
word or a word-to-column index.

Rank policy: one elimination over the integers, pivoting on the max column.
While every new pivot row leads with +1 or -1, each reduction subtracts an
integer multiple of a pivot row, so the entries stay integers.  Then every
input row is an integer combination of the pivot rows and each pivot row one
of the input rows, and pivot rows that lead with +-1 in distinct columns stay
independent modulo every prime: the rank is exactly the rank over the
rationals and over every prime field at once.  A pivot row that leads with
any other value is kept with the Fraction inverse of its lead; the rows it
reduces carry Fractions from then on, the rank is still the exact rational
rank, and the degree is reported as "rational" instead of "integer".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import DomainError, InternalInconsistency, ResourceLimit
from .series import GradedDims, quotient_series

#: Largest admissible matrix width (= number of words in one degree).
#: 50,000 columns lets k = 3 reach degree 8 (35,316 columns) and refuses 9.
DEFAULT_COLUMN_BUDGET = 50_000

@dataclass(frozen=True, order=True)
class Word:
    """A word in the letters x_1..x_k, y_1..y_k, compared lexicographically."""

    letters: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"alphabet parameter must be >= 1, got {self.k}")
        if any(not 0 <= c < 2 * self.k for c in self.letters):
            raise DomainError(f"letter code outside alphabet of size 2k={2 * self.k}")

    @property
    def degree(self) -> int:
        return sum(1 if c < self.k else 2 for c in self.letters)

    def __str__(self):
        if not self.letters:
            return "1"
        return "*".join(
            f"x{c + 1}" if c < self.k else f"y{c - self.k + 1}" for c in self.letters
        )


@dataclass(frozen=True)
class RelationElement:
    """A homogeneous signed combination of words."""

    terms: tuple  # ((coeff, Word), ...)

    def __post_init__(self):
        degs = {w.degree for _, w in self.terms}
        if len(degs) > 1:
            raise DomainError(f"inhomogeneous terms, degrees {sorted(degs)}")

    @property
    def degree(self) -> int:
        return self.terms[0][1].degree if self.terms else 0

    def __str__(self):
        parts = []
        for c, w in self.terms:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            parts.append(f"{sign} {'' if mag == 1 else str(mag) + '*'}{w}")
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else s


def canonical_relation(k: int) -> RelationElement:
    """r = sum_i (x_i y_i - y_i x_i): 2k terms, coefficients +-1, degree 3."""
    if k < 1:
        raise DomainError(f"alphabet parameter must be >= 1, got {k}")
    terms = []
    for i in range(k):
        terms.append((1, Word((i, k + i), k)))
        terms.append((-1, Word((k + i, i), k)))
    return RelationElement(tuple(terms))


def _words(k: int, n: int) -> list:
    """All letter-code tuples of total degree n, in lexicographic order."""
    # A word is its first letter followed by a shorter word, so lex order is
    # the first letter, then the rest in lex order.
    by_degree = {-1: [], 0: [()]}
    for m in range(1, n + 1):
        by_degree[m] = [
            (c,) + rest for c in range(2 * k) for rest in by_degree[m - 1 - (c >= k)]
        ]
    return by_degree[n]


@lru_cache(maxsize=None)
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


def enumerate_words(k: int, n: int) -> list:
    """All degree-n words in monomial order.

    >>> [str(w) for w in enumerate_words(1, 2)]
    ['x1*x1', 'y1']
    """
    if k < 1:
        raise DomainError(f"alphabet parameter must be >= 1, got {k}")
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    return [Word(t, k) for t in _words(k, n)]


def _word_offset(k: int, letters, rem: int) -> int:
    """Lex position, among the degree-rem words, of the first one that starts
    with `letters` (of `letters` itself when its degree is rem)."""
    pos = 0
    for c in letters:
        # skip the words that start with a smaller x (degree 1) or y (degree 2)
        pos += min(c, k) * _word_count(k, rem - 1) + max(0, c - k) * _word_count(k, rem - 2)
        rem -= 1 if c < k else 2
    return pos


def _relation_rows(k: int, n: int):
    """Yield the rows of the degree-n ideal slice as {column: +-1} dicts.

    Columns index the degree-n words in lex order.  Deterministic row order:
    left degree ascending, then u lex, then v lex.
    """
    rel = [(c, w.letters) for c, w in canonical_relation(k).terms]
    for a in range(n - 2):
        b = n - 3 - a
        # the column of u * w * v is offset(u) + offset(w) + (position of v)
        mids = [(_word_offset(k, w, b + 3), c) for c, w in rel]
        width = _word_count(k, b)
        for u in _words(k, a):
            pu = _word_offset(k, u, n)
            for pos in range(pu, pu + width):
                yield {pos + m: c for m, c in mids}


def _sparse_rank_exact(rows) -> tuple:
    """(rank over the rationals, whether every pivot led with +-1).

    Rows are {column: nonzero int} dicts.  The function takes them over: it
    reduces each row in place and keeps it as a pivot row, so a caller must
    pass rows it does not use again.  Max-column pivoting follows the
    leading-monomial direction of the graded lex order, which keeps fill-in
    low for these relation matrices.
    """
    pivots = {}  # column -> (pivot row, 1 / its leading coefficient)
    integral = True
    for row in rows:
        while row:
            c = max(row)
            coef = row[c]
            piv = pivots.get(c)
            if piv is None:
                if coef == 1 or coef == -1:
                    pivots[c] = (row, coef)
                else:
                    pivots[c] = (row, 1 / Fraction(coef))
                    integral = False
                break
            prow, inv = piv
            mult = coef * inv
            for cc, vv in prow.items():
                nv = row.get(cc, 0) - mult * vv
                if nv:
                    row[cc] = nv
                else:
                    del row[cc]
    return len(pivots), integral


def ideal_degree_dim(k: int, n: int, budget: Optional[int] = None) -> int:
    """Dimension of the degree-n slice of the two-sided ideal (r).

    >>> ideal_degree_dim(2, 3)
    1
    >>> ideal_degree_dim(2, 4)
    4
    """
    if k < 1:
        raise DomainError(f"alphabet parameter must be >= 1, got {k}")
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if n >= 3:  # below the relation's degree there is no matrix to build
        _columns(k, n, DEFAULT_COLUMN_BUDGET if budget is None else budget)
    return _sparse_rank_exact(_relation_rows(k, n))[0]


@dataclass(frozen=True)
class OracleReport:
    """Per-degree comparison of oracle dimensions against the closed form."""

    betti_param: int
    max_degree: int
    tensor_dims: GradedDims
    ideal_dims: GradedDims
    quotient_dims: GradedDims
    series_match: tuple
    euler_ok: tuple
    field_used: str

    def __post_init__(self):
        for n in range(self.max_degree + 1):
            if self.quotient_dims[n] != self.tensor_dims[n] - self.ideal_dims[n]:
                raise InternalInconsistency(
                    f"quotient dim at degree {n} is not tensor - ideal"
                )
            if n < 3 and self.ideal_dims[n] != 0:
                raise InternalInconsistency(f"nonzero ideal dim at degree {n} < 3")

    @property
    def all_ok(self) -> bool:
        return all(self.series_match) and all(self.euler_ok)

    def to_json_dict(self) -> dict:
        return {
            "betti_param": self.betti_param,
            "max_degree": self.max_degree,
            "tensor_dims": list(self.tensor_dims.dims),
            "ideal_dims": list(self.ideal_dims.dims),
            "quotient_dims": list(self.quotient_dims.dims),
            "series_match": list(self.series_match),
            "euler_ok": list(self.euler_ok),
            "field_used": self.field_used,
        }


def _euler_flags(k: int, qdims) -> tuple:
    """dim A_n - k dim A_{n-1} - k dim A_{n-2} + dim A_{n-3} == [n == 0]."""

    def q(n):
        return qdims[n] if 0 <= n < len(qdims) else 0

    flags = []
    for n in range(len(qdims)):
        lhs = q(n) - k * q(n - 1) - k * q(n - 2) + q(n - 3)
        flags.append(lhs == (1 if n == 0 else 0))
    return tuple(flags)


def quotient_dims_oracle(k: int, N: int, budget: Optional[int] = None) -> OracleReport:
    """Compute quotient dimensions to degree N by rank alone and compare.

    series_match[n] compares against the closed-form quotient series;
    euler_ok[n] checks the cubic Euler identity using oracle dims only.
    """
    if k < 1:
        raise DomainError(f"alphabet parameter must be >= 1, got {k}")
    if N < 0:
        raise DomainError(f"max degree must be >= 0, got {N}")
    budget = DEFAULT_COLUMN_BUDGET if budget is None else budget

    # every degree's width first, so an over-budget run does no elimination
    tensor = [_columns(k, n, budget) for n in range(N + 1)]
    ranks = [_sparse_rank_exact(_relation_rows(k, n)) for n in range(N + 1)]
    ideal = [rank for rank, _ in ranks]
    quotient = [t - i for t, i in zip(tensor, ideal)]

    closed = quotient_series(k, N).coeffs
    series_match = tuple(quotient[n] == closed[n] for n in range(N + 1))
    euler_ok = _euler_flags(k, quotient)

    return OracleReport(
        betti_param=k,
        max_degree=N,
        tensor_dims=GradedDims(tuple(tensor)),
        ideal_dims=GradedDims(tuple(ideal)),
        quotient_dims=GradedDims(tuple(quotient)),
        series_match=series_match,
        euler_ok=euler_ok,
        field_used="integer" if all(ok for _, ok in ranks) else "rational",
    )


def euler_identity_check(report: OracleReport) -> tuple:
    """Re-derive the per-degree Euler identity flags from a report's dims."""
    return _euler_flags(report.betti_param, report.quotient_dims.dims)


def koszul_leading_monomial_check(k: int) -> tuple:
    """(unique-leading-monomial flag, the leading Word) for the relation r.

    The expected leading word under x_1 < ... < x_k < y_1 < ... < y_k is
    y_k x_k, and it must be the unique maximum among r's words.

    >>> ok, lead = koszul_leading_monomial_check(3)
    >>> ok, str(lead)
    (True, 'y3*x3')
    """
    rel = canonical_relation(k)
    words = [w for _, w in rel.terms]
    lead = max(words)
    unique = sum(1 for w in words if w == lead) == 1
    expected = Word((2 * k - 1, k - 1), k)
    return (unique and lead == expected), lead
