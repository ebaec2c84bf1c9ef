"""Exact truncated formal power series and the generating-series constructors.

Everything here is a polynomial in t truncated at an explicit order N, with
int coefficients: a TruncatedSeries accepts nothing else, so neither a float
nor a Fraction gets in.  Each named constructor computes its coefficients by
one integer recurrence.  quotient_series rolls its cubic one over three local
variables, and tensor_series on k generators in each of degrees 1 and 2 (the
free algebra of the quotient model) its two-term one over two, both at one
multiply per coefficient; _poly_reciprocal, the general 1/poly recurrence,
serves every other tensor generator set.  The general series arithmetic over
Fraction (product, reciprocal, logarithm) is not part of the package: it
lives with the tests in tests/refimpl.py, as the reference they compare these
recurrences against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from ._record import Record
from .errors import DomainError, InternalInconsistency, UngradedGenerator

if TYPE_CHECKING:  # ranks imports this module, so pbw_series imports it late
    from .ranks import RankTable


class TruncatedSeries(Record):
    """A power series known exactly up to (and including) t^truncation_order.

    >>> s = TruncatedSeries((1, 2, 3), 2)
    >>> s.coefficient(1)
    2
    >>> str(s)
    '1 + 2*t + 3*t^2 + O(t^3)'
    """

    def __init__(self, coeffs: tuple, truncation_order: int):
        if truncation_order < 0:
            raise DomainError("truncation order must be >= 0")
        coeffs = tuple(coeffs)
        if len(coeffs) != truncation_order + 1:
            raise DomainError(
                f"need {truncation_order + 1} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if not isinstance(c, int):
                raise DomainError(f"coefficient {c!r} is not an int")
        self.__dict__.update(coeffs=coeffs, truncation_order=truncation_order)

    def coefficient(self, i: int) -> int:
        if not 0 <= i <= self.truncation_order:
            raise DomainError(f"coefficient index {i} outside 0..{self.truncation_order}")
        return self.coeffs[i]

    def as_int_list(self) -> list:
        return list(self.coeffs)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.truncation_order + 1})"


class GradedDims(Record):
    """Degreewise dimensions of a graded vector space, indexed 0..N."""

    def __init__(self, dims: tuple):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise DomainError(f"negative dimension in {dims}")
        self.__dict__.update(dims=dims)

    def __getitem__(self, i: int) -> int:
        """Dimension in degree i; 0 past the last listed degree."""
        return self.dims[i] if 0 <= i < len(self.dims) else 0


def _dims_by_degree(dims: Mapping[int, int]) -> dict:
    """Generators as {degree: multiplicity}, nonzero entries only, validated.

    Every generator set passes through here: degrees must be >= 1
    (UngradedGenerator for degree 0) and multiplicities >= 0.
    """
    if not isinstance(dims, Mapping):
        raise TypeError(f"generators must be a mapping, not {type(dims).__name__}")
    by_deg = {int(i): int(d) for i, d in dims.items() if d}
    for deg, mult in by_deg.items():
        if deg == 0:
            raise UngradedGenerator("degree-0 generators are not allowed")
        if deg < 0:
            raise DomainError(f"negative degree {deg}")
        if mult < 0:
            raise DomainError(f"negative multiplicity {mult} in degree {deg}")
    return by_deg


# -- generating-series constructors ----------------------------------------


def _poly_reciprocal(poly: Sequence[int], N: int) -> list:
    """Coefficients 0..N of 1/poly for an integer polynomial with poly[0] = 1.

    r_0 = 1 and r_n = -sum_{i=1..min(n, deg poly)} poly[i] r_{n-i}.  Only
    tensor_series on generators other than m_1 = m_2 calls it.
    """
    terms = [(-i, -c) for i, c in enumerate(poly) if i and c]
    d = -terms[-1][0] if terms else 0  # r_n sits at out[d + n], r_{<0} = 0
    out = [0] * d + [1] + [0] * N
    for n in range(d + 1, d + N + 1):
        acc = 0
        for i, c in terms:
            acc += c * out[n + i]
        out[n] = acc
    return out[d:]


def _power_sums(by_deg: Mapping[int, int], N: int) -> list:
    """Power sums c_0..c_N (t d/dt log) of free_comm_series(by_deg, N).

    As prod_j (1 - t^j)^(-e_j), using (1 + t^i) = (1 - t^(2i)) / (1 - t^i),
    c_j = sum_{d|j} d e_d.
    """
    e = [0] * (N + 1)
    for deg, mult in by_deg.items():
        if deg <= N:
            e[deg] += mult
            if deg % 2 == 1 and 2 * deg <= N:
                e[2 * deg] -= mult
    c = [0] * (N + 1)
    for d in range(1, N + 1):
        if e[d]:
            for j in range(d, N + 1, d):
                c[j] += d * e[d]
    return c


def free_comm_series(dims: Mapping[int, int], N: int) -> TruncatedSeries:
    """Hilbert series of the free graded-commutative algebra on given generators.

    Odd-degree generators contribute exterior factors (1 + t^i), even-degree
    ones polynomial factors 1/(1 - t^i):

        prod_{i odd} (1 + t^i)^dims[i] / prod_{i even} (1 - t^i)^dims[i]

    Degree-0 generators are rejected: the construction needs V_0 = 0.

    >>> free_comm_series({2: 1}, 6).as_int_list()
    [1, 0, 1, 0, 1, 0, 1]
    >>> free_comm_series({1: 1}, 3).as_int_list()
    [1, 1, 0, 0]
    """
    c = _power_sums(_dims_by_degree(dims), N)
    # n a_n = sum_{j=1..n} c_j a_{n-j}
    a = [1] + [0] * N
    for n in range(1, N + 1):
        a[n], rem = divmod(sum(c[j] * a[n - j] for j in range(1, n + 1)), n)
        if rem:
            raise InternalInconsistency(f"product series coefficient {n} is not integral")
    return TruncatedSeries(a, N)


def tensor_series(dims: Mapping[int, int], N: int) -> TruncatedSeries:
    """Hilbert series 1/(1 - sum_i dims[i] t^i) of the free associative algebra.

    The n-th coefficient counts words over the graded alphabet with total
    degree n (one letter of each listed multiplicity per degree).  With k
    generators in degree 1 and k in degree 2 and no others it is
    a_n = k (a_{n-1} + a_{n-2}) over two locals, one multiply per coefficient;
    any other generator set takes the general _poly_reciprocal.

    >>> tensor_series({1: 2, 2: 2}, 3).as_int_list()
    [1, 2, 6, 16]
    """
    by_deg = _dims_by_degree(dims)
    k = by_deg.get(1, 0)
    if by_deg.get(2, 0) != k or max(by_deg, default=0) > 2:
        den = [1] + [-by_deg.get(i, 0) for i in range(1, N + 1)]
        return TruncatedSeries(_poly_reciprocal(den, N), N)
    out = [1]
    prev, cur = 0, 1  # a_{n-2}, a_{n-1}
    for _ in range(N):
        prev, cur = cur, k * (cur + prev)
        out.append(cur)
    return TruncatedSeries(out, N)


def quotient_series(k: int, N: int) -> TruncatedSeries:
    """Dimension series 1/(1 - k t - k t^2 + t^3) of the loop-homology algebra.

    k is the number of 2-sphere x 3-sphere summands in the connected sum
    (one x-generator of degree 1 and one y-generator of degree 2 per summand,
    modulo the single cubic relation sum_i [x_i, y_i]).  The coefficients
    are the integer recurrence of 1/poly on the cubic, run over three locals
    with one multiply per coefficient,

        a_n = k (a_{n-1} + a_{n-2}) - a_{n-3}   (a_0 = 1, a_{<0} = 0),

    so a_1 = k and a_2 = k^2 + k.  `verify` checks them against the
    oracle's linear algebra.

    >>> quotient_series(2, 5).as_int_list()
    [1, 2, 6, 15, 40, 104]
    """
    if k < 1:
        raise DomainError(
            "k must be >= 1: the quotient model needs at least one summand, "
            "and at k = 0 the series 1/(1 + t^3) has negative coefficients"
        )
    out = [1]
    x, y, z = 0, 0, 1  # a_{n-3}, a_{n-2}, a_{n-1}
    for _ in range(N):
        x, y, z = y, z, k * (y + z) - x
        out.append(z)
    return TruncatedSeries(out, N)


def pbw_series(table: RankTable, N: int) -> TruncatedSeries:
    """Product series of a graded Lie algebra's universal envelope.

    Takes the ranks m_n of a RankTable as the multiplicities of degree n
    and forms the free graded-commutative series on them: odd degrees give
    exterior factors, even degrees polynomial factors.  (On a {degree: rank}
    mapping that is free_comm_series.)

    >>> from fourfold.ranks import homotopy_ranks
    >>> pbw_series(homotopy_ranks(1, 5), 5).as_int_list()
    [1, 1, 0, 0, 1, 1]
    """
    from .ranks import RankTable

    if not isinstance(table, RankTable):
        raise TypeError(f"pbw_series takes a RankTable, not {type(table).__name__}")
    return free_comm_series(dict(enumerate(table.ranks, start=1)), N)
