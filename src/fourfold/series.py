"""Exact truncated formal power series and the generating-series constructors.

Everything here is a polynomial in t truncated at an order N, with N + 1 int
coefficients, so TruncatedSeries(coeffs) derives N from their number.  The
public constructor checks every coefficient and accepts nothing else, so
neither a float, a bool nor a Fraction gets in.  Each named constructor
instead checks its scalar inputs before any work (k >= 1 and N >= 0 through
_int_arg, generators through _dims_by_degree) and computes its coefficients
by one integer recurrence, which on those inputs yields ints by
construction; it builds its result through _series, which does not check
them again.  quotient_series rolls its cubic one over three local
variables, and tensor_series on k generators in each of degrees 1 and 2 (the
free algebra of the quotient model) its two-term one over two, both at one
multiply per coefficient; _poly_reciprocal, the general 1/poly recurrence,
serves every other tensor generator set.  The general series arithmetic over
Fraction (product, reciprocal, logarithm) is not part of the package: it
lives with the tests in tests/refimpl.py, as the reference they compare these
recurrences against.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ._record import Record
from .errors import DomainError, InternalInconsistency, UngradedGenerator, _echo, _int_arg


class TruncatedSeries(Record):
    """A power series known exactly up to (and including) t^truncation_order.

    >>> s = TruncatedSeries((1, 2, 3))
    >>> s.truncation_order, s.coefficient(1)
    (2, 2)
    >>> str(s)
    '1 + 2*t + 3*t^2 + O(t^3)'
    """

    def __init__(self, coeffs: tuple):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("need at least 1 coefficient, got 0")
        for c in coeffs:
            _int_arg("coefficient", c)
        self.__dict__.update(coeffs=coeffs)

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        _int_arg("coefficient index", i)
        if not 0 <= i <= self.truncation_order:
            raise DomainError(
                f"coefficient index {_echo(i)} outside 0..{_echo(self.truncation_order)}"
            )
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


def _series(coeffs: list) -> TruncatedSeries:
    """TruncatedSeries(coeffs) without the per-coefficient check.

    Only the named constructors call it, after checking their own inputs:
    their integer recurrences on int inputs yield N + 1 ints by construction.
    """
    series = object.__new__(TruncatedSeries)
    series.__dict__.update(coeffs=tuple(coeffs))
    return series


class GradedDims(Record):
    """Degreewise dimensions of a graded vector space, indexed 0..N."""

    def __init__(self, dims: tuple):
        dims = tuple(dims)
        for d in dims:
            _int_arg("dimension", d, 0)
        self.__dict__.update(dims=dims)

    def __getitem__(self, i: int) -> int:
        """Dimension in degree i; 0 past the last listed degree."""
        _int_arg("degree", i)
        return self.dims[i] if 0 <= i < len(self.dims) else 0


def _dims_by_degree(dims: Mapping[int, int]) -> dict:
    """Generators as {degree: multiplicity}, nonzero entries only, validated.

    Every generator set passes through here: degrees and multiplicities pass
    _int_arg, multiplicities >= 0, and a degree with a nonzero multiplicity
    must be >= 1 (UngradedGenerator for degree 0).
    """
    if not isinstance(dims, Mapping):
        raise TypeError(f"generators must be a mapping, not {type(dims).__name__}")
    by_deg = {}
    for deg, mult in dims.items():
        _int_arg("degree", deg)
        _int_arg("multiplicity", mult, 0)
        if mult:
            if deg == 0:
                raise UngradedGenerator("degree-0 generators are not allowed")
            if deg < 0:
                raise DomainError(f"negative degree {_echo(deg)}")
            by_deg[deg] = mult
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
    by_deg = _dims_by_degree(dims)
    _int_arg("truncation order", N, 0)
    c = _power_sums(by_deg, N)
    # n a_n = sum_{j=1..n} c_j a_{n-j}
    a = [1] + [0] * N
    for n in range(1, N + 1):
        a[n], rem = divmod(sum(c[j] * a[n - j] for j in range(1, n + 1)), n)
        if rem:
            raise InternalInconsistency(f"product series coefficient {_echo(n)} is not integral")
    return _series(a)


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
    _int_arg("truncation order", N, 0)
    k = by_deg.get(1, 0)
    if by_deg.get(2, 0) != k or max(by_deg, default=0) > 2:
        den = [1] + [-by_deg.get(i, 0) for i in range(1, N + 1)]
        return _series(_poly_reciprocal(den, N))
    out = [1]
    prev, cur = 0, 1  # a_{n-2}, a_{n-1}
    for _ in range(N):
        prev, cur = cur, k * (cur + prev)
        out.append(cur)
    return _series(out)


def quotient_series(k: int, N: int) -> TruncatedSeries:
    """Dimension series 1/(1 - k t - k t^2 + t^3) of the loop-homology algebra.

    k is the number of 2-sphere x 3-sphere summands in the connected sum
    (one x-generator of degree 1 and one y-generator of degree 2 per summand,
    modulo the single cubic relation sum_i [x_i, y_i]).  The coefficients
    are the integer recurrence of 1/poly on the cubic, run over three locals
    with one multiply per coefficient,

        a_n = k (a_{n-1} + a_{n-2}) - a_{n-3}   (a_0 = 1, a_{<0} = 0),

    so a_1 = k and a_2 = k^2 + k.  `verify` checks them against the
    oracle's linear algebra.  k must be >= 1: the quotient model needs at
    least one summand, and at k = 0 the series 1/(1 + t^3) has negative
    coefficients.

    >>> quotient_series(2, 5).as_int_list()
    [1, 2, 6, 15, 40, 104]
    """
    _int_arg("k", k, 1)
    _int_arg("truncation order", N, 0)
    out = [1]
    x, y, z = 0, 0, 1  # a_{n-3}, a_{n-2}, a_{n-1}
    for _ in range(N):
        x, y, z = y, z, k * (y + z) - x
        out.append(z)
    return _series(out)

