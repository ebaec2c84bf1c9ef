"""Exact truncated formal power series and the generating-series constructors.

Everything here is a polynomial in t truncated at an explicit order N, with
exact coefficients: int or fractions.Fraction, stored as given.  No floats,
no rounding.  The named constructors compute int coefficients by integer
recurrences and hand them to the caller unchanged; the general arithmetic
(series_mul, series_reciprocal, series_log) works over Fraction and is the
reference the tests compare the recurrences against.  `fractions` is
imported only where a Fraction is made or checked, so the integer
constructors never load it.

Binary operations truncate to the minimum of the two orders.  Operations never
extend a truncation order.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Union

from ._record import Record
from .errors import (
    DomainError,
    InternalInconsistency,
    LogDomain,
    NonInvertibleSeries,
    UngradedGenerator,
)

RationalLike = Union[int, "Fraction"]


class TruncatedSeries(Record):
    """A power series known exactly up to (and including) t^truncation_order.

    >>> s = TruncatedSeries.from_coefficients([1, 2, 3], 2)
    >>> s.coefficient(1)
    2
    >>> s + s == TruncatedSeries.from_coefficients([2, 4, 6], 2)
    True
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
                from fractions import Fraction

                if not isinstance(c, Fraction):
                    raise DomainError(f"coefficient {c!r} is neither int nor Fraction")
        self.__dict__.update(coeffs=coeffs, truncation_order=truncation_order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[RationalLike], order: int) -> "TruncatedSeries":
        """Series from the low-degree coefficients; missing ones are zero."""
        cs = list(coeffs)
        return cls(cs + [0] * (order + 1 - len(cs)), order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([1], order)

    @classmethod
    def monomial(cls, degree: int, order: int, coeff: RationalLike = 1) -> "TruncatedSeries":
        """coeff * t^degree, truncated at order (zero if degree > order)."""
        cs = [0] * (order + 1)
        if 0 <= degree <= order:
            cs[degree] = coeff
        return cls(tuple(cs), order)

    # -- accessors ---------------------------------------------------------

    def coefficient(self, i: int) -> RationalLike:
        if not 0 <= i <= self.truncation_order:
            raise DomainError(f"coefficient index {i} outside 0..{self.truncation_order}")
        return self.coeffs[i]

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above the given (smaller or equal) order."""
        if order > self.truncation_order:
            raise DomainError("cannot extend a truncation order")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def as_int_list(self) -> list:
        """Coefficients as plain ints; error if any denominator is not 1."""
        if not self.is_integral():
            raise InternalInconsistency(f"series is not integral: {self.coeffs}")
        return [int(c) for c in self.coeffs]

    # -- operator sugar (delegates to the module-level functions) ----------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_add(self, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_add(self, series_scale(other, -1))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_mul(self, other)

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

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"truncation_order": N, "coefficients": [...]} with string coefficients.

        Integral coefficients render as plain decimal strings, others as "p/q".
        """
        return {
            "truncation_order": self.truncation_order,
            "coefficients": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "TruncatedSeries":
        from fractions import Fraction

        order = int(doc["truncation_order"])
        coeffs = [Fraction(s) for s in doc["coefficients"]]
        return cls(tuple(coeffs), order)


class GradedDims(Record):
    """Degreewise dimensions of a graded vector space, indexed 0..N."""

    def __init__(self, dims: tuple):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise DomainError(f"negative dimension in {dims}")
        self.__dict__.update(dims=dims)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], max_degree: int) -> "GradedDims":
        """GradedDims({1: 2, 2: 2}, 4) -> dims (0, 2, 2, 0, 0)."""
        dims = [0] * (max_degree + 1)
        for deg, mult in mapping.items():
            if deg < 0:
                raise DomainError(f"negative degree {deg}")
            if 0 <= deg <= max_degree:
                dims[deg] = int(mult)
        return cls(tuple(dims))

    def degree_dim(self, i: int) -> int:
        if 0 <= i < len(self.dims):
            return self.dims[i]
        return 0

    def max_degree(self) -> int:
        return len(self.dims) - 1

    def __getitem__(self, i: int) -> int:
        return self.degree_dim(i)


DimsLike = Union[GradedDims, Mapping[int, int]]


def _dims_by_degree(dims: DimsLike) -> dict:
    """Generators as {degree: multiplicity}, nonzero entries only, validated.

    Every generator set passes through here: degrees must be >= 1
    (UngradedGenerator for degree 0) and multiplicities >= 0.
    """
    if isinstance(dims, GradedDims):
        dims = dict(enumerate(dims.dims))
    elif not isinstance(dims, Mapping):
        raise TypeError(
            f"generators must be a mapping or GradedDims, not {type(dims).__name__}"
        )
    by_deg = {int(i): int(d) for i, d in dims.items() if d}
    for deg, mult in by_deg.items():
        if deg == 0:
            raise UngradedGenerator("degree-0 generators are not allowed")
        if deg < 0:
            raise DomainError(f"negative degree {deg}")
        if mult < 0:
            raise DomainError(f"negative multiplicity {mult} in degree {deg}")
    return by_deg


# -- arithmetic -------------------------------------------------------------


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum, truncated at the smaller order."""
    n = min(a.truncation_order, b.truncation_order)
    return TruncatedSeries(
        tuple(a.coeffs[i] + b.coeffs[i] for i in range(n + 1)), n
    )


def series_scale(a: TruncatedSeries, c: RationalLike) -> TruncatedSeries:
    return TruncatedSeries(tuple(x * c for x in a.coeffs), a.truncation_order)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the smaller order."""
    n = min(a.truncation_order, b.truncation_order)
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a.coeffs[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj != 0:
                out[i + j] += ai * bj
    return TruncatedSeries(tuple(out), n)


def series_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """The series r with a*r = 1 up to the truncation order.

    >>> one_minus_t = TruncatedSeries.from_coefficients([1, -1], 4)
    >>> series_reciprocal(one_minus_t).coeffs == (1, 1, 1, 1, 1)
    True
    """
    from fractions import Fraction

    n = a.truncation_order
    a0 = a.coeffs[0]
    if a0 == 0:
        raise NonInvertibleSeries("constant term is zero")
    inv0 = Fraction(1) / a0
    out = [Fraction(0)] * (n + 1)
    out[0] = inv0
    # r_m = -(1/a_0) * sum_{i=1..m} a_i r_{m-i}
    for m in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            if a.coeffs[i] != 0:
                acc += a.coeffs[i] * out[m - i]
        out[m] = -inv0 * acc
    return TruncatedSeries(tuple(out), n)


def series_log(a: TruncatedSeries) -> TruncatedSeries:
    """log(a) = -sum_{m>=1} (1-a)^m / m, for series with constant term 1."""
    from fractions import Fraction

    n = a.truncation_order
    if a.coeffs[0] != 1:
        raise LogDomain(f"constant term must be 1, got {a.coeffs[0]}")
    # u = 1 - a has valuation >= 1, so u^m contributes nothing past m = n
    u = TruncatedSeries(
        tuple(-c if i else Fraction(0) for i, c in enumerate(a.coeffs)), n
    )
    out = TruncatedSeries.zero(n)
    power = TruncatedSeries.one(n)
    for m in range(1, n + 1):
        power = series_mul(power, u)
        out = series_add(out, series_scale(power, Fraction(-1, m)))
    return out


# -- generating-series constructors ----------------------------------------


def _poly_reciprocal(poly: Sequence[int], N: int) -> list:
    """Coefficients 0..N of 1/poly for an integer polynomial with poly[0] = 1.

    r_0 = 1 and r_n = -sum_{i=1..min(n, deg poly)} poly[i] r_{n-i}.
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


def free_comm_series(dims: DimsLike, N: int) -> TruncatedSeries:
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
    # As prod_j (1 - t^j)^(-e_j), using (1 + t^i) = (1 - t^(2i)) / (1 - t^i);
    # then n a_n = sum_{j=1..n} c_j a_{n-j} with c_j = sum_{d|j} d e_d.
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
    a = [1] + [0] * N
    for n in range(1, N + 1):
        a[n], rem = divmod(sum(c[j] * a[n - j] for j in range(1, n + 1)), n)
        if rem:
            raise InternalInconsistency(f"product series coefficient {n} is not integral")
    return TruncatedSeries.from_coefficients(a, N)


def tensor_series(dims: DimsLike, N: int) -> TruncatedSeries:
    """Hilbert series 1/(1 - sum_i dims[i] t^i) of the free associative algebra.

    The n-th coefficient counts words over the graded alphabet with total
    degree n (one letter of each listed multiplicity per degree).

    >>> tensor_series({1: 2, 2: 2}, 3).as_int_list()
    [1, 2, 6, 16]
    """
    den = [1] + [0] * N
    for deg, mult in _dims_by_degree(dims).items():
        if deg <= N:
            den[deg] = -mult
    return TruncatedSeries.from_coefficients(_poly_reciprocal(den, N), N)


def quotient_series(k: int, N: int) -> TruncatedSeries:
    """Dimension series 1/(1 - k t - k t^2 + t^3) of the loop-homology algebra.

    k is the number of 2-sphere x 3-sphere summands in the connected sum
    (one x-generator of degree 1 and one y-generator of degree 2 per summand,
    modulo the single cubic relation sum_i [x_i, y_i]).  The coefficients
    are the integer recurrence of 1/poly on the cubic,

        a_n = k a_{n-1} + k a_{n-2} - a_{n-3}   (a_0 = 1, a_{<0} = 0),

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
    return TruncatedSeries.from_coefficients(_poly_reciprocal([1, -k, -k, 1], N), N)


def pbw_series(ranks, N: int) -> TruncatedSeries:
    """Product series of a graded Lie algebra's universal envelope.

    Takes rank multiplicities by degree (a RankTable or a {degree: rank}
    mapping; degrees not listed count as 0) and forms the free
    graded-commutative series on them: odd degrees give exterior factors,
    even degrees polynomial factors.

    >>> pbw_series({1: 1, 4: 1}, 5).as_int_list()
    [1, 1, 0, 0, 1, 1]
    """
    if not isinstance(ranks, (GradedDims, Mapping)):
        # RankTable-like: .ranks is m_1..m_N with m_n at index n-1
        ranks = {i + 1: m for i, m in enumerate(ranks.ranks)}
    return free_comm_series(ranks, N)
