"""Rational homotopy ranks of simply connected closed 4-manifolds.

The whole computation is driven by one integer: the second Betti number b2 = k.
For k >= 2 the rank of pi_{n+1} tensor Q is

    m_n(k) = -sum_{d|n} (-1)^(n + n/d) mu(d) lambda_{n/d} / d

where lambda_n is the t^n coefficient of log(1 - k t + t^2).  Since
lambda_n = -L_n / n for the Lucas sequence L_0 = 2, L_1 = k,
L_n = k L_{n-1} - L_{n-2}, this is the necklace formula

    m_n(k) = (1/n) sum_{d|n} (-1)^(n + n/d) mu(d) L_{n/d}

in pure integers.  The sign is (-1)^n (-1)^j with j = n/d, so n m_n is
(-1)^n h_n for h the Moebius inversion of g_j = (-1)^j L_j = L_j(-k), which
one in-place sieve of O(N log N) big-integer subtractions computes.  Division
by n must be exact and the result nonnegative; else it is a bug and raises.

Public parameter convention: every function here takes b2 itself.  The
closed-form polynomials for low degrees are internally evaluated at b2 - 1;
that reindexing lives in one place (_closed_form) with its own tests, because
it is the easiest place to slip.
"""

from __future__ import annotations

from typing import Optional

from ._record import Record
from .errors import DomainError, InternalInconsistency
from .series import _poly_reciprocal, pbw_series, quotient_series

#: Working precision (decimal digits) for the growth base beta.  The residual
#: check probes n = 60 against a 1e-6 tolerance; 50+ digits leaves headroom.
GROWTH_PRECISION = 60


def _lucas(k: int, N: int) -> list:
    """L_0..L_N with L_0 = 2, L_1 = k, L_n = k L_{n-1} - L_{n-2}."""
    lucas = [2, k]
    for _ in range(2, N + 1):
        lucas.append(k * lucas[-1] - lucas[-2])
    return lucas


class RankTable(Record):
    """Ranks m_1..m_N where m_n = rank of pi_{n+1} tensor Q at b2 = betti."""

    def __init__(self, betti: int, max_degree: int, ranks: tuple):
        self.__dict__.update(betti=betti, max_degree=max_degree, ranks=ranks)

    def rank(self, n: int) -> int:
        """m_n for 1 <= n <= max_degree."""
        if not 1 <= n <= self.max_degree:
            raise DomainError(f"degree {n} outside 1..{self.max_degree}")
        return self.ranks[n - 1]

    def to_json_dict(self) -> dict:
        return {
            "betti": self.betti,
            "ranks": {f"pi_{n + 1}": m for n, m in enumerate(self.ranks, start=1)},
        }

    def to_csv(self) -> str:
        lines = ["degree,rank"]
        for n, m in enumerate(self.ranks, start=1):
            lines.append(f"{n + 1},{m}")
        return "\n".join(lines) + "\n"


# The b2 = 1 manifolds are rationally elliptic with one generator in
# degree 2 and one in degree 5 (in m-table indexing: degrees 1 and 4).
# The k >= 2 derivation needs at least one summand in the associated
# connected sum, so this case is returned as a fixed table instead.
_ELLIPTIC_B2_1 = (1, 0, 0, 1)


def homotopy_ranks(betti: int, N: int) -> RankTable:
    """Rank table m_1..m_N for second Betti number betti.

    >>> homotopy_ranks(3, 6).ranks
    (3, 5, 5, 10, 24, 55)
    >>> homotopy_ranks(2, 6).ranks
    (2, 2, 0, 0, 0, 0)
    """
    if betti < 1:
        raise DomainError(f"second Betti number must be >= 1, got {betti}")
    if N < 1:
        raise DomainError(f"max degree must be >= 1, got {N}")
    k = betti
    if k == 1:
        ranks = tuple(_ELLIPTIC_B2_1[n - 1] if n <= 4 else 0 for n in range(1, N + 1))
        return RankTable(betti=1, max_degree=N, ranks=ranks)

    # h becomes the Moebius inversion of g_j = L_j(-k); h_j is final at step j
    h = _lucas(-k, N)
    for j in range(1, N // 2 + 1):
        hj = h[j]
        for i in range(2 * j, N + 1, j):
            h[i] -= hj
    ranks = []
    for n in range(1, N + 1):
        acc = -h[n] if n % 2 else h[n]  # n m_n = (-1)^n h_n
        m_n, rem = divmod(acc, n)
        if rem or m_n < 0:
            raise InternalInconsistency(
                f"m_{n}({k}) = {acc}/{n} is not a nonnegative integer; "
                "sign convention violated"
            )
        ranks.append(m_n)
    # anchors forced independently of the inversion: m_1 by Hurewicz,
    # m_2 by the degree-3 closed form
    if ranks[0] != k:
        raise InternalInconsistency(f"m_1({k}) = {ranks[0]}, expected {k}")
    if N >= 2 and ranks[1] != (k - 1) * (k + 2) // 2:
        raise InternalInconsistency(
            f"m_2({k}) = {ranks[1]}, expected {(k - 1) * (k + 2) // 2}"
        )
    return RankTable(betti=betti, max_degree=N, ranks=tuple(ranks))


def _closed_form(j: int, c: int) -> int:
    """Low-degree closed forms at internal parameter c (= b2 - 1).

    Index j matches the m-table: m_j is the rank of pi_{j+1}.
    """
    if j == 2:
        num = c * (c + 3)
        den = 2
    elif j == 3:
        num = (c - 1) * (c + 1) * (c + 3)
        den = 3
    elif j == 4:
        num = c * (c - 1) * (c + 2) * (c + 3)
        den = 4
    elif j == 5:
        num = c * (c - 1) * (c + 1) * (c + 2) * (c + 3)
        den = 5
    elif j == 6:
        num = c * (c - 1) * (c + 1) * (c + 3) * (c * c + 3 * c + 1)
        den = 6
    else:
        raise DomainError(f"no closed form for degree {j}; supported range is 2..6")
    if num % den:
        raise InternalInconsistency(f"closed form at j={j}, c={c} is not integral")
    return num // den


def rank_polynomial_eval(degree: int, betti: int) -> int:
    """Closed-form rank m_degree for b2 = betti, degrees 2..6 only.

    Must agree with homotopy_ranks(betti, N).rank(degree); the acceptance
    suite asserts this.

    >>> rank_polynomial_eval(6, 3)
    55
    """
    if not 2 <= degree <= 6:
        raise DomainError(f"degree {degree} outside the closed-form range 2..6")
    if betti < 3:
        raise DomainError(f"closed forms need b2 >= 3, got {betti}")
    return _closed_form(degree, betti - 1)


PBW_PASS = "pass"
PBW_FAIL = "fail"
PBW_NOT_APPLICABLE = "not-applicable"


class PbwCheck(Record):
    """Outcome of the two product-series identities."""

    def __init__(self, status: str, first_failure: Optional[int] = None):
        # status: pass | fail | not-applicable
        self.__dict__.update(status=status, first_failure=first_failure)

    def __bool__(self):
        return self.status != PBW_FAIL


def pbw_identity_check(betti: int, N: int) -> PbwCheck:
    """Check both product-series identities for the computed rank table.

    Identity 1: the product series of the ranks at b2 = k equals
    1/(1 - k t + t^2) up to order N.

    Identity 2: replacing m_1 by k - 1 (the l-table of the associated
    connected sum of k - 1 summands) gives the quotient algebra series
    at parameter k - 1.

    Not applicable at b2 = 1: identity 1's right side 1/(1 - t + t^2) has
    negative coefficients there, and identity 2's parameter would be 0.
    """
    if betti < 1:
        raise DomainError(f"second Betti number must be >= 1, got {betti}")
    if N < 0:
        raise DomainError(f"max degree must be >= 0, got {N}")
    if betti == 1:
        return PbwCheck(status=PBW_NOT_APPLICABLE)
    k = betti
    # both identities hold trivially at order 0; the table needs degree 1
    table = homotopy_ranks(k, max(N, 1))

    lhs1 = pbw_series(table, N).coeffs
    rhs1 = _poly_reciprocal([1, -k, 1], N)
    for n in range(N + 1):
        if lhs1[n] != rhs1[n]:
            return PbwCheck(status=PBW_FAIL, first_failure=n)

    l_dims = {1: k - 1}
    l_dims.update({n: table.rank(n) for n in range(2, N + 1) if table.rank(n)})
    lhs2 = pbw_series(l_dims, N).coeffs
    rhs2 = quotient_series(k - 1, N).coeffs
    for n in range(N + 1):
        if lhs2[n] != rhs2[n]:
            return PbwCheck(status=PBW_FAIL, first_failure=n)

    return PbwCheck(status=PBW_PASS)


class GrowthReport(Record):
    """Growth classification of the rank sequence at a given Betti number.

    growth_base and limit_residual are Decimals carrying `precision` digits;
    they are absent (None) in the elliptic case b2 <= 2.  exponential_growth
    is decided exactly: it holds when b2 >= 3 and every cumulative lower
    bound sum_{i<=2n} m_i >= (b2 - 1)^(2n) / (2n) in the probe window holds.
    cumulative_bound_ok defaults to a new empty dict.
    """

    def __init__(
        self,
        betti: int,
        classification: str,  # "elliptic" | "hyperbolic"
        probe_degree: int,
        growth_base: Optional[Decimal],
        limit_residual: Optional[Decimal],
        exponential_growth: bool,
        precision: int,
        cumulative_bound_ok: Optional[dict] = None,
    ):
        if cumulative_bound_ok is None:
            cumulative_bound_ok = {}
        self.__dict__.update(
            betti=betti,
            classification=classification,
            probe_degree=probe_degree,
            growth_base=growth_base,
            limit_residual=limit_residual,
            exponential_growth=exponential_growth,
            precision=precision,
            cumulative_bound_ok=cumulative_bound_ok,
        )

    def to_json_dict(self) -> dict:
        doc = {
            "betti": self.betti,
            "classification": self.classification,
            "probe_degree": self.probe_degree,
            "growth_base": None if self.growth_base is None else str(self.growth_base),
            "limit_residual": (
                None if self.limit_residual is None else str(self.limit_residual)
            ),
            "exponential_growth": self.exponential_growth,
            "precision": self.precision,
            "cumulative_bound_ok": {
                str(n): ok for n, ok in sorted(self.cumulative_bound_ok.items())
            },
        }
        return doc


def growth_base(betti: int, precision: int = GROWTH_PRECISION) -> Decimal:
    """beta = (k + sqrt(k^2 - 4))/2 at the given decimal precision, k >= 3."""
    from decimal import Decimal, localcontext

    if betti < 3:
        raise DomainError(f"growth base exists only for b2 >= 3, got {betti}")
    with localcontext() as ctx:
        ctx.prec = precision
        k = Decimal(betti)
        return +((k + (k * k - 4).sqrt()) / 2)


def growth_report(betti: int, N: int = 60) -> GrowthReport:
    """Classify the rank sequence and probe its growth out to degree N.

    >>> growth_report(2, 10).classification
    'elliptic'
    """
    if betti < 1:
        raise DomainError(f"second Betti number must be >= 1, got {betti}")
    if N < 1:
        raise DomainError(f"probe degree must be >= 1, got {N}")
    if betti <= 2:
        return GrowthReport(
            betti=betti,
            classification="elliptic",
            probe_degree=N,
            growth_base=None,
            limit_residual=None,
            exponential_growth=False,
            precision=GROWTH_PRECISION,
            cumulative_bound_ok={},
        )

    from decimal import Decimal, localcontext

    table = homotopy_ranks(betti, N)
    beta = growth_base(betti)
    with localcontext() as ctx:
        ctx.prec = GROWTH_PRECISION
        residual = abs(Decimal(N) * Decimal(table.rank(N)) / beta**N - 1)
        residual = +residual
    bounds = cumulative_bound_check(betti, max(1, N // 2), _table=table)
    return GrowthReport(
        betti=betti,
        classification="hyperbolic",
        probe_degree=N,
        growth_base=beta,
        limit_residual=residual,
        exponential_growth=all(bounds.values()),
        precision=GROWTH_PRECISION,
        cumulative_bound_ok=bounds,
    )


def divisibility_report(betti: int, n_max: int = 12) -> list:
    """Empirically evaluate three claimed divisibility patterns. Informational.

    With c = b2 - 1 the claims say, in pi-indexing: (c-1) | rank pi_n for
    n > 3, c | rank pi_n for n > 4, and (c+1) | rank pi_n for n > 5.  As
    statements about polynomial factors in c they hold; as integer
    divisibilities they can fail (rank pi_7 = 55 at b2 = 3 is divisible by
    neither 2 nor 3), so callers must treat this report as non-gating.

    Returns one dict per claim with any counterexamples up to pi_{n_max + 1}.
    """
    if betti < 2:
        raise DomainError(f"divisibility report needs b2 >= 2, got {betti}")
    c = betti - 1
    table = homotopy_ranks(betti, n_max)
    claims = [(c - 1, 3), (c, 4), (c + 1, 5)]  # (divisor, first affected m-index)
    out = []
    for divisor, j_floor in claims:
        failures = []
        for j in range(j_floor, n_max + 1):  # m-index j = pi-index - 1
            m = table.rank(j)
            divides = (m == 0) if divisor == 0 else (m % divisor == 0)
            if not divides:
                failures.append({"pi_degree": j + 1, "rank": m})
        out.append(
            {
                "divisor": divisor,
                "applies_from_pi": j_floor + 1,
                "holds": not failures,
                "counterexamples": failures,
            }
        )
    return out


def cumulative_bound_check(betti: int, n_max: int, _table: Optional[RankTable] = None) -> dict:
    """Check sum_{i=1}^{2n} m_i(b2) >= (b2 - 1)^(2n) / (2n) for n = 1..n_max.

    The left side is the total rank of pi_2..pi_{2n+1}.  The comparison is
    made exactly, in integers, as 2n * sum >= (b2 - 1)^(2n).  Returns {n: bool}.

    >>> cumulative_bound_check(3, 2)
    {1: True, 2: True}
    """
    if betti < 3:
        raise DomainError(f"cumulative bound needs b2 >= 3, got {betti}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    table = _table
    if table is None or table.max_degree < 2 * n_max:
        table = homotopy_ranks(betti, 2 * n_max)
    ranks = table.ranks
    step = (betti - 1) ** 2
    out = {}
    partial = 0
    power = 1  # (b2 - 1)^(2n)
    for n in range(1, n_max + 1):
        partial += ranks[2 * n - 2] + ranks[2 * n - 1]
        power *= step
        out[n] = 2 * n * partial >= power
    return out
