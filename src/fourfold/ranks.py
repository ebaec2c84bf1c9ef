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
one in-place sieve (_necklace, any integer k) of O(N log N) big-integer
subtractions computes.  Division by n must be exact, and the ranks at b2 >= 2
nonnegative; else it is a bug and raises.  The rank checks are exact:

- pbw_identity_check compares power sums, the coefficients c_n of
  t d/dt log of a series with constant term 1.  As n a_n = sum_{j=1..n}
  c_j a_{n-j}, two series and their power sums first differ at the same n.
- m_j has degree j in k (L_j is monic), so (c - a) divides it in Q[c],
  c = b2 - 1, exactly when it vanishes at b2 = a + 1.
- Polynomials of degree j that agree at j + 1 points are equal: agreement at
  b2 = 0..j proves a closed form of degree j.

The ranks at one b2 form one infinite sequence, and a table of N of them is
its prefix.  So do the outcomes of PBW identity 1 (power sum c_n against L_n,
the power sum of 1/(1 - k t + t^2)): flag n reads only m_1..m_n.  One store
keeps, per b2 >= 2, the longest prefix computed of each sequence (ranks, PBW
agreement flags), and only one that passed every check above (a check that
raises stores nothing); the store hands a reader that prefix uncopied, and
the reader takes its first N entries, so repeated calls at one b2 run each
loop once.  The growth base beta, which depends on b2 alone, is kept beside
them as a sequence of one.  A read is one dict lookup, without the lock that
every write takes.  All of its entries together hold at most RANK_STORE_BYTES
of objects: the oldest stored (sequence, b2) goes first, and a prefix larger
than the cap is returned but not kept.
Every entry point that reads ranks reads them from the store's checked prefix
(homotopy_ranks, or growth_report, which needs m_N alone); _necklace itself,
which the polynomial checks call at b2 = 0..2, keeps nothing.

Growth lemma.  For k >= 3, m_n >= L_n / (2n) > beta^n / (2n) for every n,
as L_n = beta^n + beta^-n.  In n m_n = sum_{d|n} +-mu(d) L_{n/d} the terms
with d > 1 have distinct indices n/d <= n/2, so n m_n >= L_n - S_{n//2} with
S_j = L_1 + ... + L_j, and it suffices that L_n >= 2 S_{n//2}:
- n = 1: S_0 = 0.
- n = 2, 3: S_1 = L_1 = k, and L_n >= L_2 = k^2 - 2 >= 2k.
- n >= 4: L_j / L_{j-1} >= 7/3 for j >= 2, by induction from
  L_2 / L_1 = k - 2/k >= 7/3 through L_{j+1} / L_j = k - L_{j-1} / L_j >=
  k - 3/7 >= 7/3.  So S_m <= (7/4) L_m, and with m = n//2 and n - m >= 2,
  L_n >= (49/9) L_m >= 2 S_m.
The hypotheses are three integer inequalities, L_2 >= 2 L_1, 3 L_2 >= 7 L_1
and 21 k >= 58, which hold exactly when k >= 3, so GrowthReport sets
exponential_growth at every b2 >= 3, for every degree and not only its window.

Cumulative bound.  For k >= 3 and every n >= 1, 2n sum_{i<=2n} m_i >=
(k - 1)^(2n), the bound the paper states, so GrowthReport sets every
cumulative_bound_ok flag at b2 >= 3 and reads no rank table.  _power_sums
writes the power sums of the product series as c_N = sum_{d|N} d e_d with
e_d = m_d - m_{d/2} [d/2 odd]:
1. PBW identity 1 gives c_N = L_N at every N (the necklace formula is its
   Moebius inversion; pbw_identity_check confirms it).
2. Every m_i >= 0 (_checked_ranks refuses anything else), so
   sum_{d|N} d m_d >= c_N = L_N.
3. The divisors of N are distinct and at most N, so
   N sum_{i<=N} m_i >= sum_{d|N} d m_d.
4. L_j >= (k - 1)^j: L_1 = k, and L_j - (k - 1) L_{j-1} = L_{j-1} - L_{j-2} >= 0
   for j >= 2, as L is nondecreasing (L_1 - L_0 = k - 2 and
   L_j - L_{j-1} = (k - 2) L_{j-1} + L_{j-1} - L_{j-2}).
5. With N = 2n: 2n sum_{i<=2n} m_i >= L_{2n} >= (k - 1)^(2n).

Public parameter convention: every function here takes b2 itself, and so does
_closed_form, the one place that evaluates a polynomial at c = b2 - 1, with
its own tests, because that reindexing is the easiest place to slip.
"""

from __future__ import annotations

import sys
import threading
from math import isqrt
from typing import TYPE_CHECKING, Optional

from ._record import Record
from .errors import DomainError, InternalInconsistency, _echo, _int_arg
from .series import TruncatedSeries, _power_sums, free_comm_series

if TYPE_CHECKING:  # decimal is imported only where growth is computed
    from decimal import Decimal

#: Decimal digits of the growth base beta (correctly rounded) and of the
#: precision the limit residual |N m_N / beta^N - 1| is computed at.
GROWTH_PRECISION = 60

#: Bytes of tuples (tuple and item objects) the prefix store may keep, summed
#: over every sequence and b2; past it the oldest stored entries are evicted.
RANK_STORE_BYTES = 8 << 20


def _lucas(k: int, N: int) -> list:
    """L_0..L_N with L_0 = 2, L_1 = k, L_n = k L_{n-1} - L_{n-2} (L_0, L_1 if N < 1).

    L_n = beta^n + beta^-n for beta, 1/beta the roots of t^2 - k t + 1, so
    L_1..L_N are also the power sums of 1/(1 - k t + t^2).

    >>> _lucas(3, 4)
    [2, 3, 7, 18, 47]
    """
    lucas = [2, k]
    for _ in range(2, N + 1):
        lucas.append(k * lucas[-1] - lucas[-2])
    return lucas


class RankTable(Record):
    """Ranks m_1..m_N where m_n = rank of pi_{n+1} tensor Q at b2 = betti."""

    def __init__(self, betti: int, ranks: tuple):
        self.__dict__.update(betti=betti, ranks=ranks)

    @property
    def max_degree(self) -> int:
        return len(self.ranks)

    def rank(self, n: int) -> int:
        """m_n for 1 <= n <= max_degree."""
        _int_arg("degree", n)
        if not 1 <= n <= self.max_degree:
            raise DomainError(f"degree {_echo(n)} outside 1..{_echo(self.max_degree)}")
        return self.ranks[n - 1]


# The b2 = 1 manifolds are rationally elliptic with one generator in
# degree 2 and one in degree 5 (in m-table indexing: degrees 1 and 4).
# The k >= 2 derivation needs at least one summand in the associated
# connected sum, so this case is returned as a fixed table instead.
_ELLIPTIC_B2_1 = (1, 0, 0, 1)


class _PrefixStore:
    """Prefixes s_1..s_M of sequences, one per key, oldest inserted first.

    entries maps a key to (prefix, bytes) and nbytes is the sum of those
    bytes.  A read is one dict lookup and takes no lock; every write holds
    the lock, which keeps the two consistent across threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.clear()

    def clear(self):
        with self._lock:
            self.entries = {}
            self.nbytes = 0

    def prefix(self, k: int, N: int, compute) -> tuple:
        """s_1..s_M, M >= N, at b2 = k: the kept prefix if it is that long, else
        compute(k, N), then kept.  Each reader takes its N from it."""
        key = compute, k
        entry = self.entries.get(key)
        if entry is not None and len(entry[0]) >= N:
            return entry[0]
        seq = compute(k, N)
        size = sys.getsizeof(seq) + sum(map(sys.getsizeof, seq))
        if size > RANK_STORE_BYTES:
            return seq
        with self._lock:
            old = self.entries.get(key)
            if old is None or len(old[0]) < len(seq):  # else another thread kept one
                if old is not None:  # the longer prefix goes in as the newest
                    self.nbytes -= self.entries.pop(key)[1]
                self.entries[key] = seq, size
                self.nbytes += size
                while self.nbytes > RANK_STORE_BYTES:
                    self.nbytes -= self.entries.pop(next(iter(self.entries)))[1]
        return seq


# keyed by (compute, b2): m_1..m_N (_checked_ranks), PBW identity 1 agreement
# flags (_pbw_agreement), and the growth base as a sequence of one (_growth_base)
_store = _PrefixStore()


def homotopy_ranks(betti: int, N: int) -> RankTable:
    """Rank table m_1..m_N for second Betti number betti.

    Repeated calls at one betti slice the longest table computed so far
    (see the module docstring).

    >>> homotopy_ranks(3, 6).ranks
    (3, 5, 5, 10, 24, 55)
    >>> homotopy_ranks(2, 6).ranks
    (2, 2, 0, 0, 0, 0)
    """
    _int_arg("second Betti number", betti, 1)
    _int_arg("max degree", N, 1)
    if betti == 1:
        ranks = tuple(_ELLIPTIC_B2_1[n - 1] if n <= 4 else 0 for n in range(1, N + 1))
        return RankTable(betti=1, ranks=ranks)
    return RankTable(betti=betti, ranks=_store.prefix(betti, N, _checked_ranks)[:N])


def _checked_ranks(k: int, N: int) -> tuple:
    """m_1..m_N at b2 = k >= 2 from the sieve; InternalInconsistency on a bad one."""
    ranks = tuple(_necklace(k, N))
    for n, m_n in enumerate(ranks, start=1):
        if m_n < 0:
            raise InternalInconsistency(
                f"m_{_echo(n)}({_echo(k)}) = {_echo(m_n)} < 0; sign convention violated"
            )
    # anchors forced independently of the inversion: m_1 by Hurewicz,
    # m_2 by the degree-3 closed form
    if ranks[0] != k:
        raise InternalInconsistency(f"m_1({_echo(k)}) = {_echo(ranks[0])}, expected {_echo(k)}")
    if N >= 2 and ranks[1] != _closed_form(2, k):
        raise InternalInconsistency(
            f"m_2({_echo(k)}) = {_echo(ranks[1])}, expected {_echo(_closed_form(2, k))}"
        )
    return ranks


def _necklace(k: int, N: int) -> list:
    """[m_1, ..., m_N]: the necklace polynomials at any integer k, signed.

    >>> _necklace(0, 6)
    [0, -1, 0, 1, 0, 0]
    """
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
        if rem:
            raise InternalInconsistency(
                f"m_{_echo(n)}({_echo(k)}) = {_echo(acc)}/{_echo(n)} is not an integer"
            )
        ranks.append(m_n)
    return ranks


def _closed_form(j: int, b2: int) -> int:
    """Low-degree closed form m_j at b2, a polynomial in c = b2 - 1.

    Index j matches the m-table: m_j is the rank of pi_{j+1}.
    """
    c = b2 - 1
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
        raise DomainError(f"no closed form for degree {_echo(j)}; supported range is 2..6")
    if num % den:
        raise InternalInconsistency(f"closed form at j={_echo(j)}, c={_echo(c)} is not integral")
    return num // den


PBW_PASS = "pass"
PBW_FAIL = "fail"
PBW_NOT_APPLICABLE = "not-applicable"


class PbwCheck(Record):
    """Outcome of the two product-series identities."""

    def __init__(self, status: str, first_failure: Optional[int] = None):
        # status: pass | fail | not-applicable
        self.__dict__.update(status=status, first_failure=first_failure)


def pbw_identity_check(betti: int, N: int) -> PbwCheck:
    """Check both product-series identities for the computed rank table.

    Identity 1: the product series of the ranks at b2 = k equals
    1/(1 - k t + t^2) up to order N.

    Identity 2: replacing m_1 by k - 1 (the l-table of the associated
    connected sum of k - 1 summands) gives the quotient algebra series
    at parameter k - 1, 1/(1 - (k-1) t - (k-1) t^2 + t^3).

    Identity 1 is checked on power sums: the ranks' against the right side's,
    which are the Lucas numbers L_n (_lucas); first_failure is the first order
    where the series differ.  Identity 2 holds or fails at that same order, so
    it needs no pass of its own: if m_1 != k, identity 1 fails at order 1
    (c_1 = m_1, L_1 = k).  Else m_1 = k becoming k - 1 divides the product by
    (1 + t) = (1 - t^2) / (1 - t), and 1 - (k-1) t - (k-1) t^2 + t^3 =
    (1 + t)(1 - k t + t^2).  1/(1 + t) has power sums (-1)^j, so both sides of
    identity 2 exceed identity 1's by (-1)^j at every order j.

    Not applicable at b2 = 1: identity 1's right side 1/(1 - t + t^2) has
    negative coefficients there, and identity 2's parameter would be 0.
    """
    _int_arg("second Betti number", betti, 1)
    _int_arg("max degree", N, 0)
    if betti == 1:
        return PbwCheck(status=PBW_NOT_APPLICABLE)
    try:  # among the first N flags only: the kept prefix may be longer
        failure = _store.prefix(betti, N, _pbw_agreement).index(False, 0, N)
    except ValueError:
        return PbwCheck(status=PBW_PASS)
    return PbwCheck(status=PBW_FAIL, first_failure=failure + 1)


def _pbw_agreement(k: int, N: int) -> tuple:
    """(c_n == L_n for n = 1..N): the ranks' power sums against 1/(1 - k t + t^2)'s."""
    # both identities hold trivially at order 0; the table needs degree 1
    table = homotopy_ranks(k, max(N, 1))
    lhs = _power_sums(dict(enumerate(table.ranks, start=1)), N)
    rhs = _lucas(k, N)
    return tuple(lhs[n] == rhs[n] for n in range(1, N + 1))


def pbw_series(table: RankTable, N: int) -> TruncatedSeries:
    """Product series of a graded Lie algebra's universal envelope.

    Takes the ranks m_n of a RankTable as the multiplicities of degree n
    and forms the free graded-commutative series on them: odd degrees give
    exterior factors, even degrees polynomial factors.  (On a {degree: rank}
    mapping that is free_comm_series.)

    >>> pbw_series(homotopy_ranks(1, 5), 5).as_int_list()
    [1, 1, 0, 0, 1, 1]
    """
    if not isinstance(table, RankTable):
        raise TypeError(f"pbw_series takes a RankTable, not {type(table).__name__}")
    _int_arg("truncation order", N, 0)
    return free_comm_series(dict(enumerate(table.ranks, start=1)), N)


class GrowthReport(Record):
    """Growth classification of the rank sequence at a given Betti number.

    growth_base and limit_residual are Decimals carrying `precision` digits;
    they are absent (None) in the elliptic case b2 <= 2.  The rest is derived
    from betti and probe_degree in __init__ and stored as fields, in the
    order vars() lists them, because perfbench reads vars() of a report:
    classification ("hyperbolic" at b2 >= 3, else "elliptic"),
    exponential_growth (b2 >= 3, by the growth lemma of the module docstring,
    so it holds in every degree) and cumulative_bound_ok, the paper's bound
    sum_{i<=2n} m_i >= (b2 - 1)^(2n) / (2n) as {n: True} for n = 1..N/2 of
    the probe window (n = 1 at least) at b2 >= 3, where the module docstring
    proves it for every n, and a new empty dict otherwise.
    """

    precision = GROWTH_PRECISION

    def __init__(
        self,
        betti: int,
        probe_degree: int,
        growth_base: Optional[Decimal],
        limit_residual: Optional[Decimal],
    ):
        classification = _classification(betti)
        hyperbolic = classification == "hyperbolic"
        bounds = {}
        if hyperbolic:  # one flag per n of the probe window, n = 1 at least
            bounds = dict.fromkeys(range(1, max(1, probe_degree // 2) + 1), True)
        self.__dict__.update(
            betti=betti,
            classification=classification,
            probe_degree=probe_degree,
            growth_base=growth_base,
            limit_residual=limit_residual,
            exponential_growth=hyperbolic,
            cumulative_bound_ok=bounds,
        )


def _classification(betti: int) -> str:
    """The growth class of b2: hyperbolic at b2 >= 3, where the ranks grow
    exponentially, else elliptic; the one rule `ranks` and GrowthReport print."""
    return "hyperbolic" if betti >= 3 else "elliptic"


def growth_base(betti: int) -> Decimal:
    """beta = (k + sqrt(k^2 - 4))/2 correctly rounded to GROWTH_PRECISION
    digits, k >= 3.

    beta = k - 1/beta with beta > 1, so k - 1 < beta < k and beta has as many
    integer digits as k - 1.  (k-1)^2 < k^2 - 4 < k^2, so beta is irrational:
    no rounding tie, and an isqrt bracket of beta * 10^places, widened until
    both of its ends round to the same integer, settles every digit.
    """
    _int_arg("second Betti number", betti, 3)
    from decimal import Decimal, localcontext

    places = GROWTH_PRECISION - 1 - Decimal(betti - 1).adjusted()
    guard = 8
    while True:
        scale = max(places, 0) + guard
        unit = 10**scale
        low = betti * unit + isqrt((betti * betti - 4) * unit * unit)
        # 2 beta 10^scale lies in (low, low + 1); dividing it by 2 half
        # gives beta * 10^places, rounded here to the nearest integer
        half = 10 ** (scale - places)
        first, last = ((low + end + half) // (2 * half) for end in (0, 1))
        if first == last:
            break
        guard *= 2
    with localcontext() as ctx:
        ctx.prec = GROWTH_PRECISION  # a carry to 10**GROWTH_PRECISION drops a 0
        return Decimal(first).scaleb(-places)


def _growth_base(k: int, N: int) -> tuple:
    """(beta,) at b2 = k >= 3, whatever N: growth_base kept as a prefix of one."""
    return (growth_base(k),)


def growth_report(betti: int, N: int = 60) -> GrowthReport:
    """Classify the rank sequence and probe its growth out to degree N.

    beta depends on b2 alone, so it is computed once per b2 and then read,
    like m_N, from the prefix store.

    >>> growth_report(2, 10).classification
    'elliptic'
    """
    _int_arg("second Betti number", betti, 1)
    _int_arg("probe degree", N, 1)
    if _classification(betti) == "elliptic":
        return GrowthReport(betti, N, None, None)

    from decimal import Decimal, localcontext

    m_N = _store.prefix(betti, N, _checked_ranks)[N - 1]
    beta = _store.prefix(betti, 1, _growth_base)[0]
    with localcontext() as ctx:
        ctx.prec = GROWTH_PRECISION
        residual = abs(Decimal(N) * Decimal(m_N) / beta**N - 1)
        residual = +residual
    return GrowthReport(betti, N, beta, residual)


def rank_polynomial_checks(N: int) -> tuple:
    """(divisibility ok, closed forms ok), both exact (see the module docstring).

    With c = b2 - 1, (c-1), c and (c+1) divide rank pi_n in Q[c] for n > 3,
    n > 4 and n > 5: zeros at b2 = 2, 1 and 0, checked for n <= N + 1.  Each
    closed form of degree j = 2..6 is compared at b2 = 0..j.

    >>> rank_polynomial_checks(8)
    (True, True)
    """
    _int_arg("max degree", N, 0)
    divisible = all(
        not any(_necklace(b2, N)[first - 1:]) for b2, first in ((2, 3), (1, 4), (0, 5))
    )
    closed = all(
        _closed_form(j, b2) == _necklace(b2, j)[-1]
        for j in range(2, 7)
        for b2 in range(j + 1)
    )
    return divisible, closed
