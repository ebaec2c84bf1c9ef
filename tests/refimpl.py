"""Reference implementations that the tests compare the package against.

Plain functions over lists and tuples, written for clarity rather than speed
and sharing no code with `fourfold`: series arithmetic over Fraction,
Newton's power sums of 1/poly at any degree, the PBW product series, the
Moebius function, and the words and relation of the oracle's algebra.  A
series is the list of its coefficients 0..N; a word is a tuple of letter
codes, x_i -> i - 1 (degree 1) and y_i -> k + i - 1 (degree 2).
`eliminate` is sparse elimination over Q of any rows, pivoting on the max
column, with a Fraction inverse at a lead other than +-1: the oracle's
shortcuts (skipped rows, template pivots, rows that must vanish) are pinned
to the elimination they stand for, and it is pinned to dense elimination.
One exception uses the package's own types: `marker_table` is a StemsTable of
distinct primes, so that `stem_exponents` can read back which stems an
assembled group is made of.
"""

from fractions import Fraction

from fourfold.stable import FinAbGroup, StemsTable

#: Stem i of the marker table is Z/MARKER_PRIMES[i - 1]: the first 20 primes.
MARKER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def series_mul(a, b):
    """Cauchy product, truncated at the shorter of the two series."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]


def series_reciprocal(a):
    """The series r with a * r = 1 to a's order; r_m = -(1/a_0) sum_{i>=1} a_i r_{m-i}."""
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for m in range(1, len(a)):
        out.append(-inv0 * sum(a[i] * out[m - i] for i in range(1, m + 1)))
    return out


def series_log(a):
    """log(a) = -sum_{m>=1} (1 - a)^m / m, for a series with constant term 1."""
    if a[0] != 1:
        raise ValueError(f"constant term must be 1, got {a[0]}")
    u = [0] + [-c for c in a[1:]]  # valuation >= 1: u^m adds nothing past m = N
    out = [Fraction(0)] * len(a)
    power = [1] + [0] * (len(a) - 1)
    for m in range(1, len(a)):
        power = series_mul(power, u)
        out = [c - Fraction(p, m) for c, p in zip(out, power)]
    return out


def newton_sums(poly, n):
    """[0, p_1..p_n]: power sums of 1/poly (poly[0] = 1), any degree, by Newton's
    identities p_m = -m a_m - sum_{i=1..m-1} a_i p_{m-i}, a_i = poly[i], 0 past its end.

    >>> newton_sums([1, -3, 1], 4)
    [0, 3, 7, 18, 47]
    """
    a = list(poly) + [0] * n
    p = [0] * (n + 1)
    for m in range(1, n + 1):
        p[m] = -m * a[m] - sum(a[i] * p[m - i] for i in range(1, min(m, len(poly))))
    return p


def pbw_product(dims, n):
    """prod_{d odd} (1 + t^d)^m_d * prod_{d even} (1 - t^d)^(-m_d), coefficients 0..n.

    The Euler transform of {d: m_d} with exterior factors in odd degrees,
    multiplied out factor by factor.  Each factor is the binomial series
    (1 + s t^d)^e = sum_i C(e, i) s^i t^(id), valid for negative e too, so a
    table with negative entries has a product series as well.
    """
    out = [1] + [0] * n
    for d, m in dims.items():
        if not m or d > n:
            continue
        sign, e = (1, m) if d % 2 else (-1, -m)
        factor = [0] * (n + 1)
        binomial = 1  # C(e, i)
        for i in range(n // d + 1):
            factor[i * d] = binomial * sign**i
            binomial = binomial * (e - i) // (i + 1)
        out = series_mul(out, factor)
    return out


def moebius(d):
    """0 on non-squarefree d, else (-1)^(number of prime factors).

    >>> [moebius(d) for d in range(1, 13)]
    [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    """
    if d < 1:
        raise ValueError(f"moebius undefined for {d}")
    result, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    return -result if d > 1 else result


def enumerate_words(k, n):
    """Yield the degree-n words over x_1..x_k, y_1..y_k in lex order.

    >>> [word_text(1, w) for w in enumerate_words(1, 2)]
    ['x1*x1', 'y1']
    """
    if n == 0:
        yield ()
    for c in range(2 * k):
        rest = n - 1 - (c >= k)
        if rest >= 0:
            for w in enumerate_words(k, rest):
                yield (c,) + w


def relation_terms(k):
    """r = sum_i (x_i y_i - y_i x_i) as [(coefficient, word)]."""
    xs, ys = range(k), range(k, 2 * k)
    return [(1, (x, y)) for x, y in zip(xs, ys)] + [(-1, (y, x)) for x, y in zip(xs, ys)]


def word_text(k, word):
    """'x1*y2*x2' for (0, 3, 1) at k = 2; '1' for the empty word."""
    return "*".join(f"x{c + 1}" if c < k else f"y{c - k + 1}" for c in word) or "1"


def reduce_row(row, pivot_at):
    """Reduce row, a {column: nonzero number} dict, in place from its max
    column down by pivot_at(col), the pivot that holds col or None.  None
    when the row vanishes, else (its lead column, the row as a pivot).

    A pivot is ((column - lead column, value) for the entries left of its
    lead, 1 / lead), so it applies at whatever column it leads.  The inverse
    of a +-1 lead is that int; any other lead keeps its Fraction inverse.
    """
    while row:
        c = max(row)
        piv = pivot_at(c)
        if piv is None:
            coef = row.pop(c)
            inv = coef if coef in (1, -1) else 1 / Fraction(coef)
            return c, (tuple((cc - c, vv) for cc, vv in row.items()), inv)
        rel, inv = piv
        mult = row.pop(c) * inv  # coef - mult * lead is 0
        for d, vv in rel:
            cc = c + d
            nv = row.get(cc, 0) - mult * vv
            if nv:
                row[cc] = nv
            else:
                del row[cc]
    return None


def eliminate(rows, below=lambda col: None):
    """Every row in turn reduced by reduce_row against the pivots of the
    rows before it, or below(col) where none of those holds col.

    Returns (pivots by column, whether each leads with +-1, the fate of each
    row): "unreduced" for a row that became a pivot with no reduction step,
    "reduced" for one that became a pivot after one, "zero" for one that
    vanished.  The rows are reduced in place.
    """
    pivots, fates = {}, []
    for row in rows:
        lead = max(row, default=None)
        found = reduce_row(row, lambda col: pivots.get(col) or below(col))
        if found is None:
            fates.append("zero")
        else:
            pivots[found[0]] = found[1]
            fates.append("unreduced" if found[0] == lead else "reduced")
    integral = all(inv in (1, -1) for _, inv in pivots.values())
    return pivots, integral, fates


def marker_table():
    """Stems 0..20: stem 0 is Z and stem i is Z/p_i, p_i the i-th prime.

    No two stems share a summand, so a direct sum of them records how many
    copies of each stem it holds.
    """
    entries = {0: FinAbGroup(1, ())}
    for i, p in enumerate(MARKER_PRIMES, start=1):
        entries[i] = FinAbGroup(0, (p,))
    return StemsTable(entries, "marker table")


def stem_exponents(group):
    """{stem index: copies} of a group assembled from marker_table(): the
    free rank counts stem 0 and each Z/p_i counts stem i."""
    counts = {0: group.free_rank} if group.free_rank else {}
    for p in group.torsion:
        i = MARKER_PRIMES.index(p) + 1
        counts[i] = counts.get(i, 0) + 1
    return counts
