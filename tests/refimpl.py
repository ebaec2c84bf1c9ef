"""Reference implementations that the tests compare the package against.

Plain functions over lists and tuples, written for clarity rather than speed
and sharing no code with `fourfold`: series arithmetic over Fraction, the
PBW product series, the Moebius function, and the words and relation of the
oracle's algebra.  A series is the list of its coefficients 0..N; a word is
a tuple of letter codes, x_i -> i - 1 (degree 1) and y_i -> k + i - 1
(degree 2).
"""

from fractions import Fraction


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
