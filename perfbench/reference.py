"""Independent answer checks for the fourfold benchmark.

Every reference here is integer arithmetic written from the mathematics, not
from the package: the necklace formula for the homotopy ranks, the linear
recurrences of the quotient and tensor series, binomial products for the
free graded-commutative series, and a stems table entered from the published
tables for the stable groups.  Checks read answer fields only, so a payload
that gains a field still passes.

A check returns the answer it verified (a JSON-able value) or raises
WrongAnswer with a one-line reason.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from decimal import Decimal, InvalidOperation, localcontext

#: Stable stems pi_n^s, n = 0..19, as (free rank, cyclic orders), entered from
#: Toda (1962) and Ravenel (1986, Appendix A3).
STEMS = {
    0: (1, ()),
    1: (0, (2,)),
    2: (0, (2,)),
    3: (0, (24,)),
    4: (0, ()),
    5: (0, ()),
    6: (0, (2,)),
    7: (0, (240,)),
    8: (0, (2, 2)),
    9: (0, (2, 2, 2)),
    10: (0, (6,)),
    11: (0, (504,)),
    12: (0, ()),
    13: (0, (3,)),
    14: (0, (2, 2)),
    15: (0, (480, 2)),
    16: (0, (2, 2)),
    17: (0, (2, 2, 2, 2)),
    18: (0, (8, 2)),
    19: (0, (264, 2)),
}


class WrongAnswer(Exception):
    """The program returned a value that disagrees with the reference."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def digest(answer) -> str:
    """Short fingerprint of a checked answer, to compare two runs of one op."""
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


# -- integer references -----------------------------------------------------


def _moebius_table(n_max: int) -> list:
    mu = [1] * (n_max + 1)
    composite = [False] * (n_max + 1)
    for p in range(2, n_max + 1):
        if composite[p]:
            continue
        for m in range(p, n_max + 1, p):
            if m > p:
                composite[m] = True
            mu[m] = -mu[m]
        for m in range(p * p, n_max + 1, p * p):
            mu[m] = 0
    return mu


def necklace_ranks(k: int, n_max: int) -> tuple:
    """m_1..m_N by m_n = (1/n) sum_{d|n} (-1)^(n+n/d) mu(d) L_{n/d}.

    L_0 = 2, L_1 = k, L_n = k L_{n-1} - L_{n-2}.  At k = 1 the ranks are the
    elliptic table: one generator in m-degrees 1 and 4.
    """
    if k == 1:
        return tuple(1 if n in (1, 4) else 0 for n in range(1, n_max + 1))
    lucas = [2, k]
    while len(lucas) <= n_max:
        lucas.append(k * lucas[-1] - lucas[-2])
    mu = _moebius_table(n_max)
    sums = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        if mu[d]:
            for n in range(d, n_max + 1, d):
                sign = -1 if (n + n // d) % 2 else 1
                sums[n] += sign * mu[d] * lucas[n // d]
    ranks = []
    for n in range(1, n_max + 1):
        m, rem = divmod(sums[n], n)
        if rem:
            raise ArithmeticError(f"necklace sum at n={n} is not divisible by n")
        ranks.append(m)
    return tuple(ranks)


def quotient_coefficients(k: int, n_max: int) -> list:
    """a_n = k a_{n-1} + k a_{n-2} - a_{n-3}, a_0 = 1 (negative indices 0)."""
    a = []
    for n in range(n_max + 1):
        def at(i):
            return a[i] if i >= 0 else 0

        a.append(1 if n == 0 else k * at(n - 1) + k * at(n - 2) - at(n - 3))
    return a


def tensor_coefficients(dims: dict, n_max: int) -> list:
    """c_0 = 1, c_n = sum_d dims[d] c_{n-d}: words of total degree n."""
    c = [1]
    for n in range(1, n_max + 1):
        c.append(sum(mult * c[n - d] for d, mult in dims.items() if 1 <= d <= n))
    return c


def free_comm_coefficients(dims: dict, n_max: int) -> list:
    """prod_{d odd} (1 + t^d)^m * prod_{d even} (1 - t^d)^(-m), by binomials."""
    out = [1] + [0] * n_max
    for d, m in sorted(dims.items()):
        if m == 0 or d > n_max:
            continue
        factor = [0] * (n_max + 1)
        binom = 1
        for j in range(n_max // d + 1):
            factor[d * j] = binom
            # next coefficient of (1+x)^m, or of (1-x)^(-m)
            binom = binom * (m - j) // (j + 1) if d % 2 else binom * (m + j) // (j + 1)
        out = [
            sum(out[i] * factor[n - i] for i in range(n + 1) if factor[n - i])
            for n in range(n_max + 1)
        ]
    return out


def word_counts(k: int, n_max: int) -> list:
    return tensor_coefficients({1: k, 2: k}, n_max)


def relation_rows(k: int, n: int) -> int:
    """Number of u * r * v rows in degree n: pairs with deg u + deg v = n - 3."""
    if n < 3:
        return 0
    c = word_counts(k, n - 3)
    return sum(c[a] * c[n - 3 - a] for a in range(n - 2))


def prime_power_parts(order: int) -> list:
    parts = []
    p = 2
    while p * p <= order:
        if order % p == 0:
            q = 1
            while order % p == 0:
                q *= p
                order //= p
            parts.append(q)
        p += 1
    if order > 1:
        parts.append(order)
    return parts


def group_of(free: int, orders) -> tuple:
    """(free rank, sorted prime-power torsion) of Z^free + sum Z/orders."""
    torsion = sorted(q for d in orders for q in prime_power_parts(d))
    return free, torsion


def stable_group(stems: dict, k: int, n: int, m: int = 1) -> tuple:
    """pi_n^s of the b2 = k manifold with |pi_1| = m, from a stems table.

    pi_n^s = (pi_{n-2}^s)^k + (pi_{n-3}^s)^(k-1) + pi_{n-5}^s + (pi_{n-1}^s)^(m-1)
    """
    free, orders = 0, []
    for index, times in ((n - 2, k), (n - 3, k - 1), (n - 5, 1), (n - 1, m - 1)):
        if index < 0 or times <= 0:
            continue
        f, o = stems[index]
        free += f * times
        orders += list(o) * times
    return group_of(free, orders)


def stems_text(stems: dict) -> str:
    """Render a stems table in the package's line format."""
    lines = ["# generated stems table"]
    for n in sorted(stems):
        free, orders = stems[n]
        terms = ["Z"] * free + [f"Z/{d}" for d in orders]
        lines.append(f"{n}: {' + '.join(terms) if terms else '0'}")
    return "\n".join(lines) + "\n"


def growth_base(k: int, digits: int = 80) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        return (Decimal(k) + (Decimal(k * k - 4)).sqrt()) / 2


def cumulative_bounds(k: int, ranks: tuple, n_max: int) -> dict:
    """{n: sum_{i<=2n} m_i >= (k-1)^(2n) / (2n)} in integers, n = 1..n_max."""
    out = {}
    partial = 0
    for i in range(1, 2 * n_max + 1):
        partial += ranks[i - 1]
        if i % 2 == 0:
            out[i // 2] = 2 * (i // 2) * partial >= (k - 1) ** i
    return out


# -- answer checks ----------------------------------------------------------


def check_ranks(k: int, n_max: int, ranks) -> list:
    want = necklace_ranks(k, n_max)
    got = tuple(ranks)
    _expect(len(got) == n_max, f"{len(got)} ranks returned, expected {n_max}")
    for n, (g, w) in enumerate(zip(got, want), start=1):
        _expect(g == w, f"m_{n}({k}) = {g}, expected {w}")
    return [str(m) for m in got]


def check_series(want: list, coefficients) -> list:
    got = []
    for c in coefficients:
        _expect(
            isinstance(c, int) or (isinstance(c, str) and c.lstrip("-").isdigit()),
            f"coefficient {c!r} is not an integer",
        )
        got.append(int(c))
    _expect(len(got) == len(want), f"{len(got)} coefficients, expected {len(want)}")
    for n, (g, w) in enumerate(zip(got, want)):
        _expect(g == w, f"coefficient {n} is {g}, expected {w}")
    return [str(c) for c in got]


def check_growth(k: int, n_max: int, fields: dict) -> dict:
    """fields: classification, probe_degree, growth_base, limit_residual,
    exponential_growth, cumulative_bound_ok ({n: bool}, keys int or str)."""
    hyperbolic = k >= 3
    _expect(
        fields["classification"] == ("hyperbolic" if hyperbolic else "elliptic"),
        f"classification {fields['classification']!r} at b2 = {k}",
    )
    _expect(fields["probe_degree"] == n_max, "probe degree differs from the input")
    _expect(
        bool(fields["exponential_growth"]) == hyperbolic,
        f"exponential_growth {fields['exponential_growth']} at b2 = {k}",
    )
    bounds = {int(n): ok for n, ok in fields["cumulative_bound_ok"].items()}
    if not hyperbolic:
        _expect(fields["growth_base"] is None, "growth base reported for b2 <= 2")
        _expect(not bounds, "cumulative bounds reported for b2 <= 2")
        return {"classification": fields["classification"]}
    ranks = necklace_ranks(k, max(n_max, 2))
    _expect(
        bounds == cumulative_bounds(k, ranks, max(1, n_max // 2)),
        "cumulative bound flags differ from the exact integer comparison",
    )
    with localcontext() as ctx:
        ctx.prec = 80
        beta = Decimal(str(fields["growth_base"]))
        _expect(
            abs(beta * beta - k * beta + 1) < Decimal(10) ** -55 and 1 < beta < k,
            f"growth base {beta} is not the root of t^2 - {k} t + 1",
        )
        ref = growth_base(k)
        residual = abs(Decimal(n_max) * ranks[n_max - 1] / ref**n_max - 1)
        got = Decimal(str(fields["limit_residual"]))
        _expect(
            abs(got - residual) < Decimal(10) ** -40,
            f"limit residual {got} differs from {residual}",
        )
    return {
        "classification": fields["classification"],
        "growth_base": str(fields["growth_base"]),
        "limit_residual": str(fields["limit_residual"]),
        "bounds": sorted(bounds),
    }


def pbw_status(k: int, n_max: int) -> str:
    """Both product-series identities, decided with integer references."""
    if k == 1:
        return "not-applicable"
    ranks = necklace_ranks(k, n_max)
    by_degree = {n: m for n, m in enumerate(ranks, start=1) if m}
    lhs1 = free_comm_coefficients(by_degree, n_max)
    rhs1 = [1, k]
    while len(rhs1) <= n_max:
        rhs1.append(k * rhs1[-1] - rhs1[-2])
    l_dims = dict(by_degree)
    l_dims[1] = k - 1
    lhs2 = free_comm_coefficients(l_dims, n_max)
    ok = lhs1 == rhs1[: n_max + 1] and lhs2 == quotient_coefficients(k - 1, n_max)
    return "pass" if ok else "fail"


def check_pbw(k: int, n_max: int, status: str, first_failure) -> str:
    want = pbw_status(k, n_max)
    _expect(status == want, f"PBW status {status!r}, expected {want!r}")
    _expect(first_failure is None or want == "fail", "first_failure set on a pass")
    return status


def check_group(want: tuple, free_rank: int, torsion) -> list:
    got = (free_rank, sorted(torsion))
    _expect(got == want, f"group {got}, expected {want}")
    return [free_rank, sorted(torsion)]


def check_verify(k: int, n_max: int, exit_code: int, payload: dict) -> dict:
    _expect(exit_code == 0, f"verify exited {exit_code}")
    checks = payload["checks"]
    expected = {"oracle-series-match", "euler-identity", "koszul-leading-monomial"}
    if k >= 2:
        expected.add("pbw-identity")
    _expect(expected <= set(checks), f"checks {sorted(checks)} lack {sorted(expected)}")
    failing = sorted(name for name, ok in checks.items() if ok is not True)
    _expect(not failing, f"failing checks {failing}")
    oracle = payload["oracle"]
    tensor = word_counts(k, n_max)
    quotient = quotient_coefficients(k, n_max)
    _expect(oracle["tensor_dims"] == tensor, "tensor dims differ from word counts")
    _expect(oracle["quotient_dims"] == quotient, "quotient dims differ from recurrence")
    ideal = [t - q for t, q in zip(tensor, quotient)]
    _expect(oracle["ideal_dims"] == ideal, "ideal dims are not tensor - quotient")
    return {"ideal_dims": ideal, "checks": sorted(checks), "field": oracle["field_used"]}


def check_stems_table(stems: dict, table) -> dict:
    """table: the package's StemsTable for the text of stems_text(stems)."""
    _expect(table.max_index == max(stems), f"max index {table.max_index}")
    for n, (free, orders) in stems.items():
        g = table.entries[n]
        check_group(group_of(free, orders), g.free_rank, g.torsion)
    return {"max_index": table.max_index}


def decimal_digits(x: int) -> int:
    """Decimal digits of |x| (1 for 0)."""
    x = abs(x)
    if x < 10:
        return 1
    d = int(x.bit_length() * math.log10(2))
    return d + 1 if x >= 10**d else d


# -- per-operation dispatch -------------------------------------------------


def _malformed_is_wrong(check):
    """A result that lacks a field or has the wrong shape is a wrong answer."""

    @functools.wraps(check)
    def checked(*args):
        try:
            return check(*args)
        except (LookupError, TypeError, ValueError, AttributeError, InvalidOperation) as exc:
            raise WrongAnswer(f"malformed answer: {type(exc).__name__}: {exc}") from exc

    return checked


def stems_of(pairs) -> dict:
    """Stems table from the JSON form [[n, [free, [orders...]]], ...]."""
    return {int(n): (int(free), tuple(orders)) for n, (free, orders) in pairs}


@_malformed_is_wrong
def check_library(op: dict, result):
    """Check the return value of one library call of the ranks-deep mix."""
    fn, args = op["fn"], op["args"]
    if fn == "homotopy_ranks":
        return check_ranks(args[0], args[1], result.ranks)
    if fn == "growth_report":
        return check_growth(args[0], args[1], vars(result))
    if fn == "pbw_identity_check":
        return check_pbw(args[0], args[1], result.status, result.first_failure)
    if fn == "quotient_series":
        want = quotient_coefficients(args[0], args[1])
        return check_series(want, [str(c) for c in result.coeffs])
    if fn == "tensor_series":
        want = tensor_coefficients({1: args[0], 2: args[0]}, args[1])
        return check_series(want, [str(c) for c in result.coeffs])
    if fn == "stable_homotopy_finite_pi1":
        want = stable_group(STEMS, *args)
        return check_group(want, result.free_rank, result.torsion)
    if fn == "load_stems_table":
        return check_stems_table(stems_of(args[0]), result)
    raise RuntimeError(f"unknown operation {fn!r}")


@_malformed_is_wrong
def check_cli(op: dict, exit_code: int, payload: dict, stems: dict):
    """Check the JSON payload of one CLI run; stems backs --stems-file ops."""
    cmd = op["cmd"]
    if cmd == "verify":
        return check_verify(op["k"], op["n"], exit_code, payload)
    _expect(exit_code == 0, f"{cmd} exited {exit_code}")
    if cmd == "ranks":
        k, n = op["k"], op["n"]
        _expect(payload["classification"] == ("elliptic" if k <= 2 else "hyperbolic"),
                f"classification {payload['classification']!r}")
        got = [payload["ranks"].get(f"pi_{i + 1}") for i in range(1, n + 1)]
        _expect(len(payload["ranks"]) == n, f"{len(payload['ranks'])} ranks, expected {n}")
        return check_ranks(k, n, got)
    if cmd == "series":
        kind, n = op["kind"], op["n"]
        _expect(payload["truncation_order"] == n, "truncation order differs")
        if kind == "quotient":
            want = quotient_coefficients(op["k"], n)
        elif kind == "tensor":
            want = tensor_coefficients({1: op["k"], 2: op["k"]}, n)
        elif kind == "pbw":
            ranks = necklace_ranks(op["k"], n)
            want = free_comm_coefficients(dict(enumerate(ranks, start=1)), n)
        else:
            dims = dict(tuple(map(int, part.split(":"))) for part in op["dims"].split(","))
            want = free_comm_coefficients(dims, n)
        return check_series(want, payload["coefficients"])
    if cmd == "stable":
        table = stems if op.get("stems") else STEMS
        want = stable_group(table, op["k"], op["n"], op["m"])
        group = payload["group"]
        return check_group(want, group["free_rank"], group["torsion"])
    if cmd == "growth":
        return check_growth(op["k"], op["n"], payload)
    raise RuntimeError(f"unknown command {cmd!r}")
