"""Finitely generated abelian groups and stable homotopy group assembly.

Groups are kept in primary decomposition: a free rank plus a multiset of
prime-power torsion orders, canonically sorted by (prime, exponent).  Direct
sums then just concatenate multisets; invariant factors are recomputed only
for display.

The assembly formula for a simply connected closed 4-manifold with second
Betti number k reads off three sphere stems:

    pi_n^s(M) = (pi_{n-2}^s)^k (+) (pi_{n-3}^s)^(k-1) (+) pi_{n-5}^s

and a finite fundamental group of order m adds (pi_{n-1}^s)^(m-1).  Stems
below index 0 are trivial.  The stem values themselves are standard reference
data loaded from a table, never computed here: the bundled table, or a file
in the line format or as one flat JSON object.  Stems and assembled groups
are all FinAbGroups, the one group type of the package.
"""

from __future__ import annotations

import os
import re
import sys
from functools import lru_cache
from typing import Sequence, Tuple

from ._record import Record
from .errors import (
    DomainError,
    InsufficientStemsData,
    ParseError,
    ResourceLimit,
    ValidationError,
    _int_arg,
    _numeral,
)

#: Largest order _factor accepts, so trial division stops by 31623; the
#: bundled table's largest order is 504.
_MAX_ORDER = 10**9


def _factor(n: int) -> dict:
    if n > _MAX_ORDER:
        raise ResourceLimit(f"cyclic order {n} is above 10**9, the largest factored")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def _prime_power_key(q: int) -> tuple:
    """(p, e) for a prime power q = p^e > 1; DomainError otherwise.  Cached:
    a group lists each cyclic summand, and large b2 repeats a few orders
    millions of times."""
    f = _factor(q)
    if len(f) != 1:
        raise DomainError(f"torsion order {q} is not a prime power")
    ((p, e),) = f.items()
    return p, e


class FinAbGroup(Record):
    """free_rank copies of Z plus cyclic groups of prime-power order.

    The torsion tuple is canonicalized on construction, so equality of
    fields is equality of groups.

    >>> FinAbGroup.from_orders(1, [24]) == FinAbGroup(1, (8, 3))
    True
    >>> str(FinAbGroup(1, (8, 8, 3, 3, 2)))
    '(Z/24)^2 + Z/2 + Z'
    """

    def __init__(self, free_rank: int = 0, torsion: tuple = ()):
        _int_arg("free rank", free_rank, 0)
        torsion = tuple(torsion)
        for q in torsion:
            _int_arg("torsion order", q, 2)
        canon = tuple(sorted(torsion, key=_prime_power_key))
        self.__dict__.update(free_rank=free_rank, torsion=canon)

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def from_orders(cls, free_rank: int, orders: Sequence[int] = ()) -> "FinAbGroup":
        """Build from cyclic orders, splitting each into prime-power parts.

        Order 0 counts as a Z summand, order 1 as nothing.
        """
        _int_arg("free rank", free_rank, 0)
        rank = free_rank
        torsion = []
        for d in orders:
            _int_arg("cyclic order", d, 0)
            if d == 0:
                rank += 1
            elif d == 1:
                continue
            else:
                for p, e in _factor(d).items():
                    torsion.append(p**e)
        return cls(rank, tuple(torsion))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup(self.free_rank + other.free_rank, self.torsion + other.torsion)

    def power(self, e: int) -> "FinAbGroup":
        """The direct sum of e copies; ResourceLimit when its torsion summands
        would not fit in a tuple (more than sys.maxsize)."""
        _int_arg("direct-sum exponent", e, 0)
        if not self.torsion:  # () * e overflows past sys.maxsize too
            return FinAbGroup(self.free_rank * e)
        if len(self.torsion) * e > sys.maxsize:
            raise ResourceLimit(
                f"a sum of {e} copies has {len(self.torsion) * e} cyclic "
                f"summands, more than {sys.maxsize}"
            )
        return FinAbGroup(self.free_rank * e, self.torsion * e)

    def invariant_factors(self) -> list:
        """Torsion as d_1 >= d_2 >= ... with d_{i+1} | d_i."""
        by_prime = {}
        for q in self.torsion:
            p, e = _prime_power_key(q)
            by_prime.setdefault(p, []).append(e)
        for exps in by_prime.values():
            exps.sort(reverse=True)
        count = max((len(v) for v in by_prime.values()), default=0)
        factors = []
        for i in range(count):
            d = 1
            for p, exps in by_prime.items():
                if i < len(exps):
                    d *= p ** exps[i]
            factors.append(d)
        return factors

    def __str__(self):
        """Invariant-factor rendering, largest torsion first, free part last."""
        parts = []
        factors = self.invariant_factors()
        i = 0
        while i < len(factors):
            j = i
            while j < len(factors) and factors[j] == factors[i]:
                j += 1
            mult = j - i
            base = f"Z/{factors[i]}"
            parts.append(f"({base})^{mult}" if mult > 1 else base)
            i = j
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


class StemsTable(Record):
    """Sphere stems pi_n^s for n = 0..max_index; lower indices are trivial."""

    def __init__(self, entries: dict, source_note: str = ""):
        for n, group in entries.items():
            _int_arg("stem index", n, 0)
            if not isinstance(group, FinAbGroup):
                raise ValidationError(f"stem {n} must be a FinAbGroup, got {group!r}")
        for n in range(max(len(entries), 1)):
            if n not in entries:
                raise ValidationError(f"stems table is missing index {n}")
        if entries[0] != FinAbGroup(1, ()):
            raise ValidationError(f"stem 0 must be Z, got {entries[0]}")
        self.__dict__.update(entries=entries, source_note=source_note)

    @property
    def max_index(self) -> int:
        # the largest key: distinct keys >= 0, none missing below len, are 0..len - 1
        return len(self.entries) - 1

    def lookup(self, n: int) -> FinAbGroup:
        """Stem n; trivial below 0, error above max_index."""
        _int_arg("stem index", n)
        if n < 0:
            return FinAbGroup.trivial()
        if n > self.max_index:
            raise InsufficientStemsData(n, self.max_index)
        return self.entries[n]


_LINE_RE = re.compile(r"^(\d+)\s*:\s*(.+?)\s*$")


def _parse_group_expr(expr: str, where: str) -> FinAbGroup:
    """RHS grammar: `0` | terms `Z` and `Z/a` joined by `+`."""
    expr = expr.strip()
    if expr == "0":
        return FinAbGroup.trivial()
    free = 0
    orders = []
    for term in expr.split("+"):
        term = term.strip()
        if term == "Z":
            free += 1
        elif term.startswith("Z/"):
            body = term[2:].strip()
            # a numeral too long for int() is above 10**9: a resource limit
            order = (
                _numeral(f"{where}: cyclic order", body, ResourceLimit) if body.isdecimal() else 0
            )
            if order < 1:
                raise ParseError(f"{where}: bad cyclic order in {term!r}")
            orders.append(order)
        else:
            raise ParseError(f"{where}: unrecognized term {term!r}")
    return FinAbGroup.from_orders(free, orders)


def _stem_entries(source: str):
    """(where, index text, group) for each entry of a stems document: the
    group is a line's text, or whatever value the JSON entry holds."""
    if source.lstrip().startswith("{"):
        import json

        try:
            # (key, value) pairs, so that a repeated key reaches the index
            # checks; a number is read as a float, never through int(), and
            # refused below like every other value that is not a string
            doc = json.loads(source, object_pairs_hook=list, parse_int=float)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"bad JSON stems document: {exc}") from exc
        for key, val in doc:
            yield f"entry {key!r}", key, val
    else:
        for lineno, line in enumerate(source.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            m = _LINE_RE.match(line)
            if not m:
                raise ParseError(f"line {lineno}: expected `n: group`, got {line!r}")
            yield f"line {lineno}", m.group(1), m.group(2)


def load_stems_table(source: str, source_note: str = "") -> StemsTable:
    """Parse a stems document (line format `n: Z/a + Z/b`, or JSON).

    Line format: one `n: <group>` entry per line, `#` comments allowed.
    JSON: one flat object {"0": "Z", "1": "Z/2", ...} whose values are
    strings of the same grammar; it is the only JSON form.  The table's
    source_note is the argument, never read from the document.
    """
    raw = {}
    for where, index, group in _stem_entries(source):
        if not index.isdecimal():
            raise ParseError(f"{where}: index must be a nonnegative integer")
        n = _numeral(f"{where}: index", index, ParseError)
        if n in raw:
            raise ParseError(f"{where}: duplicate index {n}")
        if not isinstance(group, str):
            raise ParseError(f"{where}: value must be a JSON string")
        raw[n] = _parse_group_expr(group, where)
    if not raw:
        raise ParseError("empty stems document")
    return StemsTable(entries=raw, source_note=source_note)


@lru_cache(maxsize=None)
def bundled_stems_table() -> StemsTable:
    """The packaged reference table of stems 0..19."""
    path = os.path.join(os.path.dirname(__file__), "data", "stable_stems.txt")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return load_stems_table(text, source_note="bundled reference table, stems 0..19")


def _assemble(stems: StemsTable, contributions) -> FinAbGroup:
    total = FinAbGroup.trivial()
    for index, exponent in contributions:
        if exponent > 0:
            total = total.direct_sum(stems.lookup(index).power(exponent))
    return total


def stable_homotopy_simply_connected(betti: int, n: int, stems: StemsTable) -> FinAbGroup:
    """pi_n^s of a simply connected closed 4-manifold with b2 = betti.

    >>> str(stable_homotopy_simply_connected(2, 5, bundled_stems_table()))
    '(Z/24)^2 + Z/2 + Z'
    """
    return stable_homotopy_finite_pi1(betti, n, 1, stems)


def stable_homotopy_finite_pi1(
    pi2_rank: int, n: int, m: int, stems: StemsTable
) -> FinAbGroup:
    """Same assembly for finite fundamental group of order m (m = 1: no change)."""
    _int_arg("rank of pi_2", pi2_rank, 1)
    _int_arg("order of the fundamental group", m, 1)
    _int_arg("stable index", n, 0)
    k = pi2_rank
    return _assemble(
        stems, [(n - 2, k), (n - 3, k - 1), (n - 5, 1), (n - 1, m - 1)]
    )


def integral_low_homotopy(betti: int) -> Tuple[FinAbGroup, FinAbGroup]:
    """(pi_3, pi_4) as honest abelian groups, for b2 >= 3.

    With c = b2 - 1: pi_3 = Z^(c(c+3)/2) and
    pi_4 = Z^((c-1)(c+1)(c+3)/3) (+) (Z/2)^(2c).

    >>> tuple(str(g) for g in integral_low_homotopy(3))
    ('Z^5', '(Z/2)^4 + Z^5')
    """
    _int_arg("second Betti number", betti, 3)
    from .ranks import homotopy_ranks  # not loaded with the stems table

    _, m_2, m_3 = homotopy_ranks(betti, 3).ranks
    return FinAbGroup(m_2, ()), FinAbGroup(m_3, (2,) * (2 * (betti - 1)))
