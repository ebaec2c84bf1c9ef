"""Finite abelian groups, stems tables, and the stable-range assembly."""

import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fourfold import (
    DomainError,
    FinAbGroup,
    InsufficientStemsData,
    ParseError,
    ResourceLimit,
    StemsTable,
    ValidationError,
    bundled_stems_table,
    homotopy_ranks,
    integral_low_homotopy,
    load_stems_table,
    stable_homotopy_finite_pi1,
    stable_homotopy_simply_connected,
)
from fourfold.cli import cmd_stable
from refimpl import marker_table, stem_exponents


def test_group_canonical_order_is_primary_decomposition():
    g = FinAbGroup.from_orders(0, [12, 2])
    # 12 splits into prime powers 4 and 3; sort key is (prime, exponent)
    assert g.torsion == (2, 4, 3)
    assert g.free_rank == 0


def test_from_orders_zero_means_a_free_summand():
    g = FinAbGroup.from_orders(0, [0, 0, 6])
    assert g.free_rank == 2
    assert g.torsion == (2, 3)


def test_from_orders_drops_trivial_factors():
    assert FinAbGroup.from_orders(0, [1, 1]) == FinAbGroup.trivial()
    assert FinAbGroup.trivial().is_trivial()


def test_orders_above_a_billion_are_not_factored():
    assert FinAbGroup.from_orders(0, [10**9]).torsion == (2**9, 5**9)
    message = "cyclic order 99999999999999999999... is above 10**9, the largest factored"
    with pytest.raises(ResourceLimit) as exc:
        FinAbGroup.from_orders(0, [99999999999999999999999999989])
    assert str(exc.value) == message
    with pytest.raises(ResourceLimit):
        FinAbGroup(0, (2**31,))


def test_torsion_entries_must_be_prime_powers():
    with pytest.raises(DomainError):
        FinAbGroup(free_rank=0, torsion=(6,))


def test_invariant_factor_rendering():
    assert str(FinAbGroup.from_orders(0, [24, 24, 2, 0])) == "(Z/24)^2 + Z/2 + Z"
    assert str(FinAbGroup.trivial()) == "0"
    assert str(FinAbGroup(free_rank=3)) == "Z^3"
    assert str(FinAbGroup.from_orders(0, [2])) == "Z/2"


def test_invariant_factors_recover_orders():
    g = FinAbGroup.from_orders(0, [240, 240, 2])
    assert g.invariant_factors() == [240, 240, 2]
    assert g.torsion == (2, 16, 16, 3, 3, 5, 5)


@given(st.lists(st.integers(min_value=0, max_value=60), max_size=6))
def test_direct_sum_is_commutative_and_canonical(orders):
    a = FinAbGroup.from_orders(0, orders)
    b = FinAbGroup.from_orders(0, [8, 9])
    assert a.direct_sum(b) == b.direct_sum(a)


def test_power_repeats_every_summand():
    g = FinAbGroup.from_orders(0, [0, 4])
    assert g.power(3) == FinAbGroup.from_orders(0, [0, 0, 0, 4, 4, 4])
    assert g.power(0) == FinAbGroup.trivial()


def test_power_past_a_tuple_is_a_resource_limit():
    big = sys.maxsize + 1
    # no torsion: only the free rank is multiplied
    assert FinAbGroup(3).power(big) == FinAbGroup(3 * big)
    assert FinAbGroup.trivial().power(big) == FinAbGroup.trivial()
    with pytest.raises(ResourceLimit, match=f"has {big} cyclic summands, more than"):
        FinAbGroup(1, (2,)).power(big)
    with pytest.raises(ResourceLimit):
        FinAbGroup(0, (2, 3)).power(sys.maxsize // 2 + 1)


def test_group_json_shape():
    # stems 3 (Z/24 = Z/8 + Z/3) three times, 2 (Z/2) twice and 0 (Z) once,
    # torsion in canonical order: by prime, then exponent
    assert cmd_stable(3, 5, 1).payload["group"] == {
        "free_rank": 1,
        "torsion": [2, 2, 8, 8, 8, 3, 3, 3],
    }


# stems tables


def test_bundled_table_spans_0_to_19():
    t = bundled_stems_table()
    assert t.max_index == 19
    assert str(t.lookup(0)) == "Z"
    assert str(t.lookup(1)) == "Z/2"
    assert str(t.lookup(3)) == "Z/24"
    assert t.lookup(4).is_trivial()
    assert str(t.lookup(7)) == "Z/240"
    assert str(t.lookup(11)) == "Z/504"
    assert t.lookup(15) == FinAbGroup.from_orders(0, [480, 2])
    assert t.lookup(19) == FinAbGroup.from_orders(0, [264, 2])


def test_no_caller_can_change_a_table_under_another():
    # the bundled table is one object shared by the process, and a table
    # built from a mapping keeps the stems, not the caller's mapping
    pi_5 = "(Z/24)^2 + Z/2 + Z"
    shared = bundled_stems_table()
    assert isinstance(shared.entries, tuple)
    with pytest.raises(TypeError):
        shared.entries[3] = FinAbGroup(5, ())
    assert str(stable_homotopy_finite_pi1(2, 5, 1, bundled_stems_table())) == pi_5
    mapping = dict(enumerate(shared.entries))
    table = StemsTable(mapping, shared.source_note)
    mapping[3] = FinAbGroup(5, ())
    assert table == shared and hash(table) == hash(shared)
    assert str(stable_homotopy_finite_pi1(2, 5, 1, table)) == pi_5


def test_lookup_below_zero_is_trivial():
    assert bundled_stems_table().lookup(-3).is_trivial()


def test_lookup_past_the_table_is_an_error():
    t = bundled_stems_table()
    with pytest.raises(InsufficientStemsData) as exc:
        t.lookup(20)
    assert exc.value.index == 20
    assert exc.value.max_index == 19


def test_line_format_parsing():
    text = "# comment\n0: Z\n1: Z/2\n2: Z/2 + Z/2\n"
    t = load_stems_table(text, source_note="inline")
    assert t.max_index == 2
    assert t.lookup(2) == FinAbGroup.from_orders(0, [2, 2])


def test_json_format_parsing():
    blob = json.dumps({"0": "Z", "1": "Z/2", "2": "0"})
    t = load_stems_table(blob)
    assert t.max_index == 2
    assert t.lookup(2).is_trivial()


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(ParseError, match="^bad JSON stems document: maximum recursion"):
        load_stems_table('{"0": ' + "[" * 200_000 + "]" * 200_000 + "}")


@given(st.integers(0, 40), st.randoms(use_true_random=False), st.booleans())
def test_max_index_is_the_largest_key_of_a_loaded_table(top, rng, as_json):
    # max_index is not stored, and each stem sits at its index in the tuple
    # of stems, in whatever order the document lists them
    groups = {0: "Z", **{n: rng.choice(["0", "Z", "Z/2", "Z/24 + Z/2"]) for n in range(1, top + 1)}}
    order = list(groups)
    rng.shuffle(order)
    if as_json:
        text = json.dumps({str(n): groups[n] for n in order})
    else:
        text = "".join(f"{n}: {groups[n]}\n" for n in order)
    t = load_stems_table(text)
    assert t.max_index == len(t.entries) - 1 == top
    assert [str(g) for g in t.entries] == [groups[n] for n in range(top + 1)]
    assert str(t.lookup(top)) == groups[top]
    with pytest.raises(InsufficientStemsData, match=f"table ends at {top}$"):
        t.lookup(top + 1)


def test_parse_rejects_gaps():
    with pytest.raises(ValidationError):
        load_stems_table("0: Z\n2: Z/2\n")


def test_parse_rejects_duplicates():
    with pytest.raises(ParseError):
        load_stems_table("0: Z\n0: Z/2\n")
    # json.loads alone would keep the last value of a repeated key
    with pytest.raises(ParseError, match="^entry '1': duplicate index 1$"):
        load_stems_table('{"0": "Z", "1": "Z/2", "1": "Z/3"}')
    with pytest.raises(ParseError, match="^entry '01': duplicate index 1$"):
        load_stems_table('{"0": "Z", "1": "Z/2", "01": "Z/3"}')


def test_parse_rejects_garbage_group_expression():
    with pytest.raises(ParseError):
        load_stems_table("0: Z\n1: Z/\n")


def test_parse_rejects_superscript_digits():
    # str.isdigit accepts the superscript two, which int() rejects
    with pytest.raises(ParseError, match=r"^line 2: bad cyclic order in 'Z/²'$"):
        load_stems_table("0: Z\n1: Z/²\n")
    with pytest.raises(ParseError, match="^entry '²': index must be a nonnegative integer$"):
        load_stems_table(json.dumps({"0": "Z", "²": "Z/2"}, ensure_ascii=False))


def test_index_zero_must_be_infinite_cyclic():
    with pytest.raises(ValidationError):
        load_stems_table("0: Z/2\n1: Z/2\n")


# assembly


def test_assembly_matches_hand_computation():
    stems = bundled_stems_table()
    g5 = stable_homotopy_simply_connected(2, 5, stems)
    assert g5.free_rank == 1
    assert g5.torsion == (2, 8, 8, 3, 3)
    assert str(g5) == "(Z/24)^2 + Z/2 + Z"

    g2 = stable_homotopy_simply_connected(2, 2, stems)
    assert g2 == FinAbGroup(free_rank=2)


def test_each_torsion_order_is_factored_once(monkeypatch):
    from fourfold import stable

    stems = bundled_stems_table()  # parsed before counting starts
    factored = []
    factor = stable._factor
    monkeypatch.setattr(stable, "_factor", lambda n: factored.append(n) or factor(n))
    stable._prime_power_key.cache_clear()
    group = stable_homotopy_simply_connected(1000, 5, stems)
    assert str(group) == "(Z/24)^1000 + (Z/2)^999 + Z"
    assert len(group.torsion) == 2999
    # every summand is sorted, then keyed again by invariant_factors
    assert len(factored) <= len(set(group.torsion)) == 3


def test_assembly_rejects_bad_betti():
    with pytest.raises(DomainError, match="rank of pi_2 must be >= 1, got 0"):
        stable_homotopy_simply_connected(0, 5, bundled_stems_table())


def test_assembly_raises_when_stems_run_out():
    stems = bundled_stems_table()
    with pytest.raises(InsufficientStemsData):
        stable_homotopy_simply_connected(2, 22, stems)
    # n = 21 only needs stems up to 19
    assert stable_homotopy_simply_connected(2, 21, stems) is not None


def test_finite_fundamental_group_adds_one_block():
    stems = bundled_stems_table()
    for table in (stems, marker_table()):
        for k in range(1, 13):
            for n in range(22):
                assert stable_homotopy_simply_connected(k, n, table) == (
                    stable_homotopy_finite_pi1(k, n, 1, table)
                ), (k, n)
    plain = stable_homotopy_finite_pi1(2, 6, 1, stems)

    with_pi1 = stable_homotopy_finite_pi1(2, 6, 5, stems)
    # four extra copies of the (n-1)-stem
    extra = stems.lookup(5).power(4)
    assert with_pi1 == plain.direct_sum(extra)


def test_assembly_takes_each_stem_its_number_of_times():
    # stem i of the marker table is Z/p_i, so the group names its stems
    table = marker_table()
    for k in range(1, 13):
        for n in range(22):
            for m in range(1, 7):
                expected = {}
                for index, copies in ((n - 2, k), (n - 3, k - 1), (n - 5, 1), (n - 1, m - 1)):
                    if index >= 0 and copies:
                        expected[index] = expected.get(index, 0) + copies
                group = stable_homotopy_finite_pi1(k, n, m, table)
                assert stem_exponents(group) == expected, (k, n, m)
    # by hand: pi_6 at k = 2, m = 3 takes stems 4 and 5 twice, 3 and 1 once
    group = stable_homotopy_finite_pi1(2, 6, 3, table)
    assert stem_exponents(group) == {1: 1, 3: 1, 4: 2, 5: 2}


def test_integral_low_degrees():
    pi3, pi4 = integral_low_homotopy(3)
    assert str(pi3) == "Z^5"
    assert str(pi4) == "(Z/2)^4 + Z^5"
    with pytest.raises(DomainError):
        integral_low_homotopy(2)
    for betti in range(3, 13):
        pi3, pi4 = integral_low_homotopy(betti)
        ranks = homotopy_ranks(betti, 3)
        assert (pi3.free_rank, pi4.free_rank) == (ranks.rank(2), ranks.rank(3))
        assert pi4.torsion == (2,) * (2 * betti - 2)
