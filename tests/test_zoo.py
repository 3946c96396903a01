import pytest

from subconj import (
    ParseError,
    center,
    construct,
    derived_subgroup,
    format_group_file,
    ingest,
    normal_subgroups,
    parse_group_file,
    quotient,
    structural_fingerprint,
)
from subconj.harness import analyze_group
from subconj.predicates import MEMBER
from subconj.zoo import (
    SEMIDIRECT_DATASETS,
    SUPPORTED_Q,
    build_semidirect_dataset,
    special_linear2,
)


def test_psl28_order_and_simplicity():
    g = construct("PSL2(8)")
    assert g.order() == 504
    assert derived_subgroup(g).order == 504  # perfect
    assert [n.order for n in normal_subgroups(g)] == [1, 504]  # simple


def test_sl25_order_and_unique_involution():
    g = construct("SL2(5)")
    assert g.order() == 120
    involutions = [x for x in g.elements() if x.order() == 2]
    assert len(involutions) == 1


def test_a5_order():
    assert construct("Alternating(5)").order() == 60


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_sl2_psl2_order_formulas(q):
    sl = construct(f"SL2({q})")
    psl = construct(f"PSL2({q})")
    assert sl.order() == q * (q - 1) * (q + 1)
    assert psl.order() == sl.order() // (2 if q % 2 else 1)
    assert sl.degree == q * q - 1
    assert psl.degree == q + 1


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_psl2_is_the_central_quotient_of_sl2(q):
    sl = construct(f"SL2({q})")
    psl = construct(f"PSL2({q})")
    q_group = quotient(sl, center(sl))
    assert structural_fingerprint(q_group) == structural_fingerprint(psl)


def test_psl24_is_a5_shaped():
    assert structural_fingerprint(construct("PSL2(4)")) == structural_fingerprint(
        construct("Alternating(5)")
    )


def test_constructors_are_deterministic():
    for name in ["SL2(7)", "PSL2(9)", "E25xSL(2,3)", "M11", "Dihedral(12)"]:
        a = construct(name)
        b = construct(name)
        assert a.generators == b.generators


# The generators over the extension fields, whose products need polynomial
# reduction and whose projective points need field inverses.
PINNED_GENERATORS = {
    "SL2(4)": [
        "(4,5)(6,7)(8,10)(9,11)(12,15)(13,14)",
        "(4,6)(5,7)(8,11)(9,10)(12,13)(14,15)",
        "(1,4)(2,8)(3,12)(6,9)(7,13)(11,14)",
    ],
    "PSL2(8)": [
        "(2,3)(4,5)(6,7)(8,9)",
        "(2,4)(3,5)(6,8)(7,9)",
        "(2,6)(3,7)(4,8)(5,9)",
        "(1,2)(4,7)(5,8)(6,9)",
    ],
    "PSL2(9)": [
        "(2,3,4)(5,6,7)(8,9,10)",
        "(2,5,8)(3,6,9)(4,7,10)",
        "(1,2)(3,4)(6,9)(7,10)",
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_GENERATORS))
def test_extension_field_generators_are_pinned(name):
    assert [str(g) for g in construct(name).generators] == PINNED_GENERATORS[name]


@pytest.mark.parametrize(
    "name,order",
    [
        ("E25xSL(2,3)", 600),
        ("E4xC3", 12),
        ("E8xC7", 56),
        ("E8x(C7xC3)", 168),
        ("E32x(C31xC5)", 4960),
        ("Q8xC3", 24),
    ],
)
def test_bundled_dataset_orders(name, order):
    assert build_semidirect_dataset(name).order() == order


def test_dataset_names_are_exhaustive():
    assert sorted(SEMIDIRECT_DATASETS) == [
        "E25xSL(2,3)",
        "E32x(C31xC5)",
        "E4xC3",
        "E8x(C7xC3)",
        "E8xC7",
        "Q8xC3",
    ]


def test_unknown_dataset_rejected():
    with pytest.raises(ValueError, match="unknown dataset"):
        build_semidirect_dataset("E49xQ8")


def test_unknown_id_rejected():
    with pytest.raises(ValueError, match="unknown group id"):
        construct("Monster()")


def test_unsupported_field_size_rejected():
    with pytest.raises(ValueError, match="unsupported field size"):
        special_linear2(32)


def test_minimal_group_file():
    g = parse_group_file("degree 2\n(1,2)\n")
    assert g.order() == 2


def test_group_file_with_comments_and_order():
    text = """# sample
degree 4
order 4  # the Klein four group
(1,2)(3,4)
(1,3)(2,4)
"""
    assert parse_group_file(text).order() == 4


def test_m11_ingests_to_the_right_order():
    g = construct("M11")
    assert g.order() == 7920
    assert g.degree == 11


def test_malformed_cycle_reports_its_line():
    text = "degree 4\n(1,2)(3,4)\n(1,2\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_group_file(text)


def test_missing_degree_rejected():
    with pytest.raises(ParseError, match="degree"):
        parse_group_file("(1,2)\n")


def test_declared_order_mismatch_rejected():
    with pytest.raises(ValueError, match="declared order"):
        parse_group_file("degree 3\norder 5\n(1,2,3)\n")


def test_degree_out_of_range_rejected():
    with pytest.raises(ParseError, match="outside"):
        parse_group_file("degree 300\n(1,2)\n")
    with pytest.raises(ParseError) as info:
        parse_group_file("# no points\ndegree 0\n")
    assert str(info.value) == "line 2: degree 0 outside 1..256"


def test_round_trip_through_group_file(tmp_path):
    g = construct("SL2(3)")
    path = tmp_path / "sl23.grp"
    path.write_text(format_group_file(g, comment="SL2(3)"), encoding="utf-8")
    again = ingest(path)
    assert again.order() == 24
    assert again.generators == g.generators


def test_a_product_past_the_file_degree_builds_and_analyses():
    # Cyclic(255)*Cyclic(2) acts on 257 points: the library builds and
    # analyses it, and only its group file is refused
    g = construct("Cyclic(255)*Cyclic(2)")
    assert (g.degree, g.order()) == (257, 510)
    assert set(analyze_group(g, "C510").verdicts.values()) == {MEMBER}
    with pytest.raises(ValueError, match="degree must be in 1..256, got 257"):
        format_group_file(g)


def test_product_ids():
    g = construct("Alternating(5)*Cyclic(7)")
    assert g.order() == 420
    g = construct("Cyclic(2)*Cyclic(3)*Cyclic(5)")
    assert g.order() == 30
