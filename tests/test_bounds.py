from fractions import Fraction
from types import SimpleNamespace

import pytest

from torsioncosets import bounds
from torsioncosets.bounds import (
    check_soft_bounds,
    evertse_schmidt_bound,
    hypersurface_c1,
    hypersurface_c2,
    area_point_bound,
    newton_polygon_area,
    paper_constants,
    plane_curve_bound,
    rescale_degree_bound,
    slice_degree_bound,
    torsion_count_bound,
    torsion_counts_by_dimension,
    variety_c3,
    variety_c4,
)


def test_evertse_schmidt_examples():
    # independent one-line evaluations
    assert evertse_schmidt_bound(2, 1) == 14641 * 3 ** 27
    assert evertse_schmidt_bound(1, 1) == 11 * 2 ** 12
    assert evertse_schmidt_bound(2, 2) > evertse_schmidt_bound(2, 1)


def test_plane_curve_examples():
    assert plane_curve_bound(3) == 102
    assert plane_curve_bound(1) == 12
    assert area_point_bound(0) == 0
    assert area_point_bound(Fraction(3, 2)) == 33


def test_hypersurface_constants():
    assert hypersurface_c2(2) == 2
    assert hypersurface_c2(3) == 14
    assert hypersurface_c2(4) == 75
    c1 = hypersurface_c1(2)
    assert c1.factors == ((2, Fraction(150)),)
    assert c1.value() == 2 ** 150
    # odd n gives a non-integral exponent: kept symbolic
    c1_3 = hypersurface_c1(3)
    assert c1_3.factors[0][1] == Fraction(3, 2) * 5 * 125
    assert c1_3.value() is None


def test_degree_bounds():
    assert rescale_degree_bound(2, 3) == 72
    assert slice_degree_bound(2, 1) == 18
    assert rescale_degree_bound(3, 1) == 9 * 24
    assert slice_degree_bound(3, 2) == 3 * 4 * 2 + 2 * 2 * 8 * 6 * 8


def test_variety_constants():
    # c4 recurrence matches a direct loop up to n = 6
    for n in range(2, 7):
        direct = Fraction(0)
        for i in range(2, n + 1):
            direct += Fraction(49 * 5 ** (i - 2) - 4 * i - 9, 16) * 2 ** (n - i)
        direct += 2 ** (n - 1)
        assert variety_c4(n) == direct
    assert variety_c4(2) == hypersurface_c2(2) + 2
    c3 = variety_c3(2)
    # empty interior sum at n = 2: just n^0 * c1(2)
    assert c3.value() == 2 ** 150


def test_torsion_count_recurrence():
    assert torsion_count_bound(1, 5) == 5
    assert torsion_count_bound(2, 3) == 102
    t3 = torsion_count_bound(3, 1)
    m = 3 ** 20
    expect = 6 ** 4 * plane_curve_bound(m) * plane_curve_bound(m)
    assert t3 == expect
    # monotone in d
    assert torsion_count_bound(3, 2) > torsion_count_bound(3, 1)


def test_torsion_counts_by_dimension():
    assert torsion_counts_by_dimension(1, 7) == {0: 7}
    assert torsion_counts_by_dimension(2, 3) == {0: 99, 1: 3}
    table = torsion_counts_by_dimension(3, 1)
    assert set(table) == {0, 1, 2}
    assert table[2] == 1
    m = 2 ** 4 - 1
    cs = slice_degree_bound(3, 1)
    sub_slice = torsion_counts_by_dimension(2, cs)
    sub_res = torsion_counts_by_dimension(2, 2)
    pos = sub_res[1]
    assert table[0] == m * (sub_slice[0] * pos + 1 * sub_res[0])
    assert table[1] == m * (sub_slice[1] * pos + sub_res[0])


def test_newton_polygon_area():
    assert newton_polygon_area([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 2)
    assert newton_polygon_area([(0, 0), (2, 0), (0, 2), (1, 1)]) == 2
    assert newton_polygon_area([(0, 0), (1, 1), (2, 2)]) == 0
    assert newton_polygon_area([(5, 5)]) == 0


def test_catalog_and_soft_bounds():
    cat = paper_constants(2, 3, support=[(0, 0), (3, 0), (0, 3)])
    assert cat.eq4 == 102
    assert cat.vol2 == Fraction(9, 2)
    assert cat.eq3 == evertse_schmidt_bound(2, 3)
    d = cat.as_dict()
    assert d["thm1"]["c2"] == "2"

    from torsioncosets.poly import LaurentPolynomial
    from torsioncosets.solver import hypersurface_cosets
    f = LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
    rep = hypersurface_cosets(f)
    assert check_soft_bounds(rep, 2, 1) == []

    with pytest.raises(ValueError):
        paper_constants(1, 1)
    with pytest.raises(ValueError):
        hypersurface_c2(1)


def test_soft_bounds_skip_the_general_bound_below_its_first_factor(monkeypatch):
    def unreachable(n, d):
        raise AssertionError("general bound materialized")

    monkeypatch.setattr(bounds, "evertse_schmidt_bound", unreachable)
    rep = SimpleNamespace(cosets=[None] * 11 ** 4)
    assert check_soft_bounds(rep, 3, 1) == []
    with pytest.raises(AssertionError):
        check_soft_bounds(SimpleNamespace(cosets=[None] * (11 ** 4 + 1)), 2, 1)


def test_soft_bounds_above_the_first_factor_still_warn(monkeypatch):
    # 11^4 + 1 cosets at n = 2, d = 1: above (11 d)^(n^2), below eq3
    rep = SimpleNamespace(cosets=[None] * (11 ** 4 + 1))
    assert check_soft_bounds(rep, 2, 1) == [
        "count 14642 exceeds the plane bound 12"]
    monkeypatch.setattr(bounds, "evertse_schmidt_bound", lambda n, d: 11 ** 4)
    assert check_soft_bounds(rep, 2, 1) == [
        "count 14642 exceeds the general bound 14641",
        "count 14642 exceeds the plane bound 12"]
