import numpy as np
import pytest
from fractions import Fraction

from holonet.level_one import (
    e6_level_one,
    level_one_datum,
    spin_level_one,
    su_level_one,
    theory_datum,
)
from holonet.modular import sun_datum


def test_all_tables_pass_datum_invariants(level_one_data):
    for datum in level_one_data.values():
        assert max(datum.residuals.values()) < 1e-9


def test_su_m_one_data():
    d = su_level_one(5)
    assert d.c == 4
    assert d.mu_exact == 5
    assert d.h_exact("y2") == Fraction(3, 5)
    assert d.h_exact("y1") == Fraction(2, 5)
    assert d.fuse("y2", "y4") == {"y1": 1}
    assert d.conj("y2") == "y3"
    d3 = su_level_one(3)
    assert [str(d3.h_exact(y)) for y in d3.labels] == ["0", "1/3", "1/3"]
    d2 = su_level_one(2)
    assert d2.h_exact("y1") == Fraction(1, 4)


def test_su_level_one_matches_first_principles():
    # the table must agree with the Kac-Peterson computation at level 1
    for m in (3, 4, 5):
        kp = sun_datum(m, 1)
        tab = su_level_one(m)
        # lexicographic weight order lists the vacuum, then e_{m-1}, ..., e_1
        perm = [0] + list(range(m - 1, 0, -1))
        assert np.abs(kp.S[np.ix_(perm, perm)] - tab.S).max() < 1e-12
        for j in range(1, m):
            weight = kp.labels[perm[j]]
            assert weight.conformal_weight() == tab.h_exact(f"y{j}")


def test_spin_odd_is_ising_shaped():
    d = spin_level_one(7)
    assert d.c == Fraction(7, 2)
    assert [str(d.h_exact(x)) for x in d.labels] == ["0", "1/2", "7/16"]
    assert abs(d.mu - 4) < 1e-12
    assert d.fuse("s", "s") == {"1": 1, "v": 1}
    assert d.fuse("v", "s") == {"s": 1}
    assert abs(d.dim("s") - np.sqrt(2.0)) < 1e-12
    assert d.dim_sq[2] == 2
    d5 = spin_level_one(5)
    assert d5.h_exact("s") == Fraction(5, 16)
    assert abs(d5.mu - 4) < 1e-12


def test_spin_even_fusion_split():
    d20 = spin_level_one(20)
    assert d20.h_exact("s") == Fraction(5, 4)
    assert d20.c == 10
    assert d20.fuse("s", "s") == {"1": 1}           # Klein group for N = 0 mod 4
    assert d20.fuse("s", "s'") == {"v": 1}
    assert d20.conj("s") == "s"
    d10 = spin_level_one(10)
    assert d10.fuse("s", "s") == {"v": 1}           # Z4 for N = 2 mod 4
    assert d10.conj("s") == "s'"
    assert abs(d10.mu - 4) < 1e-12


def test_spin6_matches_su4_level_one():
    # Spin(6) = SU(4): same h multiset and mu
    s6 = spin_level_one(6)
    s41 = su_level_one(4)
    assert sorted(map(s6.h_exact, s6.labels)) == sorted(map(s41.h_exact, s41.labels))
    assert abs(s6.mu - s41.mu) < 1e-12


def test_e6_table():
    d = e6_level_one()
    assert d.c == 6
    assert [str(d.h_exact(x)) for x in d.labels] == ["0", "2/3", "2/3"]
    assert d.mu_exact == 3
    assert d.fuse("27", "27") == {"27*": 1}
    assert d.fuse("27", "27*") == {"1": 1}
    assert d.conj("27") == "27*"


def test_kind_parsing():
    assert level_one_datum("su5_1").name == "su5_1"
    assert level_one_datum("spin7_1").name == "spin7_1"
    assert level_one_datum("e6_1").name == "e6_1"
    with pytest.raises(ValueError):
        level_one_datum("su5_2")
    with pytest.raises(ValueError):
        level_one_datum("g2_1")
    with pytest.raises(ValueError):
        level_one_datum("e6777_1")


def test_theory_tokens_share_one_grammar():
    assert theory_datum("su3_2") is sun_datum(3, 2)
    assert theory_datum(" SU5_1 ") is su_level_one(5)
    assert theory_datum("spin7_1") is spin_level_one(7)
    assert theory_datum("e6_1") is e6_level_one()
    for bad in ("su_2", "spin_1", "e66_1", "g2_1", "su3_", "su3_1x"):
        with pytest.raises(ValueError, match=f"cannot parse theory token '{bad}'"):
            theory_datum(bad)
        with pytest.raises(ValueError, match=f"cannot parse theory token '{bad}'"):
            level_one_datum(bad)
    with pytest.raises(ValueError, match="only level 1 is table-driven"):
        theory_datum("spin7_2")
