from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from holonet.catalogs import catalog
from holonet.level_one import level_one_datum, spin_level_one, su_level_one
from holonet.modular import SectorVector, sun_datum
from holonet.products import (
    MAX_PRODUCT_LABELS,
    ProductTheory,
    UnsupportedFusionError,
    tensor_product,
)


def small_product():
    return tensor_product(su_level_one(2), su_level_one(3))


def test_product_shape_and_labels():
    prod = small_product()
    assert prod.size == 6
    assert prod.vacuum == ("y0", "y0")
    assert prod.labels[0] == ("y0", "y0")
    assert prod.c == 1 + 2
    assert prod.mu_exact == 6
    with pytest.raises(ValueError):
        ProductTheory([su_level_one(2)])


def test_product_h_and_dims():
    prod = small_product()
    label = ("y1", "y2")
    assert prod.h_exact(label) == Fraction(1, 4) + Fraction(1, 3)
    assert prod.h_mod1(label) == Fraction(7, 12)
    assert prod.dim(label) == 1.0
    assert prod.dim_sq_of(label) == 1
    assert prod.conj(label) == ("y1", "y1")


def test_product_fusion_componentwise():
    prod = tensor_product(su_level_one(2), spin_level_one(7))
    out = prod.fuse(("y1", "s"), ("y1", "s"))
    assert out == {("y0", "1"): 1, ("y0", "v"): 1}


def test_apply_s_matches_dense_kronecker():
    prod = small_product()
    dense = np.kron(su_level_one(2).S, su_level_one(3).S)
    rng = np.random.default_rng(7)
    v = rng.normal(size=prod.size)
    assert np.abs(prod.apply_s(v) - dense @ v).max() < 1e-12
    for label in prod.labels:
        col = prod.s_column(label)
        assert np.abs(col - dense[:, prod.index[label]]).max() < 1e-12


def test_apply_s_three_factors():
    su2 = su_level_one(2)
    prod = tensor_product(su2, su2, su2)
    dense = np.kron(np.kron(su2.S, su2.S), su2.S)
    v = np.arange(8.0)
    assert np.abs(prod.apply_s(v) - dense @ v).max() < 1e-12


KRONECKER_CASES = {
    "two": lambda: (sun_datum(3, 2), su_level_one(2)),
    "three": lambda: (sun_datum(2, 3), su_level_one(3), spin_level_one(7)),
    "four": lambda: (sun_datum(3, 2), su_level_one(2), su_level_one(3), su_level_one(2)),
}


def _bits(array):
    return np.ascontiguousarray(array).view(float)


@pytest.mark.parametrize("case", KRONECKER_CASES)
def test_s_block_is_dense_kronecker_bit_for_bit(case):
    factors = KRONECKER_CASES[case]()
    prod = tensor_product(*factors)
    dense = factors[0].S
    for f in factors[1:]:
        dense = np.kron(dense, f.S)
    width = prod.size // prod.shape[0]
    for a, label in enumerate(factors[0].labels):
        block = prod.s_block(label)
        assert block.shape == (prod.size, width)
        assert np.array_equal(_bits(block), _bits(dense[:, a * width : (a + 1) * width]))
    for label in prod.labels:
        column = prod.s_column(label)
        assert np.array_equal(_bits(column), _bits(dense[:, prod.index[label]]))


def test_catalog_products_refuse_s():
    prod = tensor_product(catalog("su10_2"), su_level_one(5))
    with pytest.raises(UnsupportedFusionError):
        prod.apply_s(np.zeros(prod.size))
    with pytest.raises(UnsupportedFusionError):
        prod.s_column(prod.vacuum)
    with pytest.raises(UnsupportedFusionError):
        prod.s_block(prod.vacuum[0])
    assert prod.h_exact(prod.vacuum) is None  # catalogs carry h mod 1 only
    assert prod.mu_exact == 100


THEORIES = {
    "wzw": lambda: sun_datum(2, 3),
    "level-one": lambda: level_one_datum("su3_1"),
    "catalog": lambda: catalog("su10_2"),
    "catalog-x-level-one": lambda: tensor_product(
        catalog("su10_2"), level_one_datum("su3_1")
    ),
}


@pytest.mark.parametrize("kind", THEORIES)
def test_one_theory_interface(kind):
    theory = THEORIES[kind]()
    vac = theory.vacuum
    assert theory.labels[theory.index[vac]] == vac
    assert theory.c > 0
    for label in (vac, theory.labels[-1]):
        assert theory.fuse(vac, label) == {label: 1}
        assert theory.h_mod1(theory.conj(label)) == theory.h_mod1(label)
        sq = theory.dim_sq_of(label)
        assert sq is None or abs(sq - theory.dim(label) ** 2) < 1e-9
        h = theory.h_exact(label)
        assert (h is None) == kind.startswith("catalog")
        assert h is None or h % 1 == theory.h_mod1(label)
    if kind == "catalog":
        assert theory.S is None
    elif isinstance(theory, ProductTheory):
        with pytest.raises(UnsupportedFusionError):
            theory.apply_s(np.zeros(theory.size))
    else:
        assert theory.S.shape == (len(theory.labels),) * 2


def test_wzw_product_mu_not_exact():
    prod = tensor_product(sun_datum(2, 10), su_level_one(2))
    assert prod.mu_exact is None
    assert abs(prod.mu - 2 * (48 + 24 * np.sqrt(3.0))) < 1e-9
    assert prod.dim_sq_of(prod.vacuum) is None


def test_sector_vector_over_product():
    prod = small_product()
    vec = SectorVector(prod, {("y1", "y1"): 2})
    assert vec.as_vector().sum() == 2
    assert vec.conjugate().mult == {("y1", "y2"): 2}


class _CountOnly:
    """Two labels that may be counted but not enumerated."""

    def __len__(self):
        return 2

    def __iter__(self):
        raise AssertionError("factor labels enumerated")


def test_product_label_count_is_bounded_before_enumeration():
    assert 2**18 <= MAX_PRODUCT_LABELS < 2**19
    factor = SimpleNamespace(name="su2_1", labels=_CountOnly())
    with pytest.raises(ValueError) as err:
        ProductTheory([factor] * 19)
    assert str(err.value) == (
        "a product of 19 factors has 524,288 labels, over the "
        f"{MAX_PRODUCT_LABELS:,}-label limit"
    )
    with pytest.raises(ValueError, match="524,288 labels"):
        tensor_product(*[su_level_one(2)] * 19)
