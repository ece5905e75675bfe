"""LocalizedElement.sum_of_products against a frozen copy of the per-product sum.

The reference reduces every product on its own, p D^-m * q D^-l as
nf(p sigma^-m(q)) at exponent m+l, and then sums the reduced products
with one more normal form; this is how FreeModuleMap.compose and apply
summed before they folded an entry's products into one normal form.
Normal words are a basis and the representative is canonical, so the two
must agree exactly on numerator and exponent, and the certified-degree
guard must raise in both or in neither.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.complexes import FreeModuleMap
from hopfcheck.errors import ExceedsCertifiedDegree
from hopfcheck.foundation import NCPoly
from hopfcheck.hopf import LocalizedElement, build_gab, build_glq, build_slq_laurent, seeded_pair


# -- frozen reference ----------------------------------------------------------

def _ref_product(x, y):
    alg = x.alg
    q = alg.sigma_poly(y.num, -x.exp) if x.exp else y.num
    return LocalizedElement(alg, alg.rs.normal_form(x.num * q), x.exp + y.exp)


def _ref_sum(alg, terms):
    terms = [t for t in terms if t.num.d]
    if not terms:
        return alg.zero()
    m = max(t.exp for t in terms)
    d = {}
    for t in terms:
        pad = (alg.loc,) * (m - t.exp)
        for w, c in t.num.d.items():
            d[w + pad] = d.get(w + pad, 0) + c
    return LocalizedElement(alg, alg.rs.normal_form(NCPoly(d)), m)


def _ref_sum_of_products(alg, pairs):
    return _ref_sum(alg, [_ref_product(x, y) for x, y in pairs
                          if not (x.is_zero() or y.is_zero())])


def _outcome(f, *args):
    """("value", numerator dict, exponent) or ("raises",)."""
    try:
        le = f(*args)
    except ExceedsCertifiedDegree:
        return ("raises",)
    return ("value", le.num.d, le.exp)


# -- algebras and strategies ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def _alg(name):
    """GL_q(2), the seeded n = 2 G(A,B) (σ ≠ id) and O(SL_q(2))[z^±1], at
    degree 6; the last has inhomogeneous relations and a weight-1 z."""
    if name == "glq":
        return build_glq(2, 6)
    if name == "gab2":
        return build_gab(*seeded_pair(1, n=2), 6, name="G(A2,B2)")
    return build_slq_laurent(2, 6)


ALGS = ["glq", "gab2", "slql"]
COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
                          Fraction(1, 2), Fraction(-2, 3)])
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def _words(alg, max_weight):
    return st.lists(st.integers(0, alg.ngens() - 1), max_size=max_weight).map(tuple).filter(
        lambda w: alg.order.weight(w) <= max_weight)


def _loc(alg, max_weight, max_exp):
    """A localized element of alg, normal-formed from a random numerator;
    an empty numerator gives a zero entry."""
    return st.builds(
        lambda d, e: alg.elt(NCPoly(d), e),
        st.dictionaries(_words(alg, max_weight), COEFFS, max_size=3),
        st.integers(0, max_exp))


def _pairs(alg, max_weight, max_exp):
    return st.lists(st.tuples(_loc(alg, max_weight, max_exp), _loc(alg, max_weight, max_exp)),
                    max_size=5)


# -- the comparisons -----------------------------------------------------------

@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_sum_of_products_matches_per_product_sum(name, data):
    """Light pairs with mixed exponents and zero entries: every padded word
    has weight at most 1 + 1 + 2 * 2 = 6, so every sum folds."""
    alg = _alg(name)
    pairs = data.draw(_pairs(alg, 1, 1))
    got = LocalizedElement.sum_of_products(alg, pairs)
    want = _ref_sum_of_products(alg, pairs)
    assert got.exp == want.exp and got.num.d == want.num.d


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_sum_of_products_raises_with_the_per_product_sum(name, data):
    """Heavy pairs, whose padded words pass the certified degree 6 for some
    draws: both paths raise, or both give the same value."""
    alg = _alg(name)
    pairs = data.draw(_pairs(alg, 4, 2))
    assert (_outcome(LocalizedElement.sum_of_products, alg, pairs)
            == _outcome(_ref_sum_of_products, alg, pairs))


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_compose_and_apply_match_per_product_sums(name, data):
    """2 x 2 maps with entries of weight up to 2 at exponent 0 or 1 beside
    entries at exponent 0, so that a padded word weighs at most 6."""
    alg = _alg(name)
    entries = data.draw(st.lists(st.lists(_loc(alg, 2, 1), min_size=2, max_size=2),
                                 min_size=2, max_size=2))
    then = data.draw(st.lists(st.lists(_loc(alg, 2, 0), min_size=2, max_size=2),
                              min_size=2, max_size=2))
    for side in ("right", "left"):
        f, g = FreeModuleMap(alg, side, entries), FreeModuleMap(alg, side, then)
        got = f.compose(g).entries
        for s in range(2):
            for u in range(2):
                pairs = [(g.entries[t][u], f.entries[s][t]) if side == "right"
                         else (f.entries[s][t], g.entries[t][u]) for t in range(2)]
                want = _ref_sum_of_products(alg, pairs)
                assert got[s][u].exp == want.exp and got[s][u].num.d == want.num.d
        image = f.apply(then[0])
        for t in range(2):
            pairs = [(f.entries[s][t], then[0][s]) if side == "right"
                     else (then[0][s], f.entries[s][t]) for s in range(2)]
            want = _ref_sum_of_products(alg, pairs)
            assert image[t].exp == want.exp and image[t].num.d == want.num.d


# -- the guard, on hand-picked sums --------------------------------------------

def test_padding_past_the_degree_falls_back():
    """On GL_q(2) at degree 6: (u^5, 1) padded by D to the other pair's
    exponent 1 has weight 7, but that pair, D^-1 * D, reduces to 1 at
    exponent 0; the per-product sum never pads u^5, and neither may the fold."""
    alg = _alg("glq")
    u5 = alg.elt(NCPoly.term((0,) * 5))
    D = alg.loc_elt()
    pairs = [(u5, alg.one()), (alg.loc_inv_elt(), D)]
    got = LocalizedElement.sum_of_products(alg, pairs)
    assert got == u5 + alg.one()
    assert _outcome(LocalizedElement.sum_of_products, alg, pairs) == \
        _outcome(_ref_sum_of_products, alg, pairs)


def test_heavy_sum_raises_on_both_paths():
    """(u^4, 1) padded by D^2 has weight 8 > 6, and the per-product sum pads
    it as well: both raise."""
    alg = _alg("glq")
    u4 = alg.elt(NCPoly.term((0,) * 4))
    dinv = alg.loc_inv_elt()
    pairs = [(u4, alg.one()), (dinv, dinv)]
    with pytest.raises(ExceedsCertifiedDegree):
        LocalizedElement.sum_of_products(alg, pairs)
    with pytest.raises(ExceedsCertifiedDegree):
        _ref_sum_of_products(alg, pairs)


def test_inhomogeneous_product_below_the_degree():
    """On O(SL_q(2))[z^±1] ad - q bc = 1 lowers a product's weight; a fold
    within the degree gives the per-product value."""
    alg = _alg("slql")
    a, b, c, d = (alg.gen_elt(i) for i in range(4))
    pairs = [(a, d), (-2 * b, c), (alg.loc_inv_elt(), alg.loc_elt())]
    got = LocalizedElement.sum_of_products(alg, pairs)
    want = _ref_sum_of_products(alg, pairs)
    assert got.exp == want.exp and got.num.d == want.num.d
    assert LocalizedElement.sum_of_products(alg, []).is_zero()
    assert LocalizedElement.sum_of_products(alg, [(alg.zero(), a)]).is_zero()


# -- zero-skipping compose against the dense sum ---------------------------------

def _dense_compose(f, then, twist=None):
    """FreeModuleMap.compose as it was: every (row, k, column) pair, zeros
    included, into one sum_of_products per output entry."""
    first = f.entries
    if twist is not None:
        first = [[a if a.is_zero() else twist.apply_loc(a) for a in row] for row in first]
    right = f.side == "right"
    return [[LocalizedElement.sum_of_products(f.alg, [
                (b, a) if right else (a, b)
                for a, b in zip(row, (then_row[u] for then_row in then.entries))])
             for u in range(then.tgt_rank)]
            for row in first]


def _sparse_entry(alg):
    """Mostly zero; else a scalar, a normal-formed element or one built from
    a raw numerator (its normal bit unset), of weight <= 2 at exponent <= 1."""
    numerators = st.dictionaries(_words(alg, 2), COEFFS, min_size=1, max_size=3)
    return st.one_of(
        st.just(alg.zero()), st.just(alg.zero()), st.just(alg.zero()),
        COEFFS.map(lambda c: c * alg.one()),
        st.builds(lambda d, e: alg.elt(NCPoly(d), e), numerators, st.integers(0, 1)),
        st.builds(lambda d, e: LocalizedElement(alg, NCPoly(d), e), numerators,
                  st.integers(0, 1)))


def _sparse_map(alg, side, rows, cols):
    return st.lists(st.lists(_sparse_entry(alg), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda e: FreeModuleMap(alg, side, e))


def _compose_matches_dense(alg, hopf, data):
    side = data.draw(st.sampled_from(["right", "left"]))
    twist = hopf.nakayama_nu[0] if data.draw(st.booleans()) else None
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    f, g = data.draw(_sparse_map(alg, side, r, k)), data.draw(_sparse_map(alg, side, k, c))
    try:
        want = _dense_compose(f, g, twist)
    except ExceedsCertifiedDegree:
        with pytest.raises(ExceedsCertifiedDegree):
            f.compose(g, twist)
        return
    got = f.compose(g, twist).entries
    assert [[(list(e.num.c.items()), e.num.den, e.exp) for e in row] for row in got] == \
        [[(list(e.num.c.items()), e.num.den, e.exp) for e in row] for row in want]
    assert all(e.normal or e.is_zero() for row in got for e in row)


@SETTINGS
@given(data=st.data())
def test_sparse_compose_matches_dense_glq8(glq8, glq8_hopf, data):
    """Random maps over GL_q(2) at degree 8, either side, with or without
    the Nakayama twist: the same entries as the dense sum, key order
    included."""
    _compose_matches_dense(glq8, glq8_hopf, data)


@SETTINGS
@given(data=st.data())
def test_sparse_compose_matches_dense_n3(n3, n3_hopf, data):
    """The same over the seeded n = 3 G(A,B) at degree 6, where a padded
    word can pass the certified degree: both raise, or both agree."""
    _compose_matches_dense(n3, n3_hopf, data)
