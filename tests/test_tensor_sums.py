"""The tensor layer against frozen copies of its term-at-a-time versions.

The reference functions below are the arithmetic that TensorElt and
LocalizedElement had before they reduced one slot at a time and summed in
one dict: a normal form per slot per term, a product built pair by pair,
and sums folded with a normal form per partial sum.  Normal words are a
basis, so a LocalizedElement has one representation (numerator and
exponent) and the two must agree exactly, not just up to equality.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.complexes import Complex, FreeModuleMap, identity_map
from hopfcheck.errors import ExceedsCertifiedDegree, IdentityFailed
from hopfcheck.foundation import NCPoly, TensorPoly
from hopfcheck.hopf import (
    LocalizedElement,
    TensorElt,
    build_gab,
    build_glq,
    build_slq_laurent,
    hopf_structure,
    seeded_pair,
)
from hopfcheck.ydmod import build_comodule, check_yd_morphism

ONE = Fraction(1)


# -- frozen reference ----------------------------------------------------------

def _ref_slotwise(polys, c=ONE):
    d = {}
    for combo in itertools.product(*(p.terms() for p in polys)):
        coeff = c
        for _, cc in combo:
            coeff *= cc
        d[tuple(w for w, _ in combo)] = coeff
    return TensorPoly(len(polys), d)


def _ref_reduce(te):
    out = TensorPoly(te.arity())
    for ws, c in te.tp.terms():
        out = out + _ref_slotwise([alg.rs.normal_form(NCPoly.term(w))
                                   for alg, w in zip(te.algs, ws)], c)
    return TensorElt(te.algs, te.exps, out)


def _ref_aligned(te, exps):
    pads = tuple(e - f for e, f in zip(exps, te.exps))
    if not any(pads):
        return te.tp
    d = {}
    for words, c in te.tp.terms():
        key = tuple(w + (te.algs[i].loc,) * pads[i] if pads[i] else w
                    for i, w in enumerate(words))
        d[key] = d.get(key, 0) + c
    return TensorPoly(te.arity(), d)


def _ref_tensor_add(a, b):
    exps = tuple(max(e, f) for e, f in zip(a.exps, b.exps))
    return TensorElt(a.algs, exps, _ref_aligned(a, exps) + _ref_aligned(b, exps))


def _ref_tensor_mul(a, b):
    k = a.arity()
    exps = tuple(e + f for e, f in zip(a.exps, b.exps))
    out = TensorPoly(k)
    for ws, c in a.tp.terms():
        for vs, d in b.tp.terms():
            out = out + _ref_slotwise([
                NCPoly.term(ws[i]) * (a.algs[i].sigma_word(vs[i], -a.exps[i])
                                      if a.exps[i] else NCPoly.term(vs[i]))
                for i in range(k)], c * d)
    return TensorElt(a.algs, exps, out)


def _ref_loc_add(a, b):
    alg = a.alg
    m = max(a.exp, b.exp)
    loc = alg.loc
    p = a.num * NCPoly.term((loc,) * (m - a.exp)) if m > a.exp else a.num
    q = b.num * NCPoly.term((loc,) * (m - b.exp)) if m > b.exp else b.num
    return LocalizedElement(alg, alg.rs.normal_form(p + q), m)


def _ref_loc_fold(alg, terms):
    acc = alg.zero()
    for t in terms:
        acc = _ref_loc_add(acc, t)
    return acc


def _ref_tensor_fold(algs, terms):
    acc = TensorElt.zero(algs)
    for t in terms:
        acc = _ref_tensor_add(acc, t)
    return acc


def _ref_mul_slots(te):
    alg = te.algs[0]
    out = alg.zero()
    for (w1, w2), c in te.tp.terms():
        out = _ref_loc_add(out, c * (alg.elt(NCPoly.term(w1), te.exps[0]) *
                                     alg.elt(NCPoly.term(w2), te.exps[1])))
    return out


def _ref_loc_eq(a, b):
    return _ref_loc_add(a, (-1) * b).is_zero()


# -- algebras and strategies ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def _alg(name):
    """GL_q(2), the seeded n = 2 G(A,B) with A = [[0,1],[2,0]] and
    O(SL_q(2))[z^±1], each at degree 6.  σ is the identity on the first and
    the last; on the second it scales b by 1/4 and c by 4, so σ^-e is seen."""
    if name == "glq":
        return build_glq(2, 6)
    if name == "gab2":
        return build_gab(*seeded_pair(1, n=2), 6, name="G(A2,B2)")
    return build_slq_laurent(2, 6)


ALGS = ["glq", "gab2", "slql"]
COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
                          Fraction(1, 2), Fraction(-2, 3)])


def _words(alg, max_weight):
    """Words in alg's letters (the localized one included) of bounded weight."""
    return st.lists(st.integers(0, alg.ngens() - 1), max_size=max_weight).map(tuple).filter(
        lambda w: alg.order.weight(w) <= max_weight)


def _tensor(alg, arity, max_weight, max_exp=2):
    """An unreduced tensor over alg with slot exponents up to max_exp."""
    key = st.tuples(*[_words(alg, max_weight)] * arity)
    return st.builds(
        lambda exps, d: TensorElt((alg,) * arity, exps, TensorPoly(arity, d)),
        st.tuples(*[st.integers(0, max_exp)] * arity),
        st.dictionaries(key, COEFFS, max_size=4))


def _loc(alg, max_weight, max_exp):
    """A localized element of alg, normal-formed from a random numerator."""
    return st.builds(
        lambda d, e: alg.elt(NCPoly(d), e),
        st.dictionaries(_words(alg, max_weight), COEFFS, max_size=4),
        st.integers(0, max_exp))


def _same_tensor(got, want):
    assert got.algs == want.algs and got.exps == want.exps and got.tp.d == want.tp.d


def _same_loc(got, want):
    assert got.exp == want.exp and got.num.d == want.num.d


SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


# -- the comparisons -----------------------------------------------------------

@pytest.mark.parametrize("name", ALGS)
@pytest.mark.parametrize("arity", [2, 3])
@SETTINGS
@given(data=st.data())
def test_reduce_matches_per_term_reference(name, arity, data):
    alg = _alg(name)
    te = data.draw(_tensor(alg, arity, 6 if arity == 2 else 4))
    _same_tensor(te.reduce(), _ref_reduce(te))
    assert te.is_zero() == _ref_reduce(te).tp.is_zero()


@pytest.mark.parametrize("name", ALGS)
@pytest.mark.parametrize("arity", [2, 3])
@SETTINGS
@given(data=st.data())
def test_product_matches_pairwise_reference(name, arity, data):
    alg = _alg(name)
    a = data.draw(_tensor(alg, arity, 3))
    b = data.draw(_tensor(alg, arity, 3))
    prod = a * b
    _same_tensor(prod, _ref_tensor_mul(a, b))
    _same_tensor(prod.reduce(), _ref_reduce(_ref_tensor_mul(a, b)))


@pytest.mark.parametrize("name", ALGS)
@pytest.mark.parametrize("arity", [2, 3])
@SETTINGS
@given(data=st.data())
def test_tensor_sum_matches_fold(name, arity, data):
    """Sums of terms with mixed exponents, zero terms included."""
    alg = _alg(name)
    algs = (alg,) * arity
    terms = data.draw(st.lists(_tensor(alg, arity, 2), max_size=5))
    got = TensorElt.sum(algs, terms)
    _same_tensor(got, _ref_tensor_fold(algs, terms))
    _same_tensor(got.reduce(), _ref_reduce(_ref_tensor_fold(algs, terms)))
    if len(terms) >= 2:
        _same_tensor(terms[0] + terms[1], _ref_tensor_add(terms[0], terms[1]))


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_localized_sum_matches_fold(name, data):
    """Sums of localized elements with mixed exponents, as one normal form
    and as the old fold with a normal form per partial sum."""
    alg = _alg(name)
    terms = data.draw(st.lists(_loc(alg, 2, 2), max_size=6))
    _same_loc(LocalizedElement.sum(alg, terms), _ref_loc_fold(alg, terms))
    if len(terms) >= 2:
        _same_loc(terms[0] + terms[1], _ref_loc_add(terms[0], terms[1]))
        _same_loc(terms[0] - terms[1], _ref_loc_add(terms[0], (-1) * terms[1]))


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_mul_slots_matches_reference(name, data):
    alg = _alg(name)
    te = data.draw(_tensor(alg, 2, 2))
    _same_loc(te.mul_slots(), _ref_mul_slots(te))


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_localized_eq_fallback(name, data):
    """Equal representations take the fast path; everything else, and in
    particular every unequal pair, is decided by the difference."""
    alg = _alg(name)
    a = data.draw(_loc(alg, 2, 2))
    b = data.draw(_loc(alg, 2, 2))
    assert (a == b) == _ref_loc_eq(a, b)
    assert (a != b) == (not _ref_loc_eq(a, b))
    # the same element with a numerator that is not in normal form: only
    # the fallback can see that it is equal
    raw = LocalizedElement(alg, a.num + alg.rs.rules[0].poly(), a.exp)
    assert raw.num.d != a.num.d
    assert raw == a and a == raw
    assert (raw == b) == _ref_loc_eq(a, b)


# -- the certified-degree guard ------------------------------------------------

def test_localized_sum_guards_present_words():
    """Padding to the largest exponent can push a present word past the
    certified degree; the sum then raises, a cancelled word does not."""
    alg = _alg("glq")
    u4 = alg.elt(NCPoly.term((0, 0, 0, 0)))  # weight 4
    dinv2 = LocalizedElement(alg, NCPoly.one(), 2)
    with pytest.raises(ExceedsCertifiedDegree):
        LocalizedElement.sum(alg, [u4, dinv2])  # u^4 D^2 has weight 8 > 6
    high = LocalizedElement(alg, NCPoly.term((0,) * 7), 0)
    assert LocalizedElement.sum(alg, [high, (-1) * high]).is_zero()
    with pytest.raises(ExceedsCertifiedDegree):
        LocalizedElement.sum(alg, [high, alg.one()])


@pytest.mark.parametrize("slot", [0, 1])
def test_tensor_reduce_guards_present_words(slot):
    alg = _alg("glq")
    words = [(0,), (1,)]
    words[slot] = (0,) * 7
    te = TensorElt((alg, alg), (0, 0), TensorPoly(2, {tuple(words): ONE}))
    with pytest.raises(ExceedsCertifiedDegree):
        te.reduce()
    with pytest.raises(ExceedsCertifiedDegree):
        (te + TensorElt.unit((alg, alg))).is_zero()


def test_tensor_reduce_skips_words_beside_a_zero_factor():
    """A slot-0 factor that reduces to 0 kills its terms before slot 1 is
    reduced, so their slot-1 words are not guarded."""
    alg = _alg("glq")
    rule = alg.rs.rules[0]
    high = (0,) * 7
    d = {(rule.lead, high): ONE}
    for w, c in rule.tail.terms():
        d[(w, high)] = -c
    te = TensorElt((alg, alg), (0, 0), TensorPoly(2, d))
    assert te.is_zero()
    swapped = TensorElt((alg, alg), (0, 0), TensorPoly(2, {(v, u): c for (u, v), c in d.items()}))
    with pytest.raises(ExceedsCertifiedDegree):
        swapped.reduce()


# -- fail closed on shapes -----------------------------------------------------

def test_compose_rejects_a_rank_mismatch():
    alg = _alg("glq")
    with pytest.raises(IdentityFailed):
        identity_map(alg, "right", 3).compose(identity_map(alg, "right", 2))
    with pytest.raises(IdentityFailed):
        identity_map(alg, "right", 2).compose(identity_map(alg, "left", 2))
    with pytest.raises(IdentityFailed):
        identity_map(alg, "right", 2).apply([alg.one()])


def test_complex_rejects_a_rank_mismatch():
    alg = _alg("glq")
    eps = hopf_structure(alg).eps
    with pytest.raises(IdentityFailed):
        Complex(alg, "right", [identity_map(alg, "right", 3), identity_map(alg, "right", 2)])
    two_to_one = FreeModuleMap(alg, "right", [[alg.one()], [alg.one()]])
    wide = Complex(alg, "right", [identity_map(alg, "right", 2)], augmentation=eps)
    with pytest.raises(IdentityFailed):
        wide.is_complex()
    assert Complex(alg, "right", [two_to_one], augmentation=eps).is_complex()["ok"] is False


def test_yd_morphism_rejects_a_shape_mismatch():
    alg = _alg("glq")
    H = hopf_structure(alg)
    V = build_comodule("fundamental", H)
    k = build_comodule("trivial", H)
    with pytest.raises(IdentityFailed):
        check_yd_morphism(identity_map(alg, "right", 2), V, k)
    assert check_yd_morphism(identity_map(alg, "right", 2), V, V)["ok"]
