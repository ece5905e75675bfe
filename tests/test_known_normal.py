"""Known-normal elements against the full normal-form path.

An element whose numerator came out of a normal form carries the
``normal`` bit, and the Hopf layer then skips the normal forms it would
only repeat: sums of such elements at one exponent, the memoized 1 and
generators, one-term images under a generator map and the first letter of
a word's image.  Each shortcut must give what the normal form gives: the
same numerator, coefficient for coefficient and key for key in the same
order, and the same exponent.  The references below are the code paths
that take every normal form.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.foundation import NCPoly, combine
from hopfcheck.hopf import (
    AlgebraMap,
    Character,
    LocalizedElement,
    TensorElt,
    apply_slot,
    build_gab,
    build_glq,
    build_slq_laurent,
    hopf_structure,
    seeded_pair,
)
from hopfcheck.rewrite import RewriteSystem


@functools.lru_cache(maxsize=None)
def _alg(name):
    """GL_q(2) at degree 6, the seeded n = 2 G(A,B) at degree 6 (σ not the
    identity) and O(SL_q(2))[z^±1] at degree 8."""
    if name == "glq":
        return build_glq(2, 6)
    if name == "gab2":
        return build_gab(*seeded_pair(1, n=2), 6, name="G(A2,B2)")
    return build_slq_laurent(2, 8)


@functools.lru_cache(maxsize=None)
def _hopf(name):
    return hopf_structure(_alg(name))


ALGS = ["glq", "gab2", "slql8"]
COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
                          Fraction(1, 2), Fraction(-2, 3)])
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def _words(alg, max_weight):
    return st.lists(st.integers(0, alg.ngens() - 1), max_size=max_weight).map(tuple).filter(
        lambda w: alg.order.weight(w) <= max_weight)


def _raw(alg, max_weight, max_exp):
    """An element built from a random, mostly unreduced numerator."""
    return st.builds(lambda d, e: LocalizedElement(alg, NCPoly(d), e),
                     st.dictionaries(_words(alg, max_weight), COEFFS, max_size=4),
                     st.integers(0, max_exp))


# -- the full normal-form references ---------------------------------------------

def _ref_combine(alg, den, parts):
    """LocalizedElement.combine as it was, with a normal form on every sum."""
    parts = [(n, t) for n, t in parts if t.num.c]
    if not parts:
        return alg.zero()
    m = max(t.exp for _, t in parts)
    forms = [(n, ({w + (alg.loc,) * (m - t.exp): x for w, x in t.num.c.items()}, t.num.den))
             for n, t in parts]
    return LocalizedElement(alg, alg.rs.normal_form(NCPoly.of(*combine(den, forms))), m)


def _ref_word(f, word):
    """The image of word under a generator map: the unit times every image."""
    acc = f._unit()
    for g in (reversed(word) if f.variance < 0 else word):
        acc = acc * f.images[g]
    return acc


def _ref_poly(f, p):
    if isinstance(f, Character):
        # a word's image is its value times den^len(word)
        v = sum(Fraction(n * _ref_word(f, w), p.den * f.den ** len(w)) for w, n in p.c.items())
        return v.numerator, v.denominator
    parts = [(n, _ref_word(f, w)) for w, n in p.c.items()]
    if isinstance(f, AlgebraMap):
        return _ref_combine(f.targets[0], p.den, parts)
    return f._combine(p.den, parts)


def _same(got, want):
    """Equal representations, key order included."""
    if isinstance(want, LocalizedElement):
        assert (list(got.num.c.items()), got.num.den, got.exp) == \
            (list(want.num.c.items()), want.num.den, want.exp)
    elif isinstance(want, TensorElt):
        assert (got.algs, got.exps, list(got.tp.c.items()), got.tp.den) == \
            (want.algs, want.exps, list(want.tp.c.items()), want.tp.den)
    else:
        assert type(got) is type(want) and got == want


def _is_normal_form(le):
    """le is 0 or carries the bit, and its numerator is its own normal form."""
    assert le.normal or le.is_zero()
    _same(le, LocalizedElement(le.alg, le.alg.rs.normal_form(le.num), le.exp))


# -- the shortcuts -----------------------------------------------------------------

@pytest.mark.parametrize("name", ALGS)
def test_memoized_one_and_generators_are_their_normal_forms(name):
    alg = _alg(name)
    for le, p in [(alg.one(), NCPoly.one())] + [(alg.gen_elt(g), NCPoly.gen(g))
                                                for g in range(alg.ngens())]:
        _same(le, LocalizedElement(alg, alg.rs.normal_form(p), 0))
        _is_normal_form(le)
    assert alg.one().num is alg.one().num


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_sums_of_known_normal_terms_match_the_normal_form(name, data):
    """Known-normal terms at one exponent are added without a normal form,
    mixed exponents and raw terms take one; every sum is the reference's."""
    alg = _alg(name)
    e = data.draw(st.integers(0, 2))
    nums = data.draw(st.lists(st.dictionaries(_words(alg, 2), COEFFS, max_size=4),
                              min_size=1, max_size=5))
    terms = [alg.elt(NCPoly(d), e) for d in nums]
    coeffs = data.draw(st.lists(st.sampled_from([1, -1, 2, -3]), min_size=len(terms),
                                max_size=len(terms)))
    den = data.draw(st.integers(1, 4))
    parts = list(zip(coeffs, terms))
    got = LocalizedElement.combine(alg, den, parts)
    _same(got, _ref_combine(alg, den, parts))
    _is_normal_form(got)
    raw = data.draw(_raw(alg, 2, 2))
    _same(LocalizedElement.combine(alg, den, parts + [(1, raw)]),
          _ref_combine(alg, den, parts + [(1, raw)]))
    a, b = terms[0], terms[-1]
    for got, want in [(a + b, _ref_combine(alg, 1, [(1, a), (1, b)])),
                      (a - b, _ref_combine(alg, 1, [(1, a), (-1, b)])),
                      (-a, _ref_combine(alg, 1, [(-1, a)])),
                      (Fraction(-2, 3) * a, _ref_combine(alg, 3, [(-2, a)]))]:
        _same(got, want)
        _is_normal_form(got)


def _reduces(f, *args):
    """f(*args) and the number of RewriteSystem.reduce calls it made."""
    calls = []
    real = RewriteSystem.reduce
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "reduce", lambda rs, p: calls.append(p) or real(rs, p))
        out = f(*args)
    return out, len(calls)


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_scalar_times_known_normal_sums_take_no_normal_form(name, data):
    """Scalars times known-normal elements at one exponent, the scalar on
    either side, sum without a normal form to the sum of the reduced
    products; a product of operands with their bits unset, or one at a
    higher exponent, takes the normal form again, with the same value."""
    alg = _alg(name)
    e = data.draw(st.integers(0, 2))
    nums = data.draw(st.lists(st.dictionaries(_words(alg, 2), COEFFS, min_size=1, max_size=4),
                              min_size=1, max_size=4))
    pairs = []
    for d in nums:
        x, y = data.draw(COEFFS) * alg.one(), alg.elt(NCPoly(d), e)
        if y.num.c:
            pairs.append((x, y) if data.draw(st.booleans()) else (y, x))
    if not pairs:
        return
    want = _ref_combine(alg, 1, [(1, x * y) for x, y in pairs])
    got, calls = _reduces(LocalizedElement.sum_of_products, alg, pairs)
    # a numerator ending in D cancels it, so its element may sit below e
    exps = {x.exp + y.exp for x, y in pairs}
    assert calls == (0 if len(exps) == 1 else 1)
    _same(got, want)
    _is_normal_form(got)
    i = data.draw(st.integers(0, len(pairs) - 1))
    x, y = pairs[i]
    raw = pairs[:i] + [(LocalizedElement(alg, x.num, x.exp),
                        LocalizedElement(alg, y.num, y.exp))] + pairs[i + 1:]
    higher = LocalizedElement(alg, alg.gen_elt(0).num, max(exps) + 1, normal=True)
    for others in (raw, pairs + [(2 * alg.one(), higher)]):
        got, calls = _reduces(LocalizedElement.sum_of_products, alg, others)
        assert calls == 1
        assert got == _ref_combine(alg, 1, [(1, x * y) for x, y in others])


@pytest.mark.parametrize("name", ALGS)
def test_one_raw_operand_forces_the_normal_form(name):
    """2 times a generator takes no normal form when the generator carries
    the bit, and one when the same generator is built raw; a constant's own
    bit does not matter."""
    alg = _alg(name)
    two, g = 2 * alg.one(), alg.gen_elt(0)
    raw_g, raw_two = LocalizedElement(alg, g.num, 0), LocalizedElement(alg, two.num, 0)
    for pairs, want in [([(two, g)], 0), ([(g, raw_two)], 0), ([(two, raw_g)], 1),
                        ([(raw_g, two), (g, two)], 1)]:
        got, calls = _reduces(LocalizedElement.sum_of_products, alg, pairs)
        assert calls == want
        _same(got, _ref_combine(alg, 1, [(1, x * y) for x, y in pairs]))


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_generator_map_images_match_the_normal_form(name, data):
    """apply_word from the first image and apply_poly of one term, for S, ε
    and Δ, against the unit times every image and the full sum."""
    alg = _alg(name)
    H = _hopf(name)
    word = data.draw(_words(alg, 3))
    c = data.draw(COEFFS)
    for f in (H.antipode, H.eps, H.delta):
        _same(f.apply_word(word), _ref_word(f, word))
        p = NCPoly.term(word, c)
        _same(f.apply_poly(p), _ref_poly(f, p))
        q = NCPoly({word: c, (): Fraction(1, 2)})
        _same(f.apply_poly(q), _ref_poly(f, q))
    _is_normal_form(H.antipode.apply_word(word))
    _is_normal_form(H.antipode.apply_poly(NCPoly.term(word, c)))


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_raw_built_elements_never_carry_the_bit(name, data):
    """An element built from a raw polynomial, and its multiples and
    negation, has the bit unset; a map whose images are raw normal-forms
    its first image."""
    alg = _alg(name)
    raw = data.draw(_raw(alg, 3, 2))
    for le in (raw, -raw, 2 * raw, alg.loc_inv_elt()):
        assert not le.normal
    # the generators with unreduced numerators: lead - tail of a rule added
    rule = alg.rs.rules[0].poly()
    images = [LocalizedElement(alg, NCPoly.gen(g) + rule, 0) for g in range(alg.ngens())]
    assert not any(img.normal for img in images)
    f = AlgebraMap(alg, alg, images, 1, alg.loc_inv_elt(), name="raw id")
    word = data.draw(_words(alg, 3))
    got = f.apply_word(word)
    _same(got, _ref_word(f, word))
    _same(got, alg.elt(NCPoly.term(word)))
    _is_normal_form(got)


@pytest.mark.parametrize("name", ALGS)
def test_tensor_exits_and_products_are_known_normal(name):
    alg = _alg(name)
    H = _hopf(name)
    for g in range(alg.ngens()):
        te = H.delta.images[g]
        _is_normal_form(apply_slot(te, 1, H.eps).to_loc())
        _is_normal_form(apply_slot(te, 0, H.antipode).mul_slots())
        _is_normal_form(alg.gen_elt(g) * alg.gen_elt(g))
        _is_normal_form(LocalizedElement.sum_of_products(
            alg, [(alg.gen_elt(g), alg.one()), (alg.one(), alg.gen_elt(g))]))
