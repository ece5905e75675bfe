"""Presentations of the GL(2)-type quantum groups and their Hopf machinery.

An algebra is presented on the letters u_11..u_nm plus (usually) a group-like
normal element D of weight 2; the inverse D^-1 never enters the rewrite
alphabet.  Instead every element is carried as p * D^-m with p in the
D-positive subalgebra (LocalizedElement), using the commutation
D*x = sigma(x)*D to move denominators around.

Every map is given on generators: a Character (a scalar per generator, e.g.
ε), an AlgebraMap (an element per generator, e.g. S, or a winding) or a
DeltaMap (a tensor square per generator, e.g. Δ or a cocomposition).  Each
extends to words, polynomials and p * D^-m the same way, and
``apply_slot`` applies any of them to one slot of a tensor, which is how
(ε ⊗ id)Δ, m(S ⊗ id)Δ, (Δ ⊗ id)Δ and the windings are formed.
"""

import random
from fractions import Fraction
from functools import cached_property

from .errors import HopfcheckError, IdentityFailed, UnitCollapse
from .foundation import (Mat, MonomialOrder, NCPoly, TensorPoly, combine, frac, lowest_ratio,
                         lowest_terms, matrix_invariants, ratio, ratios_form)
from .rewrite import complete_with_cache


def a_q_matrix(q):
    q = frac(q)
    return Mat([[0, 1], [-q, 0]])


def sandwich(L, R, i, j, transpose=False):
    """(L u R)_ij as a polynomial in the letters u_kl = k*m + l, m = R.rows;
    with transpose=True, u is replaced by u^t (and m = L.cols)."""
    col = [r[j] for r in R.c]
    c = {((l * L.cols + k) if transpose else (k * R.rows + l),): a * b
         for k, a in enumerate(L.c[i]) if a for l, b in enumerate(col) if b}
    return NCPoly.of(*lowest_terms(c, L.den * R.den))


class PresentedAlgebra:
    """Generators, weights, relations, rewrite system and localization data."""

    def __init__(self, name, kind, names, weights, relations, rs, n, m,
                 loc=None, sigma_images=None, sigma_inv_images=None, mats=None):
        self.name = name
        self.kind = kind
        self.names = list(names)
        self.weights = tuple(weights)
        self.relations = relations
        self.rs = rs
        self.order = rs.order
        self.n = n
        self.m = m
        self.loc = loc
        self.sigma_images = sigma_images
        self.sigma_inv_images = sigma_inv_images
        self.mats = mats or {}
        self._sigma_cache = {}
        self._normal_nums = {}  # generator, or None for 1 -> its normal form

    @cached_property
    def invariants(self):
        """matrix_invariants(A, B), unless a run has set it."""
        return matrix_invariants(self.mats["A"], self.mats["B"])

    # -- generator bookkeeping ------------------------------------------------

    def u_idx(self, i, j):
        return i * self.m + j

    def ngens(self):
        return len(self.names)

    def pretty(self, p):
        return p.pretty(self.names)

    # -- sigma (conjugation by the normal element) ----------------------------

    def sigma_word(self, word, k):
        """sigma^k applied to a word, as a polynomial (k may be negative)."""
        if k == 0 or self.loc is None:
            return NCPoly.term(word)
        key = (word, k)
        hit = self._sigma_cache.get(key)
        if hit is not None:
            return hit
        images = self.sigma_images if k > 0 else self.sigma_inv_images
        p = NCPoly.one()
        for g in word:
            p = p * images[g]
        for _ in range(abs(k) - 1):
            p = self.sigma_poly(p, 1 if k > 0 else -1)
        self._sigma_cache[key] = p
        return p

    def sigma_poly(self, p, k):
        images = [(n, self.sigma_word(w, k)) for w, n in p.c.items()]
        return NCPoly.of(*combine(p.den, [(n, (s.c, s.den)) for n, s in images]))

    # -- element constructors --------------------------------------------------

    def elt(self, p, exp=0):
        return LocalizedElement(self, self.rs.normal_form(p), exp, normal=True)

    def _normal_num(self, g):
        """The normal form of generator g, or of 1 for g None, taken once."""
        hit = self._normal_nums.get(g)
        if hit is None:
            hit = self._normal_nums[g] = self.rs.normal_form(
                NCPoly.one() if g is None else NCPoly.gen(g))
        return hit

    def one(self):
        return LocalizedElement(self, self._normal_num(None), 0, normal=True)

    def zero(self):
        return LocalizedElement(self, NCPoly.zero(), 0)

    def gen_elt(self, g):
        return LocalizedElement(self, self._normal_num(g), 0, normal=True)

    def u_elt(self, i, j):
        return self.gen_elt(self.u_idx(i, j))

    def loc_elt(self):
        if self.loc is None:
            raise ValueError(f"{self.name} has no D")
        return self.gen_elt(self.loc)

    def loc_inv_elt(self):
        return LocalizedElement(self, NCPoly.one(), 1)


class LocalizedElement:
    """p * D^-m with p in normal form over the D-positive subalgebra.

    ``normal``: num came out of a normal form (or is a multiple of one that
    did); unset on an element built from a raw polynomial.
    """

    __slots__ = ("alg", "num", "exp", "normal")

    def __init__(self, alg, num, exp, normal=False):
        if exp < 0 or exp and alg.loc is None:
            raise ValueError(f"D^-{exp} in {alg.name}")
        # cancel trailing D common to every word of the numerator
        loc = alg.loc
        while exp > 0 and num.c and all(w and w[-1] == loc for w in num.c):
            num = NCPoly.of({w[:-1]: n for w, n in num.c.items()}, num.den)
            exp -= 1
        if num.is_zero():
            exp = 0
        self.alg = alg
        self.num = num
        self.exp = exp
        self.normal = normal

    def is_zero(self):
        return self.num.is_zero()

    def is_scalar(self):
        """A nonzero constant at exponent 0."""
        return not self.exp and self.num.c.keys() == {()}

    @staticmethod
    def sum(alg, terms):
        return LocalizedElement.combine(alg, 1, [(1, t) for t in terms])

    @staticmethod
    def combine(alg, den, parts):
        """The sum of n/den * t over parts [(n, t), ...] of localized
        elements of alg, with at most one normal form.

        Every nonzero term is padded to the largest exponent m (p D^-e =
        p D^(m-e) D^-m), the padded numerators are combined and the sum is
        normal-formed once.  The certified-degree guard sees the words left
        after the addition: a word whose coefficient cancels is not guarded,
        which is sound because the addition is exact in the free algebra,
        so the cancelled word is no part of what is reduced.

        Known-normal terms that need no padding sum to a combination of
        normal words, their own normal form, so none is taken.
        """
        parts = [(n, t) for n, t in parts if t.num.c]
        if not parts:
            return alg.zero()
        m = max(t.exp for _, t in parts)
        forms = [(n, (t.num.c, t.num.den) if t.exp == m else
                  ({w + (alg.loc,) * (m - t.exp): x for w, x in t.num.c.items()}, t.num.den))
                 for n, t in parts]
        p = NCPoly.of(*combine(den, forms))
        if not all(t.normal and t.exp == m for _, t in parts):
            p = alg.rs.normal_form(p)
        return LocalizedElement(alg, p, m, normal=True)

    @staticmethod
    def sum_of_products(alg, pairs):
        """The sum of x*y over pairs (x, y) of localized elements of alg,
        with one normal form.

        Each product p D^-m * q D^-l is left unreduced as p sigma^-m(q) at
        exponent m+l, padded to the largest exponent M, and the padded
        products are added in one dict and normal-formed once; nf is linear
        on words within the certified degree (diamond lemma) and the
        representative is canonical, so the value is that of summing the
        reduced products.  The sum is folded only when every padded product
        word, counted before cancellation, is within the certified degree:
        wt(p) + wt(q) + wt(D)(M-m-l) for each pair.  Otherwise each product
        is reduced on its own first, so that the guard raises
        ExceedsCertifiedDegree exactly where the per-product sum raises: the
        order is weight-graded, so neither padding nor rewriting raises a
        word's weight, and a folded sum never reduces a heavier word, so it
        is reduced unguarded.

        When every product is a scalar (a constant at exponent 0) times a
        known-normal element, all at one exponent, the sum is a combination
        of normal words, its own normal form, so none is taken.
        """
        pairs = [(x, y) for x, y in pairs if x.num.c and y.num.c]
        if not pairs:
            return alg.zero()
        m = max(x.exp + y.exp for x, y in pairs)
        order, rs, loc = alg.order, alg.rs, alg.loc
        wloc = order.weights[loc] if loc is not None else 0
        for x, y in pairs:
            if (x.num.weight(order) + y.num.weight(order) + wloc * (m - x.exp - y.exp)
                    > rs.certified_degree):
                return LocalizedElement.sum(alg, [x * y for x, y in pairs])
        forms = []
        for x, y in pairs:
            # (p D^-e)(q D^-f) = p sigma^-e(q) D^-(e+f)
            q = alg.sigma_poly(y.num, -x.exp) if x.exp else y.num
            pad, den = (loc,) * (m - x.exp - y.exp), x.num.den * q.den
            forms.extend((c, ({w + v + pad: cc for v, cc in q.c.items()}, den))
                         for w, c in x.num.c.items())
        p = NCPoly.of(*combine(1, forms))
        if not all(x.exp + y.exp == m and (x.normal and y.is_scalar() or y.normal and x.is_scalar())
                   for x, y in pairs):
            p = rs.reduce(p)
        return LocalizedElement(alg, p, m, normal=True)

    def __add__(self, other):
        if self.alg is not other.alg:
            raise ValueError("elements of two algebras")
        return LocalizedElement.sum(self.alg, (self, other))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return LocalizedElement(self.alg, -self.num, self.exp, self.normal)

    def scale(self, p, q=1):
        """p/q times self, for integers p and q > 0."""
        return LocalizedElement(self.alg, self.num.scale(p, q), self.exp, self.normal)

    def __rmul__(self, c):
        return self.scale(*ratio(c))

    def __mul__(self, other):
        if not isinstance(other, LocalizedElement):
            return self.__rmul__(other)
        if self.alg is not other.alg:
            raise ValueError("elements of two algebras")
        alg = self.alg
        # (p D^-m)(q D^-l) = p sigma^-m(q) D^-(m+l)
        q = alg.sigma_poly(other.num, -self.exp) if self.exp else other.num
        return LocalizedElement(alg, alg.rs.normal_form(self.num * q), self.exp + other.exp,
                                normal=True)

    def __pow__(self, k):
        if k < 0:
            raise ValueError(f"negative power {k}")
        out = self.alg.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, LocalizedElement):
            return False
        # identical representations are equal; only the difference can
        # tell unequal ones apart
        if self.alg is other.alg and self.exp == other.exp and self.num == other.num:
            return True
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("unhashable")

    def pretty(self):
        s = self.num.pretty(self.alg.names)
        if self.exp:
            s = f"({s})*{self.alg.names[self.alg.loc]}^-{self.exp}"
        return s

    def __repr__(self):
        return f"<{self.pretty()}>"


# ---------------------------------------------------------------------------
# tensors with per-slot localization


class TensorElt:
    """Sum of w_1 D^-e_1 x ... x w_k D^-e_k with a common exponent per slot."""

    __slots__ = ("algs", "exps", "tp")

    def __init__(self, algs, exps, tp):
        self.algs = tuple(algs)
        self.exps = tuple(exps)
        self.tp = tp
        if tp.arity != len(self.algs):
            raise ValueError("arity mismatch")

    @classmethod
    def zero(cls, algs):
        return cls(algs, (0,) * len(algs), TensorPoly(len(algs)))

    @classmethod
    def unit(cls, algs):
        return cls(algs, (0,) * len(algs), TensorPoly.unit(len(algs)))

    @classmethod
    def from_locs(cls, les):
        """le_0 (x) ... (x) le_{k-1}."""
        return cls(tuple(le.alg for le in les), tuple(le.exp for le in les),
                   TensorPoly.outer([le.num for le in les]))

    def arity(self):
        return len(self.algs)

    @classmethod
    def sum(cls, algs, terms):
        return cls.combine(algs, 1, [(1, t) for t in terms])

    @classmethod
    def combine(cls, algs, den, parts):
        """The sum of n/den * t over parts [(n, t), ...] of tensors over algs.

        Each slot takes the largest exponent of any term, zero terms
        included, and each term's words are padded with the localized
        letter up to it.  Nothing is normal-formed: that is reduce's work.
        """
        if not parts:
            return cls.zero(algs)
        exps = tuple(max(t.exps[i] for _, t in parts) for i in range(len(algs)))
        forms = []
        for n, t in parts:
            c = t.tp.c
            pads = [(alg.loc,) * (e - f) for alg, e, f in zip(algs, exps, t.exps)]
            if any(pads):
                c = {tuple(w + pad for w, pad in zip(ws, pads)): x for ws, x in c.items()}
            forms.append((n, (c, t.tp.den)))
        return cls(algs, exps, TensorPoly.of(len(algs), *combine(den, forms)))

    def __add__(self, other):
        if self.algs != other.algs:
            raise ValueError("elements of two algebras")
        return TensorElt.sum(self.algs, (self, other))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        return TensorElt(self.algs, self.exps, self.tp.__rmul__(c))

    def __mul__(self, other):
        if not isinstance(other, TensorElt):
            return self.__rmul__(other)
        if self.algs != other.algs:
            raise ValueError("elements of two algebras")
        exps = tuple(e + f for e, f in zip(self.exps, other.exps))
        # slot i: (w D^-e)(v D^-f) = w sigma^-e(v) D^-(e+f), so other's slots
        # are shifted once, only where e != 0, and then words concatenate
        right = other.tp
        for i, (alg, e) in enumerate(zip(self.algs, self.exps)):
            if e:
                right = right.map_slot(i, lambda p: alg.sigma_poly(p, -e))
        return TensorElt(self.algs, exps, self.tp * right)

    def reduce(self):
        """Slotwise normal form, one slot at a time.

        nf ⊗ ... ⊗ nf is the composite of the maps id ⊗ .. ⊗ nf ⊗ .. ⊗ id,
        and nf is linear, so slot i is reduced by map_slot, one normal form
        per group of terms.  The certified-degree guard sees the slot-i
        words of the terms left after slots 0..i-1 are reduced: a word whose
        other-slot factor reduces to 0 is not guarded, which is sound
        because that term is 0 in the tensor product of the quotients
        whatever the word is.
        """
        tp = self.tp
        for i, alg in enumerate(self.algs):
            tp = tp.map_slot(i, alg.rs.normal_form)
        return TensorElt(self.algs, self.exps, tp)

    def is_zero(self):
        return self.reduce().tp.is_zero()

    def __eq__(self, other):
        return isinstance(other, TensorElt) and (self - other).is_zero()

    def to_loc(self):
        if self.arity() != 1:
            raise ValueError("arity mismatch")
        alg = self.algs[0]
        p = NCPoly.of({ws[0]: n for ws, n in self.tp.c.items()}, self.tp.den)
        return LocalizedElement(alg, alg.rs.normal_form(p), self.exps[0], normal=True)

    def mul_slots(self):
        """Multiply the two slots of an arity-2 tensor over one algebra.

        Every term has the exponents (e, f), and (w1 D^-e)(w2 D^-f) =
        w1 sigma^-e(w2) D^-(e+f), so the products are combined and
        normal-formed once.
        """
        if self.arity() != 2 or self.algs[0] is not self.algs[1]:
            raise ValueError("not in H (x) H")
        alg = self.algs[0]
        e = self.exps[0]
        images = [(n, w1, alg.sigma_word(w2, -e)) for (w1, w2), n in self.tp.c.items()]
        p = NCPoly.of(*combine(self.tp.den, [
            (n, ({w1 + v: x for v, x in s.c.items()}, s.den)) for n, w1, s in images]))
        return LocalizedElement(alg, alg.rs.normal_form(p), e + self.exps[1], normal=True)


def apply_slot(te, slot, f):
    """Apply a generator map to one tensor slot.

    f's targets say what becomes of the slot: a Character (no targets) drops
    it, an AlgebraMap (one) replaces it, a DeltaMap (two) splits it in two.
    """
    src, e = te.algs[slot], te.exps[slot]
    arity = len(f.targets)
    algs = te.algs[:slot] + f.targets + te.algs[slot + 1 :]
    parts = {}  # slot exponents of an image -> its terms
    for ws, n in te.tp.c.items():
        img = f.apply_loc(LocalizedElement(src, NCPoly.term(ws[slot]), e))
        if arity == 2:
            exps, c, den = img.exps, img.tp.c, img.tp.den
        elif arity == 1:
            exps, c, den = (img.exp,), {(w,): x for w, x in img.num.c.items()}, img.num.den
        else:
            (x, den), exps = img, ()
            c = {(): x} if x else {}
        pre, post = ws[:slot], ws[slot + 1 :]
        parts.setdefault(te.exps[:slot] + exps + te.exps[slot + 1 :], []).append(
            (n, ({pre + vs + post: x for vs, x in c.items()}, den)))
    return TensorElt.sum(algs, [TensorElt(algs, exps, TensorPoly.of(len(algs), *combine(
        te.tp.den, p))) for exps, p in parts.items()])


# ---------------------------------------------------------------------------
# characters and algebra maps


class _GeneratorMap:
    """A map given by its images of the source's generators.

    apply_word multiplies the images (in reverse order when variance is -1),
    from _first(first letter), or the unit for the empty word; apply_poly
    scales a word's image or extends linearly with one sum.
    A subclass gives its unit, its _combine, apply_loc (the image of
    p * D^-m) and the witness respects_relations reports for a relation it
    does not kill.  A map never changes, so its verdict is kept.
    """

    variance = 1

    def __init__(self, source, targets, images, name=""):
        self.source = source
        self.targets = tuple(targets)
        self.images = list(images)
        self.name = name
        self._word_cache = {}
        self._relations_report = None

    def apply_word(self, word):
        hit = self._word_cache.get(word)
        if hit is None:
            letters = word[::-1] if self.variance < 0 else word
            hit = self._first(letters[0]) if letters else self._unit()
            for g in letters[1:]:
                hit = hit * self.images[g]
            self._word_cache[word] = hit
        return hit

    def _first(self, g):
        """unit * images[g], which is images[g] itself for a scalar or a tensor."""
        return self.images[g]

    def apply_poly(self, p):
        if len(p.c) == 1:
            (w, n), = p.c.items()
            img = self.apply_word(w)
            return img if n == p.den == 1 else self._combine(p.den, [(n, img)])
        return self._combine(p.den, [(n, self.apply_word(w)) for w, n in p.c.items()])

    def respects_relations(self):
        if self._relations_report is None:
            failures = [self._witness(i, self.apply_poly(r))
                        for i, r in enumerate(self.source.relations)]
            failures = [f for f in failures if f is not None]
            self._relations_report = {"ok": not failures, "failures": failures}
        return self._relations_report


class Character(_GeneratorMap):
    """Multiplicative unital functional sending generator g to images[g]/den,
    so apply_word gives a word's value times den^len(word); apply_poly and
    apply_loc give (numerator, denominator) in lowest terms."""

    def __init__(self, alg, values, name=""):
        c, self.den = ratios_form(map(ratio, values))
        super().__init__(alg, (), c, name)

    @classmethod
    def of(cls, alg, ratios, name=""):
        """The character sending generator g to p/q, (p, q) = ratios[g]."""
        chi = cls(alg, (), name)
        chi.images, chi.den = ratios_form(ratios)
        return chi

    @property
    def values(self):
        return [Fraction(n, self.den) for n in self.images]

    def _unit(self):
        return 1

    def apply_poly(self, p):
        den = self.den
        top = max(map(len, p.c), default=0)
        return lowest_ratio(sum(n * self.apply_word(w) * den ** (top - len(w))
                                for w, n in p.c.items()), p.den * den ** top)

    def _witness(self, i, v):
        return (i, Fraction(*v)) if v[0] else None

    def loc_value(self):
        loc = self.source.loc
        return lowest_ratio(self.images[loc], self.den) if loc is not None else (1, 1)

    def apply_loc(self, le):
        (n, d), e = self.apply_poly(le.num), le.exp
        if not e:
            return n, d
        ln, ld = self.loc_value()
        return lowest_ratio(n * ld ** e, d * ln ** e)

    def compose_map(self, f):
        """The character x -> self(f(x)) on f's source."""
        vals = [self.apply_loc(f.images[g]) for g in range(f.source.ngens())]
        return Character.of(f.source, vals, name=f"{self.name}∘{f.name}")

    def eq(self, other):
        return self.den == other.den and self.images == other.images

    def sends_u_to(self, M):
        """Whether every u_ij goes to M_ij."""
        alg = self.source
        return all(self.images[alg.u_idx(i, j)] * M.den == x * self.den
                   for i, row in enumerate(M.c) for j, x in enumerate(row))


class AlgebraMap(_GeneratorMap):
    """(Anti)homomorphism given on generators; well-definedness is checked."""

    def __init__(self, source, target, images, variance=1, loc_inv_image=None, name=""):
        super().__init__(source, (target,), images, name)
        self.variance = variance
        self.loc_inv_image = loc_inv_image

    @classmethod
    def identity(cls, alg):
        images = [alg.gen_elt(g) for g in range(alg.ngens())]
        inv = alg.loc_inv_elt() if alg.loc is not None else None
        return cls(alg, alg, images, 1, inv, name="id")

    def _unit(self):
        return self.targets[0].one()

    def _first(self, g):
        img = self.images[g]
        return img if img.normal else self._unit() * img

    def _combine(self, den, parts):
        return LocalizedElement.combine(self.targets[0], den, parts)

    def _witness(self, i, img):
        return None if img.is_zero() else (i, img.pretty())

    def apply_loc(self, le):
        body = self.apply_poly(le.num)
        if not le.exp:
            return body
        dinv = self.loc_inv_image ** le.exp
        return body * dinv if self.variance > 0 else dinv * body

    def then(self, outer):
        """Composite outer∘self as a new map."""
        images = [outer.apply_loc(le) for le in self.images]
        inv = outer.apply_loc(self.loc_inv_image) if self.loc_inv_image is not None else None
        return AlgebraMap(self.source, outer.targets[0], images,
                          self.variance * outer.variance, inv,
                          name=f"{outer.name}∘{self.name}")

    def eq_on_gens(self, other):
        if any(self.images[g] != other.images[g] for g in range(self.source.ngens())):
            return False
        if self.loc_inv_image is not None and self.loc_inv_image != other.loc_inv_image:
            return False
        return True


class DeltaMap(_GeneratorMap):
    """Map into a tensor square, e.g. a comultiplication or cocomposition.

    Its images are TensorElts; the image of the localized letter must be
    group-like, so D^-m goes to D^-m (x) D^-m.
    """

    def _unit(self):
        return TensorElt.unit(self.targets)

    def _combine(self, den, parts):
        return TensorElt.combine(self.targets, den, parts)

    def _witness(self, i, img):
        return None if img.is_zero() else i

    def apply_loc(self, le):
        te = self.apply_poly(le.num)
        if le.exp:
            te = TensorElt(te.algs, (te.exps[0] + le.exp, te.exps[1] + le.exp), te.tp)
        return te


class HopfStructure:
    """Δ, ε and S of the Hopf algebra alg, which does not point back at them,
    and the maps derived from them, each built once on first use."""

    def __init__(self, alg, delta, eps, antipode):
        self.alg = alg
        self.delta = delta
        self.eps = eps
        self.antipode = antipode

    @cached_property
    def antipode_squared(self):
        """S∘S."""
        return self.antipode.then(self.antipode)

    @cached_property
    def nakayama_nu(self):
        """(ν, η) of nakayama_nu, for a G(A,B) structure."""
        return nakayama_nu(self)


# ---------------------------------------------------------------------------
# builders


def _gab_names(n, m):
    if (n, m) == (2, 2):
        return ["a", "b", "c", "d", "D"]
    return [f"u{i+1}{j+1}" for i in range(n) for j in range(m)] + ["D"]


def _gabcd_relations(A, B, C, D, sigma_images):
    """u^t A u = C D', u D u^t = B D' on the letters u_kl = k*m + l and
    D' = n*m, plus the normality rules D' u_g = sigma_images[g] D'."""
    n, m = A.rows, C.rows
    loc = NCPoly.gen(n * m)
    return ([NCPoly.of({(k * m + i, l * m + j): x for k, row in enumerate(A.c)
                        for l, x in enumerate(row) if x}, A.den)
             - loc.scale(C.c[i][j], C.den) for i in range(m) for j in range(m)]
            + [NCPoly.of({(i * m + k, j * m + l): x for k, row in enumerate(D.c)
                          for l, x in enumerate(row) if x}, D.den)
               - loc.scale(B.c[i][j], B.den) for i in range(n) for j in range(n)]
            + [loc * NCPoly.gen(g) - sigma_images[g] * loc for g in range(n * m)])


def build_gabcd(A, B, C, D, degree_bound, name=None, cache=None):
    """The bi-Galois-object algebra G(A,B|C,D); equals G(A,B) when (C,D)=(A,B)."""
    n, m = A.rows, C.rows
    if B.rows != n or D.rows != m:
        raise ValueError("size mismatch")
    BA = B * A
    DC = D * C
    BAi = BA.inverse()
    loc = [NCPoly.gen(n * m)]
    sigma_images = [sandwich(BAi, DC, i, j) for i in range(n) for j in range(m)] + loc
    DCi = DC.inverse()
    sigma_inv = [sandwich(BA, DCi, i, j) for i in range(n) for j in range(m)] + loc
    rels = _gabcd_relations(A, B, C, D, sigma_images)

    weights = [1] * (n * m) + [2]
    order = MonomialOrder(weights, heavy={n * m})
    rs = complete_with_cache(rels, order, degree_bound, cache)
    kind = "GAB" if A == C and B == D else "GABCD"
    alg = PresentedAlgebra(
        name or kind, kind, _gab_names(n, m), weights, rels, rs, n, m,
        loc=n * m, sigma_images=sigma_images, sigma_inv_images=sigma_inv,
        mats={"A": A, "B": B, "C": C, "D": D},
    )
    _verify_sigma(alg)
    return alg


def _verify_sigma(alg):
    """sigma must respect the relations and realize D x = sigma(x) D."""
    if alg.rs.collapsed:
        return
    rep = _sigma_power_map(alg, 1).respects_relations()
    if not rep["ok"]:
        raise IdentityFailed(f"sigma breaks the presentation: {rep['failures'][:2]}")
    loc = NCPoly.gen(alg.loc)
    for g in range(alg.ngens()):
        if not alg.rs.normal_form(loc * NCPoly.gen(g) - alg.sigma_images[g] * loc).is_zero():
            raise IdentityFailed(f"D*{alg.names[g]} != sigma({alg.names[g]})*D")


def build_gab(A, B, degree_bound, name=None, cache=None):
    return build_gabcd(A, B, A, B, degree_bound, name=name, cache=cache)


def build_glq(q, degree_bound, cache=None):
    Aq = a_q_matrix(q)
    return build_gab(Aq, Aq.inverse(), degree_bound, name=f"GLq(2),q={q}", cache=cache)


def _slq_relations(q):
    """The relations of O(SL_q(2)) on the letters a, b, c, d = 0..3."""
    a, b, c, d = (NCPoly.gen(i) for i in range(4))
    one = NCPoly.one()
    return [
        a * b - q * (b * a),
        a * c - q * (c * a),
        b * c - c * b,
        b * d - q * (d * b),
        c * d - q * (d * c),
        a * d - q * (b * c) - one,
        d * a - (1 / q) * (b * c) - one,
    ]


def build_slq(q, degree_bound, cache=None):
    """O(SL_q(2)) on abar..dbar (no localization)."""
    q = frac(q)
    rels = _slq_relations(q)
    rs = complete_with_cache(rels, MonomialOrder([1, 1, 1, 1]), degree_bound, cache)
    return PresentedAlgebra(f"SLq(2),q={q}", "SLq", ["a", "b", "c", "d"], [1, 1, 1, 1],
                            rels, rs, 2, 2, mats={"q": q})


def build_slq_laurent(q, degree_bound, cache=None):
    """O(SL_q(2))[z^{±1}]: SL_q relations plus a central, group-like, localized z."""
    q = frac(q)
    z = NCPoly.gen(4)
    rels = _slq_relations(q) + [z * x - x * z for x in (NCPoly.gen(i) for i in range(4))]
    rs = complete_with_cache(rels, MonomialOrder([1, 1, 1, 1, 1], heavy={4}), degree_bound, cache)
    sigma = [NCPoly.gen(i) for i in range(5)]
    alg = PresentedAlgebra(f"SLq(2)[z±1],q={q}", "SLqLaurent", ["a", "b", "c", "d", "z"],
                           [1, 1, 1, 1, 1], rels, rs, 2, 2, loc=4, sigma_images=sigma,
                           sigma_inv_images=sigma, mats={"q": q})
    _verify_sigma(alg)
    return alg


def hopf_structure(alg):
    """The HopfStructure of G(A,B), O(SL_q(2)) or O(SL_q(2))[z^±1]; ValueError
    on a Galois object G(A,B|C,D), which has none.

    G(A,B) is the diagonal object C(X,X) of the cogroupoid: its Δ and S are
    the cocomposition Δ^X_{X,X} and the antipode S_{X,X}.  O(SL_q(2)) is on
    the matrix (a b; c d) of coefficients, and z is central and group-like.
    """
    if alg.kind == "GAB":
        eps = Character(alg, [int(i == j) for i in range(alg.n) for j in range(alg.n)] + [1],
                        name="ε")
        return HopfStructure(alg, cocomposition(alg, alg, alg), eps, galois_s_map(alg, alg))
    if alg.kind not in ("SLq", "SLqLaurent"):
        raise ValueError(f"{alg.name} is a {alg.kind} algebra, which has no Hopf structure")
    q = alg.mats["q"]
    delta = [TensorElt((alg, alg), (0, 0), TensorPoly.of(2, {
        ((2 * i + k,), (2 * k + j,)): 1 for k in range(2)}))
        for i in range(2) for j in range(2)]
    eps = [1, 0, 0, 1]
    s_images = [alg.gen_elt(3), (-1 / q) * alg.gen_elt(1), (-q) * alg.gen_elt(2), alg.gen_elt(0)]
    inv = None
    if alg.kind == "SLqLaurent":
        inv = z = alg.loc_elt()
        delta.append(TensorElt.from_locs((z, z)))
        eps.append(1)
        s_images.append(alg.loc_inv_elt())
    return HopfStructure(alg, DeltaMap(alg, (alg, alg), delta, name="Δ"),
                         Character(alg, eps, name="ε"),
                         AlgebraMap(alg, alg, s_images, variance=-1, loc_inv_image=inv, name="S"))


def seeded_pair(seed, n=3):
    """Seeded invertible n x n matrix A and B = (A^t)^{-1}.

    The generator (documented contract): CPython's Mersenne Twister seeded
    with the config seed draws a uniformly random permutation and one entry
    from {1,-1,2,-2} per row, giving a signed permutation matrix.  Signed
    permutations keep the truncated completion at desk scale while still
    exercising non-identity sigma, antipode and Nakayama twists.
    """
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice([1, -1, 2, -2])
    A = Mat(rows)
    return A, A.transpose().inverse()


def presentation_manifest(alg):
    """Canonical JSON-ready description of a presentation, for golden files.

    The interreduced rule set is the normal form of the relation ideal at the
    certified degree, so two equal inputs produce byte-identical manifests.
    """
    from .foundation import frac_str

    mats = {k: v.to_lists() for k, v in alg.mats.items() if isinstance(v, Mat)}
    if "q" in alg.mats:
        mats["q"] = frac_str(alg.mats["q"])
    return {
        "kind": alg.kind,
        "name": alg.name,
        "n": alg.n,
        "m": alg.m,
        "generators": alg.names,
        "weights": list(alg.weights),
        "localized": alg.loc,
        "matrices": mats,
        "degree_bound": alg.rs.certified_degree,
        "rules": alg.rs.to_dict()["rules"],
    }


# ---------------------------------------------------------------------------
# verification suites


def commutation_check(alg):
    """BA D u = u D BA (resp. = u D DC for Galois objects), inside the ideal."""
    A, B = alg.mats["A"], alg.mats["B"]
    C, D = alg.mats["C"], alg.mats["D"]
    BA = B * A
    DC = D * C
    loc = NCPoly.gen(alg.loc)
    In, Im = Mat.identity(alg.n), Mat.identity(alg.m)
    failures = []
    for i in range(alg.n):
        for j in range(alg.m):
            nf = alg.rs.normal_form(loc * sandwich(BA, Im, i, j) -
                                    sandwich(In, DC, i, j) * loc)
            if not nf.is_zero():
                failures.append(((i, j), alg.pretty(nf)))
    return {"ok": not failures, "failures": failures}


def verify_hopf_axioms(H):
    """Hopf axioms of the structure H on every generator, with witnesses on failure.

    A Hopf algebra is the one-object cogroupoid, so its diagrams are
    ``cogroupoid_suite`` on C(0,0) = H.alg.  Besides them: ε respects the
    relations (a cogroupoid takes its counits from its C(x,x)), and, for a
    localized algebra, m(S ⊗ id)Δ(D^-1) = 1.
    """
    alg = H.alg
    failures = cogroupoid_suite({(0, 0): alg}, {0: H})["failures"]
    r = H.eps.respects_relations()
    if not r["ok"]:
        failures.append(("counit_relations", r["failures"]))
    if alg.loc is not None:
        dinv = TensorElt((alg, alg), (1, 1), TensorPoly.unit(2))
        if apply_slot(dinv, 0, H.antipode).mul_slots() != alg.one():
            failures.append(("antipode_left", "D^-1"))
    return {"ok": not failures, "failures": failures}


def winding(H, chi, side):
    """Left or right winding automorphism of a character of the Hopf algebra H.alg."""
    alg = H.alg
    slot = 0 if side == "left" else 1
    images = [apply_slot(te, slot, chi).to_loc() for te in H.delta.images]
    ln, ld = chi.loc_value()
    inv = Fraction(ld, ln) * alg.loc_inv_elt() if alg.loc is not None else None
    return AlgebraMap(alg, alg, images, 1, inv, name=f"[{chi.name}]^{side[0]}")


def convolve_chars(H, chi1, chi2):
    """(chi1 * chi2)(x) = chi1(x_(1)) chi2(x_(2)) via the comultiplication of H."""
    tps = [apply_slot(apply_slot(te, 1, chi2), 0, chi1).tp for te in H.delta.images]
    return Character.of(H.alg, [(tp.c.get((), 0), tp.den) for tp in tps],
                        name=f"{chi1.name}*{chi2.name}")


def antipode_squared_sovereign(H):
    """S^2 of the G(A,B) structure H against its two closed forms and the
    sovereign convolution."""
    alg = H.alg
    A, B = alg.mats["A"], alg.mats["B"]
    lam = alg.invariants["lambda"]
    S = H.antipode
    S2 = H.antipode_squared
    n = alg.n
    failures = []

    M1 = A.inverse() * A.transpose()
    M2 = A.transpose().inverse() * A
    BAt = B * A.transpose()
    M3 = A.transpose().inverse() * B.inverse()
    for i in range(n):
        for j in range(n):
            got = S2.images[alg.u_idx(i, j)]
            closed1 = alg.loc_inv_elt() * alg.elt(sandwich(M1, M2, i, j)) * alg.loc_elt()
            closed2 = alg.elt(sandwich(BAt, M3, i, j))
            if got != closed1:
                failures.append(("closed_form_conjugated", (i, j)))
            if got != closed2:
                failures.append(("closed_form_flat", (i, j)))
    if S2.images[alg.loc] != alg.loc_elt():
        failures.append(("S2_D", None))
    if S2.loc_inv_image != alg.loc_inv_elt():
        failures.append(("S2_Dinv", None))

    # sovereign character
    phi = Character.of(alg, [(x, BAt.den) for row in BAt.c for x in row]
                       + [(lam.numerator, lam.denominator)], name="Φ")
    r = phi.respects_relations()
    if not r["ok"]:
        failures.append(("phi_character", r["failures"]))
    phi_inv = phi.compose_map(S)
    if not convolve_chars(H, phi, phi_inv).eq(H.eps):
        failures.append(("phi_convolution_inverse", None))
    # S^2 = Φ * id * Φ^{-1}, the sovereign identity, checked on generators
    delta = H.delta
    for g in range(alg.ngens()):
        te = apply_slot(delta.images[g], 0, delta)  # arity 3
        te = apply_slot(te, 2, phi_inv)
        te = apply_slot(te, 0, phi)
        if te.to_loc() != S2.images[g]:
            failures.append(("sovereign_convolution", alg.names[g]))
    return {"ok": not failures, "failures": failures, "lambda": lam}


def conj_map(alg, L, R, name):
    """The automorphism u -> L u R, D -> D of alg."""
    images = [alg.elt(sandwich(L, R, i, j)) for i in range(alg.n) for j in range(alg.m)]
    images.append(alg.loc_elt())
    return AlgebraMap(alg, alg, images, 1, alg.loc_inv_elt(), name=name)


def _sigma_power_map(alg, k):
    """conj_D^k as an algebra map (k may be negative)."""
    images = [alg.elt(alg.sigma_word((g,), k)) for g in range(alg.ngens())]
    return AlgebraMap(alg, alg, images, 1, alg.loc_inv_elt(), name=f"conj_D^{k}")


def nakayama_nu(H):
    """ν(u) = A^-1 A^t u B (B^t)^-1, D -> D, of G(A,B) = H.alg, and the
    character η = ε∘ν."""
    alg = H.alg
    A, B = alg.mats["A"], alg.mats["B"]
    nu = conj_map(alg, A.inverse() * A.transpose(), B * B.transpose().inverse(), "ν")
    return nu, H.eps.compose_map(nu)


def nakayama_G(H):
    """Nakayama data for G(A,B) = H.alg: mu, xi, eta, and the identities tying them."""
    alg = H.alg
    A, B = alg.mats["A"], alg.mats["B"]
    P = A.transpose().inverse() * A
    Q = B.transpose() * B.inverse()
    eps = H.eps
    S = H.antipode
    S2 = H.antipode_squared

    mu = conj_map(alg, P, Q, "μ")
    mu_inv = conj_map(alg, P.inverse(), Q.inverse(), "μ^-1")
    nu, eta = H.nakayama_nu

    failures = []
    for m_, label in ((mu, "mu"), (mu_inv, "mu_inv"), (nu, "nu")):
        r = m_.respects_relations()
        if not r["ok"]:
            failures.append((f"{label}_relations", r["failures"]))
    if not mu.then(mu_inv).eq_on_gens(AlgebraMap.identity(alg)):
        failures.append(("mu_inverse", None))

    xi = eps.compose_map(mu)
    PQ = P * Q
    if not xi.sends_u_to(PQ):
        failures.append(("xi_matrix", None))
    if not eps.compose_map(mu_inv).eq(eta):
        failures.append(("eta_is_eps_mu_inv", None))

    # S^2 [xi]^l is a Nakayama automorphism too, so it may differ from mu
    # only by an inner automorphism; here the units are scalars times D^k,
    # so the ratio must be a power of conj_D.  The character level is exact:
    # eps∘S^2[xi]^l = xi = eps∘mu.
    wind_xi = winding(H, xi, "left")
    s2_wind = wind_xi.then(S2)
    if not eps.compose_map(s2_wind).eq(xi):
        failures.append(("eps_S2_wind_xi_is_xi", None))
    inner_power = None
    for k in (0, 1, -1, 2, -2):
        if _sigma_power_map(alg, k).then(s2_wind).eq_on_gens(mu):
            inner_power = k
            break
    if inner_power is None:
        failures.append(("mu_eq_S2_wind_xi_up_to_inner", None))
    # windings invert: [xi]^l ∘ [xi∘S]^l = id
    wind_xi_inv = winding(H, xi.compose_map(S), "left")
    if not wind_xi_inv.then(wind_xi).eq_on_gens(AlgebraMap.identity(alg)):
        failures.append(("winding_inverse", None))

    # S^-2 [eta S]^r = conj_D ∘ mu on generators
    BAt = B * A.transpose()
    S2inv = conj_map(alg, BAt.inverse(), BAt, "S^-2")
    if not S2inv.then(S2).eq_on_gens(AlgebraMap.identity(alg)):
        failures.append(("S2inv_check", None))
    etaS = eta.compose_map(S)
    cand = winding(H, etaS, "right").then(S2inv)
    conj_mu = mu.then(_sigma_power_map(alg, 1))
    if not cand.eq_on_gens(conj_mu):
        failures.append(("nakayama_inner_equivalence", None))
    return {"mu": mu, "mu_inv": mu_inv, "nu": nu, "xi": xi, "eta": eta,
            "inner_power": inner_power,
            "report": {"ok": not failures, "failures": failures}}


def galois_s_map(src, tgt):
    """S_{AB,CD}: G(A,B|C,D) -> G(C,D|A,B)^op, u -> D^-1 A^-1 u^t C."""
    A = src.mats["A"]
    C = src.mats["C"]
    Ai = A.inverse()
    images = []
    for i in range(src.n):
        for j in range(src.m):
            images.append(tgt.loc_inv_elt() * tgt.elt(sandwich(Ai, C, i, j, transpose=True)))
    images.append(tgt.loc_inv_elt())
    return AlgebraMap(src, tgt, images, variance=-1, loc_inv_image=tgt.loc_elt(),
                      name=f"S[{src.name}]")


def cocomposition(src, left, right):
    """Δ^{XY}: C(X,Y)-style cocomposition into left (x) right."""
    p = left.m
    if right.n != p or src.n != left.n or src.m != right.m:
        raise ValueError("size mismatch")
    images = []
    for i in range(src.n):
        for j in range(src.m):
            d = {((left.u_idx(i, k),), (right.u_idx(k, j),)): 1 for k in range(p)}
            images.append(TensorElt((left, right), (0, 0), TensorPoly.of(2, d)))
    images.append(TensorElt((left, right), (0, 0),
                            TensorPoly.of(2, {((left.loc,), (right.loc,)): 1})))
    return DeltaMap(src, (left, right), images, name="Δ")


def cogroupoid_suite(algs, hopfs):
    """The cogroupoid diagrams, on generators.

    algs[(x, y)] is C(x,y), e.g. G(A_x,B_x|A_y,B_y), for every ordered pair
    of objects x, y.  Each C(x,x) is a Hopf algebra (G(A_x,B_x)), and
    hopfs[x] is its structure, whose Δ, S and ε are the cocomposition
    Δ^x_{x,x}, the antipode S_{x,x} and the counit of x; the other
    cocompositions C(x,y) -> C(x,z) (x) C(z,y) and antipodes
    C(x,y) -> C(y,x)^op are built here.  Checks that each C(x,y)
    is nonzero and each Δ and S respects the relations, then
    coassociativity for every pair of middle objects, the counit triangles,
    the antipode squares on the diagonal algebras, and the Δ∘S identity.
    """
    objs = sorted({x for x, _ in algs})
    deltas = {(x, y, z): hopfs[x].delta if x == y == z
              else cocomposition(algs[(x, y)], algs[(x, z)], algs[(z, y)])
              for x in objs for y in objs for z in objs}
    antipodes = {(x, y): hopfs[x].antipode if x == y else galois_s_map(algs[(x, y)], algs[(y, x)])
                 for x, y in algs}
    counits = {x: h.eps for x, h in hopfs.items()}
    failures = []
    checks = 0
    for xy, alg in algs.items():
        try:
            alg.rs.nonzero_witness()
        except UnitCollapse:
            failures.append(("nonzero", xy))
        checks += 1
    for xyz, dm in deltas.items():
        checks += 1
        if not dm.respects_relations()["ok"]:
            failures.append(("cocomposition_relations", xyz))
    for xy, smap in antipodes.items():
        r = smap.respects_relations()
        checks += 1
        if not r["ok"]:
            failures.append(("antipode_relations", xy, r["failures"]))

    for (x, y), alg in algs.items():
        gens = range(alg.ngens())
        for z in objs:
            for t in objs:
                for g in gens:
                    lhs = apply_slot(deltas[(x, y, z)].images[g], 0, deltas[(x, z, t)])
                    rhs = apply_slot(deltas[(x, y, t)].images[g], 1, deltas[(t, y, z)])
                    checks += 1
                    if not (lhs - rhs).is_zero():
                        failures.append(("coassoc", (x, y, z, t), alg.names[g]))
        for g in gens:
            right = apply_slot(deltas[(x, y, y)].images[g], 1, counits[y]).to_loc()
            left = apply_slot(deltas[(x, y, x)].images[g], 0, counits[x]).to_loc()
            checks += 1
            if right != alg.gen_elt(g) or left != alg.gen_elt(g):
                failures.append(("counit", (x, y), alg.names[g]))
    for x in objs:
        for y in objs:
            algxx = algs[(x, x)]
            for g in range(algxx.ngens()):
                te = deltas[(x, x, y)].images[g]
                unit = (counits[x].images[g], counits[x].den)
                lhs = apply_slot(te, 0, antipodes[(x, y)]).mul_slots()
                checks += 1
                if lhs != algs[(y, x)].one().scale(*unit):
                    failures.append(("antipode_square_left", (x, y), algxx.names[g]))
                rhs = apply_slot(te, 1, antipodes[(y, x)]).mul_slots()
                checks += 1
                if rhs != algs[(x, y)].one().scale(*unit):
                    failures.append(("antipode_square_right", (x, y), algxx.names[g]))
    # Δ∘S identity: Δ^Z_{X,Y}(S_{Y,X}(a)) = S_{Z,X}(a_2) (x) S_{Y,Z}(a_1)
    for x in objs:
        for y in objs:
            for z in objs:
                src = algs[(y, x)]
                for g in range(src.ngens()):
                    lhs = deltas[(x, y, z)].apply_loc(antipodes[(y, x)].images[g])
                    # (S_{Y,Z} (x) S_{Z,X})Δ^Z_{Y,X}(a), slots then swapped
                    s = apply_slot(apply_slot(deltas[(y, x, z)].images[g], 0, antipodes[(y, z)]),
                                   1, antipodes[(z, x)])
                    rhs = TensorElt(s.algs[::-1], s.exps[::-1], TensorPoly.of(
                        2, {(v, u): n for (u, v), n in s.tp.c.items()}, s.tp.den))
                    checks += 1
                    if not (lhs - rhs).is_zero():
                        failures.append(("delta_antipode", (x, y, z), src.names[g]))
    return {"ok": not failures, "failures": failures, "checks": checks}


def nakayama_galois(alg, alg_op):
    """Nakayama identities for the Galois object G(A,B|C,D).

    alg is G(A,B|C,D), alg_op is G(C,D|A,B).
    """
    A, B = alg.mats["A"], alg.mats["B"]
    C, D = alg.mats["C"], alg.mats["D"]
    n, m = alg.n, alg.m
    failures = []
    warnings = []
    try:
        iab, icd = alg.invariants, alg_op.invariants
        if iab["lambda"] != icd["lambda"] or iab["trace"] != icd["trace"]:
            warnings.append("invariants of (A,B) and (C,D) differ")
    except HopfcheckError as e:
        warnings.append(f"invariant check failed: {e}")

    mu = conj_map(alg, A.transpose().inverse() * A, D.transpose() * D.inverse(), "μ")
    mu_prime = conj_map(alg, A.transpose().inverse() * B.inverse(), D.transpose() * C, "μ'")
    for m_, label in ((mu, "mu"), (mu_prime, "mu_prime")):
        r = m_.respects_relations()
        if not r["ok"]:
            failures.append((f"{label}_relations", r["failures"]))
    if mu.images[alg.loc] != alg.loc_elt() or mu.loc_inv_image != alg.loc_inv_elt():
        failures.append(("mu_fixes_D", None))

    if not mu.then(_sigma_power_map(alg, 1)).eq_on_gens(mu_prime):
        failures.append(("sigma_mu_eq_mu_prime", None))

    # commutation D^-1 u D = B A u C^-1 D^-1 lies in the ideal
    BA = B * A
    CiDi = C.inverse() * D.inverse()
    loc = NCPoly.gen(alg.loc)
    for i in range(n):
        for j in range(m):
            rhs = sandwich(BA, CiDi, i, j)
            nf = alg.rs.normal_form(NCPoly.gen(alg.u_idx(i, j)) * loc - loc * rhs)
            if not nf.is_zero():
                failures.append(("D_commutation", (i, j)))

    # S_{CD,AB} S_{AB,CD}(u) = A^-1 (B^t)^-1 u D^t C
    s1 = galois_s_map(alg, alg_op)
    s2 = galois_s_map(alg_op, alg)
    ss = s1.then(s2)
    L = A.inverse() * B.transpose().inverse()
    R = D.transpose() * C
    for i in range(n):
        for j in range(m):
            if ss.images[alg.u_idx(i, j)] != alg.elt(sandwich(L, R, i, j)):
                failures.append(("SS_closed_form", (i, j)))
    if ss.images[alg.loc] != alg.loc_elt():
        failures.append(("SS_fixes_D", None))

    # mu' = S_{CD,AB} S_{AB,CD} [xi]^l on generators, xi(u) = (A^t)^-1 A B^t B^-1
    Xi = A.transpose().inverse() * A * B.transpose() * B.inverse()
    wind = conj_map(alg, Xi, Mat.identity(m), "[ξ]^l")
    if not wind.then(ss).eq_on_gens(mu_prime):
        failures.append(("mu_prime_construction", None))

    return {"mu": mu, "mu_prime": mu_prime,
            "report": {"ok": not failures, "failures": failures, "warnings": warnings}}


def glq_slq_laurent_iso(glq, slql):
    """The algebra isomorphism O(GL_q(2)) ≅ O(SL_q(2))[z^{±1}]."""
    a, b, c, d, z = (slql.gen_elt(i) for i in range(5))
    fwd = AlgebraMap(glq, slql,
                     [a * z, b * z, c, d, z],
                     1, slql.loc_inv_elt(), name="fwd")
    ga, gb, gc, gd = (glq.gen_elt(i) for i in range(4))
    dinv = glq.loc_inv_elt()
    bwd = AlgebraMap(slql, glq,
                     [ga * dinv, gb * dinv, gc, gd, glq.loc_elt()],
                     1, glq.loc_inv_elt(), name="bwd")
    failures = []
    for f, label in ((fwd, "fwd"), (bwd, "bwd")):
        r = f.respects_relations()
        if not r["ok"]:
            failures.append((f"{label}_relations", r["failures"]))
    if not fwd.then(bwd).eq_on_gens(AlgebraMap.identity(glq)):
        failures.append(("bwd_fwd_identity", None))
    if not bwd.then(fwd).eq_on_gens(AlgebraMap.identity(slql)):
        failures.append(("fwd_bwd_identity", None))
    return {"fwd": fwd, "bwd": bwd,
            "report": {"ok": not failures, "failures": failures}}
