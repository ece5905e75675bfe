"""Sparse linear algebra, exact over the rationals and modulo P.

Vectors are dicts mapping orderable column keys to nonzero values.
RowSpace keeps an incremental echelon basis over Q and can express any
vector it absorbs as an exact combination of the originally inserted
vectors, which is what kernel extraction and boundary lifting both need.
RowSpaceModP is the same echelon over the integers mod P = 2^127 - 1.

kernel_and_lifts runs RowSpaceModP once for both; each answer is rebuilt
by rational reconstruction and confirmed by exact integer mat-vecs.
"""

import heapq
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

from .foundation import combine, int_form

ONE = Fraction(1)
P = 2**127 - 1
# rational reconstruction returns n/d with |n|, d <= RR_BOUND, which makes it unique
RR_BOUND = isqrt(P // 2)


class RowSpace:
    """Sparse echelon row space with preimage tracking, over Q.

    Row r is 1 at its pivot (the smallest key it held) plus the tail
    rows[r] at larger keys, and combos[r] assembles it from the inserted
    vectors.  Labels are distinct.  A subclass changes the field through
    _norm, a value's canonical form, and _inv, a nonzero value's inverse.
    """

    def __init__(self):
        self.rows = []
        self.combos = []
        self.pivots = {}  # col key -> row index

    @staticmethod
    def _norm(x):
        return x

    @staticmethod
    def _inv(x):
        return ONE / x

    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        """(remainder of vec modulo the stored rows, combination used).

        A row's tail lies past its pivot, so the pivots present are cleared
        in increasing key order, each once, from a heap; values are only
        normalised when a pivot is cleared and at the end.
        """
        norm, pivots = self._norm, self.pivots
        vec = dict(vec)
        combo = {}
        heap = [k for k in vec if k in pivots]
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            c = norm(vec.pop(k))
            if not c:
                continue
            r = pivots[k]
            for key, x in self.rows[r].items():
                if key in vec:
                    vec[key] -= c * x
                else:
                    vec[key] = -c * x
                    if key in pivots:
                        heapq.heappush(heap, key)
            for lab, x in self.combos[r].items():
                combo[lab] = combo.get(lab, 0) + c * x
        rem = {k: y for k, x in vec.items() if (y := norm(x))}
        return rem, {lab: y for lab, x in combo.items() if (y := norm(x))}

    def insert(self, vec, label):
        """Insert a labeled vector.

        Returns None if the vector enlarged the space, else the dependency:
        a dict expressing vec as a combination of earlier labels.
        """
        rem, combo = self._reduce(vec)
        if not rem:
            return combo
        norm, piv = self._norm, min(rem)
        inv = self._inv(rem.pop(piv))
        combo = {lab: norm(-x * inv) for lab, x in combo.items()}
        combo[label] = inv
        self.pivots[piv] = len(self.rows)
        self.rows.append({k: norm(x * inv) for k, x in rem.items()})
        self.combos.append(combo)
        return None

    def express(self, vec):
        """Combination of inserted labels reproducing vec, or None."""
        rem, combo = self._reduce(vec)
        if rem:
            return None
        return combo


class RowSpaceModP(RowSpace):
    """RowSpace over the integers mod P: vectors of residues in [0, P)."""

    @staticmethod
    def _norm(x):
        return x % P

    @staticmethod
    def _inv(x):
        return pow(x, -1, P)


def residues(c, den, inverses):
    """c/den mod P (zeros kept), or None if P divides den; ``inverses``
    caches the inverses of the denominators met."""
    inv = inverses.get(den)
    if inv is None:
        if den % P == 0:
            return None
        inv = inverses[den] = pow(den, -1, P)
    return {k: n * inv % P for k, n in c.items()}


def rational_reconstruction(a):
    """The n/d = a mod P with |n|, d <= RR_BOUND (Wang 1981), or None."""
    r0, r1, t0, t1 = P, a, 0, 1
    while r1 > RR_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= RR_BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct(combo, rationals):
    """combo's residues as small rationals (cached in ``rationals``), or None."""
    out = {}
    for lab, a in combo.items():
        if a not in rationals:
            rationals[a] = rational_reconstruction(a)
        if rationals[a] is None:
            return None
        out[lab] = rationals[a]
    return out


def kernel_and_lifts(dom, rest, residues_of, form_of, targets):
    """(kernel of the columns ``dom``, preimage of each target through the
    columns ``dom`` then ``rest``) from one RowSpaceModP; residues_of(label)
    is a column as ``residues`` gives it, form_of(label) its integer form.

    Every column of ``dom`` is eliminated, as the kernel needs each of
    them.  Labels are drawn from the iterable ``rest`` only while some
    target has a nonzero remainder mod P, so no label past the last one a
    lift needs is drawn.  A lift on a prefix of the columns is a lift on
    all of them, and each row's pivot is its minimum key, so a target in a
    prefix's span reduces on that prefix's rows alone: its beta is the one
    full elimination gives.

    A kernel column reducing to zero gives e_l minus its reconstructed
    dependency, checked exactly.  These are triangular, so k checked ones
    give dim_Q >= k = dim_P >= dim_Q on every prefix: the pivots and unique
    vectors of kernel_basis, which answers if a check fails.  A lift beta
    has sum beta[l] * column l == target exactly (None outside the span);
    RowSpace.express over ``dom``, the labels drawn and the rest of
    ``rest``, built once, answers where the echelon has no checked beta.
    """
    forms = {}

    def form(lab):
        if lab not in forms:
            forms[lab] = form_of(lab)
        return forms[lab]

    def combination(beta):
        c, den = int_form(beta)
        return combine(den, [(n, form(lab)) for lab, n in c.items()])

    def exact(lab):
        c, den = form(lab)
        return {k: Fraction(n, den) for k, n in c.items()}

    space = RowSpaceModP()
    pending, solved = {}, {}  # target index -> (remainder, combination); -> combination

    def insert(label, res):
        """Eliminate one column: its dependency if it reduces to zero, else
        None with the new row applied to each pending target.  The row's tail
        holds no earlier pivot, so one row operation keeps a remainder fully
        reduced."""
        dep = space.insert(res, label)
        if dep is not None:
            return dep
        piv, tail, combo = next(reversed(space.pivots)), space.rows[-1], space.combos[-1]
        for i, (trem, tcombo) in list(pending.items()):
            c = trem.pop(piv, None)
            if c is None:
                continue
            for k, x in tail.items():
                if y := (trem.get(k, 0) - c * x) % P:
                    trem[k] = y
                else:
                    del trem[k]
            for lab, x in combo.items():
                tcombo[lab] = tcombo.get(lab, 0) + c * x
            if not trem:
                del pending[i]
                solved[i] = {lab: y for lab, x in tcombo.items() if (y := x % P)}
        return None

    modular, deps = True, []
    for label in dom:
        res = residues_of(label)
        if res is None:
            modular, deps = False, []
            break
        dep = insert(label, res)
        if dep is not None:
            deps.append((label, dep))
    kernel, rationals = [], {}
    for label, dep in deps:
        vec = _reconstruct({k: -x % P for k, x in dep.items()}, rationals)
        if vec is None or combination({label: ONE} | vec)[0]:
            break
        kernel.append({label: ONE} | vec)
    if not modular or len(kernel) < len(deps):
        kernel = kernel_basis([(lab, exact(lab)) for lab in dom])

    inverses, wants = {}, [int_form(target) for target in targets]
    for i, want in enumerate(wants):
        # a target with P in a denominator is left to the exact fallback
        res = residues(*want, inverses) if modular else None
        if res is not None:
            rem, combo = space._reduce(res)
            if rem:
                pending[i] = (rem, combo)
            else:
                solved[i] = combo
    rest, drawn = iter(rest), []
    if pending:
        for label in rest:
            drawn.append(label)
            res = residues_of(label)
            if res is None:
                break
            insert(label, res)
            if not pending:
                break

    exact_space, lifts = None, []
    for i, (target, want) in enumerate(zip(targets, wants)):
        beta = _reconstruct(solved[i], rationals) if i in solved else None
        if beta is None or combination(beta) != want:
            if exact_space is None:
                exact_space = RowSpace()
                for lab in chain(dom, drawn, rest):
                    exact_space.insert(exact(lab), lab)
            beta = exact_space.express(target)
            if beta is not None and combination(beta) != want:
                beta = None
        lifts.append(beta)
    return kernel, lifts


def kernel_basis(columns):
    """Kernel of the linear map sending label l to the vector columns[l].

    columns: list of (label, vec) in a fixed order.  Returns a list of
    sparse kernel vectors over the labels (triangular, hence independent).
    """
    space = RowSpace()
    kernel = []
    for label, vec in columns:
        dep = space.insert(vec, label)
        if dep is not None:
            kernel.append({label: ONE} | {k: -x for k, x in dep.items()})
    return kernel


def mat_rank(rows):
    """Rank of a dense rational matrix given as lists of entries."""
    space = RowSpace()
    for i, row in enumerate(rows):
        space.insert({j: x for j, x in enumerate(row) if x}, i)
    return space.rank()
