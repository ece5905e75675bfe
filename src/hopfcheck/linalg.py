"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable column keys to nonzero Fractions.
RowSpace keeps an incremental echelon basis and can express any vector it
absorbs as an exact combination of the originally inserted vectors, which
is what kernel extraction and boundary lifting both need.

kernel_and_lifts runs it once modulo P = 2^127 - 1 for both; each answer is
rebuilt by rational reconstruction and confirmed by exact integer mat-vecs.
"""

import heapq
from fractions import Fraction
from math import gcd, isqrt, lcm

from .foundation import combine

ZERO = Fraction(0)
ONE = Fraction(1)
P = 2**127 - 1
# rational reconstruction returns n/d with |n|, d <= RR_BOUND, which makes it unique
RR_BOUND = isqrt(P // 2)


def _add_into(v, w, c):
    """v += c*w in place, sparse."""
    for k, x in w.items():
        nx = v.get(k, ZERO) + c * x
        if nx:
            v[k] = nx
        else:
            del v[k]


def vec_add(v, w, c=1):
    """v + c*w, sparse."""
    out = dict(v)
    _add_into(out, w, c)
    return out


class RowSpace:
    """Sparse echelon row space with preimage tracking.

    Each stored row is monic at its pivot (the smallest column key present)
    and remembers how it was assembled from the inserted vectors.
    """

    def __init__(self):
        self.rows = []
        self.combos = []
        self.pivots = {}  # col key -> row index

    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        """Remainder of vec modulo the stored rows plus the used combination."""
        vec = dict(vec)
        combo = {}
        while True:
            hit = None
            for k in vec:
                r = self.pivots.get(k)
                if r is not None and (hit is None or k < hit[0]):
                    hit = (k, r)
            if hit is None:
                return vec, combo
            k, r = hit
            c = vec[k]
            _add_into(vec, self.rows[r], -c)
            _add_into(combo, self.combos[r], c)

    def insert(self, vec, label):
        """Insert a labeled vector.

        Returns None if the vector enlarged the space, else the dependency:
        a dict expressing vec as a combination of earlier labels.
        """
        rem, combo = self._reduce(vec)
        if not rem:
            return combo
        piv = min(rem)
        p = rem[piv]
        row = {k: x / p for k, x in rem.items()}
        rowcombo = vec_add({label: ONE}, combo, -1)
        rowcombo = {k: x / p for k, x in rowcombo.items()}
        self.pivots[piv] = len(self.rows)
        self.rows.append(row)
        self.combos.append(rowcombo)
        return None

    def express(self, vec):
        """Combination of inserted labels reproducing vec, or None."""
        rem, combo = self._reduce(vec)
        if rem:
            return None
        return combo


def int_form(vec):
    """A Fraction vector as (integer numerators, least common denominator)."""
    den = lcm(*(x.denominator for x in vec.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in vec.items()}, den


def residues(c, den, inverses):
    """c/den mod P (zeros kept), or None if P divides den; ``inverses``
    caches the inverses of the denominators met."""
    inv = inverses.get(den)
    if inv is None:
        if den % P == 0:
            return None
        inv = inverses[den] = pow(den, -1, P)
    return {k: n * inv % P for k, n in c.items()}


def _reduce_mod(vec, tails, combos, pivots):
    """RowSpace._reduce mod P: (remainder, combination used), both reduced.

    Row r is 1 at its pivot plus tails[r] at larger keys, so pivots are
    cleared in increasing key order, each once, and residues are only taken
    when a pivot is cleared and at the end.
    """
    vec = dict(vec)
    combo = {}
    heap = [k for k in vec if k in pivots]
    heapq.heapify(heap)
    while heap:
        k = heapq.heappop(heap)
        c = vec.pop(k) % P
        if not c:
            continue
        r = pivots[k]
        for key, x in tails[r].items():
            if key in vec:
                vec[key] -= c * x
            else:
                vec[key] = -c * x
                if key in pivots:
                    heapq.heappush(heap, key)
        for lab, x in combos[r].items():
            combo[lab] = combo.get(lab, 0) + c * x
    rem = {k: y for k, x in vec.items() if (y := x % P)}
    return rem, {lab: y for lab, x in combo.items() if (y := x % P)}


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


def kernel_and_lifts(labels, split, residues_of, form_of, targets):
    """(kernel of the first ``split`` columns, preimage of each target) from
    one elimination mod P; residues_of(label) is a column as ``residues``
    gives it, form_of(label) its integer form.

    The first ``split`` columns are all eliminated, as the kernel needs each
    of them.  Later ones follow in label order only while some target has a
    nonzero remainder mod P, so no label past the last one a lift needs is
    asked for.  A lift on a prefix of the columns is a lift on all of them,
    and each row's pivot is its minimum key, so a target in a prefix's span
    reduces on that prefix's rows alone: its beta is the one full
    elimination gives.

    A kernel column reducing to zero gives e_l minus its reconstructed
    dependency, checked exactly.  These are triangular, so k checked ones
    give dim_Q >= k = dim_P >= dim_Q on every prefix: the pivots and unique
    vectors of kernel_basis, which answers if a check fails.  A lift beta
    has sum beta[l] * column l == target exactly (None outside the span);
    RowSpace.express, built once, answers where the echelon has no checked
    beta.
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

    tails, combos, pivots = [], [], {}
    pending, solved = {}, {}  # target index -> (remainder, combination); -> combination

    def insert(label, res):
        """Eliminate one column: its dependency if it reduces to zero, else
        None with the new row applied to each pending target.  The row's tail
        holds no earlier pivot, so one row operation keeps a remainder fully
        reduced."""
        rem, combo = _reduce_mod(res, tails, combos, pivots)
        if not rem:
            return combo
        piv = min(rem)
        inv = pow(rem.pop(piv), -1, P)
        tail = {k: x * inv % P for k, x in rem.items()}
        combo = {k: -x * inv % P for k, x in combo.items()}
        combo[label] = inv
        pivots[piv] = len(tails)
        tails.append(tail)
        combos.append(combo)
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
    for label in labels[:split]:
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
        kernel = kernel_basis([(lab, exact(lab)) for lab in labels[:split]])

    inverses, wants = {}, [int_form(target) for target in targets]
    for i, want in enumerate(wants):
        # a target with P in a denominator is left to the exact fallback
        res = residues(*want, inverses) if modular else None
        if res is not None:
            rem, combo = _reduce_mod(res, tails, combos, pivots)
            if rem:
                pending[i] = (rem, combo)
            else:
                solved[i] = combo
    for label in labels[split:]:
        if not pending:
            break
        res = residues_of(label)
        if res is None:
            break
        insert(label, res)

    space, lifts = None, []
    for i, (target, want) in enumerate(zip(targets, wants)):
        beta = _reconstruct(solved[i], rationals) if i in solved else None
        if beta is None or combination(beta) != want:
            if space is None:
                space = RowSpace()
                for lab in labels:
                    space.insert(exact(lab), lab)
            beta = space.express(target)
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
            kernel.append(vec_add({label: ONE}, dep, -1))
    return kernel


def mat_rank(rows):
    """Rank of a dense rational matrix given as lists of entries."""
    space = RowSpace()
    for i, row in enumerate(rows):
        space.insert({j: x for j, x in enumerate(row) if x}, i)
    return space.rank()
