"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable column keys to nonzero Fractions.
RowSpace keeps an incremental echelon basis and can express any vector it
absorbs as an exact combination of the originally inserted vectors, which
is what kernel extraction and boundary lifting both need.

certified_lifts finds preimages by the same elimination modulo the prime
P = 2^127 - 1, rebuilds their rationals by rational reconstruction, and
returns only preimages that an exact rational mat-vec confirms; where the
prime gives no confirmed answer it falls back to an exact RowSpace.
"""

import heapq
from fractions import Fraction
from math import gcd, isqrt

ZERO = Fraction(0)
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
        rowcombo = vec_add({label: Fraction(1)}, combo, -1)
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


def _residues(vec, inverses):
    """vec mod P (zeros kept), or None if a denominator is divisible by P;
    ``inverses`` caches the inverses of the denominators met."""
    out = {}
    for k, x in vec.items():
        d = x.denominator
        inv = inverses.get(d)
        if inv is None:
            if d % P == 0:
                return None
            inv = inverses[d] = pow(d, -1, P)
        out[k] = x.numerator * inv % P
    return out


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


def _modular_lifts(columns, targets):
    """Candidate preimages of the targets, by RowSpace's elimination mod P.

    Inserts the columns in order with the same min-key pivots as RowSpace,
    so where every coefficient reduces mod P and the rank does not drop,
    each candidate is RowSpace.express's answer.  An entry is None where
    its target does not reduce mod P, is outside the span mod P, or needs a
    coefficient with no small rational; every entry is None when a column
    does not reduce mod P.
    """
    inverses = {}
    tails, combos, pivots = [], [], {}
    for label, vec in columns:
        res = _residues(vec, inverses)
        if res is None:
            return [None] * len(targets)
        rem, combo = _reduce_mod(res, tails, combos, pivots)
        if not rem:
            continue
        piv = min(rem)
        inv = pow(rem.pop(piv), -1, P)
        combo = {k: -x * inv % P for k, x in combo.items()}
        combo[label] = inv
        pivots[piv] = len(tails)
        tails.append({k: x * inv % P for k, x in rem.items()})
        combos.append(combo)
    rationals = {}
    out = []
    for target in targets:
        res = _residues(target, inverses)
        if res is None:
            out.append(None)
            continue
        rem, combo = _reduce_mod(res, tails, combos, pivots)
        beta = None
        if not rem:
            beta = {}
            for lab, a in combo.items():
                if a not in rationals:
                    rationals[a] = rational_reconstruction(a)
                beta[lab] = rationals[a]
            if None in beta.values():
                beta = None
        out.append(beta)
    return out


def _reproduces(images, beta, target):
    """Whether sum of beta[l] * images[l] equals target, exactly."""
    out = {}
    for lab, c in beta.items():
        _add_into(out, images[lab], c)
    return out == target


def certified_lifts(columns, targets):
    """Exact preimages of the targets under the map label -> columns[label].

    columns: list of (label, vec) in a fixed order.  Returns, per target, a
    combination beta of labels with sum beta[l] * vec_l == target exactly,
    or None when the target is outside the span.  Candidates come from
    _modular_lifts; a target it gives no candidate for, or whose candidate
    fails the exact check, is answered by RowSpace.express over the same
    columns, built at most once per call, and checked the same way.
    """
    images = dict(columns)
    exact = None
    out = []
    for target, beta in zip(targets, _modular_lifts(columns, targets)):
        if beta is None or not _reproduces(images, beta, target):
            if exact is None:
                exact = RowSpace()
                for label, vec in columns:
                    exact.insert(vec, label)
            beta = exact.express(target)
            if beta is not None and not _reproduces(images, beta, target):
                beta = None
        out.append(beta)
    return out


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
            kernel.append(vec_add({label: Fraction(1)}, dep, -1))
    return kernel


def mat_rank(rows):
    """Rank of a dense rational matrix given as lists of entries."""
    space = RowSpace()
    for i, row in enumerate(rows):
        space.insert({j: x for j, x in enumerate(row) if x}, i)
    return space.rank()
