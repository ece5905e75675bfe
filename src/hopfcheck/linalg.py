"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable column keys to nonzero Fractions.
RowSpace keeps an incremental echelon basis and can express any vector it
absorbs as an exact combination of the originally inserted vectors, which
is what kernel extraction and boundary lifting both need.
"""

from fractions import Fraction

ZERO = Fraction(0)


def vec_add(v, w, c=1):
    """v + c*w, sparse."""
    out = dict(v)
    for k, x in w.items():
        nx = out.get(k, ZERO) + c * x
        if nx:
            out[k] = nx
        else:
            del out[k]
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
            vec = vec_add(vec, self.rows[r], -c)
            combo = vec_add(combo, self.combos[r], c)

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
