"""Free-module maps, chain complexes, resolutions, and exactness probes.

Conventions.  A rank-r free module element is a row of coordinates; a map is
an entries[src][tgt] matrix of localized elements.  For right-module maps
entries multiply coordinates on the left (image coord_t = sum_s M[s][t] x_s),
for left-module maps on the right.  Composition is written first-then-second
and is what Complex.is_complex() uses on consecutive differentials.
Entries stay a dense matrix, but compose, add, scale and block assembly
touch only the nonzero ones; a sum of scalars times known-normal entries
(the ``normal`` bit) takes no normal form.
"""

from fractions import Fraction
from itertools import count
from math import lcm

from .errors import ExceedsCertifiedDegree, IdentityFailed, ProbeInvalid
from .foundation import Mat, NCPoly, combine, lowest_ratio, lowest_terms
from .hopf import LocalizedElement, a_q_matrix, glq_slq_laurent_iso, sandwich
from .linalg import kernel_and_lifts, kernel_basis, mat_rank, residues


class FreeModuleMap:
    def __init__(self, alg, side, entries, src_labels=None, tgt_labels=None, name=""):
        self.alg = alg
        self.side = side
        self.entries = entries
        self.src_rank = len(entries)
        self.tgt_rank = len(entries[0]) if entries else 0
        self.src_labels = src_labels
        self.tgt_labels = tgt_labels
        self.name = name

    def _check_like(self, other, op):
        if self.alg is not other.alg or self.side != other.side:
            raise IdentityFailed(f"cannot {op} {self.name} ({self.side}, {self.alg.name}) "
                                 f"with {other.name} ({other.side}, {other.alg.name})")

    def compose(self, then, twist=None):
        """self followed by then; with a twist (an algebra map), the
        coordinates self produces pass through it before then acts.

        Only nonzero pairs are multiplied: each nonzero entry (s, k) of self
        meets the nonzero entries of then's row k, so an output entry sees
        its pairs in the order of k, as the dense sum would."""
        self._check_like(then, "compose")
        if self.tgt_rank != then.src_rank:
            raise IdentityFailed(f"cannot compose {self.name} (target rank {self.tgt_rank}) "
                                 f"with {then.name} (source rank {then.src_rank})")
        right = self.side == "right"
        then_rows = [[(u, b) for u, b in enumerate(row) if b.num.c] for row in then.entries]
        zero = self.alg.zero()
        out = []
        for row in self.entries:
            pairs = [[] for _ in range(then.tgt_rank)]
            for k, a in enumerate(row):
                if not a.num.c or not then_rows[k]:
                    continue
                if twist is not None:
                    a = twist.apply_loc(a)
                for u, b in then_rows[k]:
                    pairs[u].append((b, a) if right else (a, b))
            out.append([LocalizedElement.sum_of_products(self.alg, p) if p else zero
                        for p in pairs])
        return FreeModuleMap(self.alg, self.side, out,
                             self.src_labels, then.tgt_labels,
                             name=f"{self.name};{then.name}")

    def apply(self, coords):
        """Image coordinates of a coordinate row."""
        if len(coords) != self.src_rank:
            raise IdentityFailed(f"{self.name} takes {self.src_rank} coordinates, "
                                 f"got {len(coords)}")
        right = self.side == "right"
        return [LocalizedElement.sum_of_products(self.alg, [
                    (e, x) if right else (x, e)
                    for x, e in zip(coords, (row[t] for row in self.entries))])
                for t in range(self.tgt_rank)]

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def eq(self, other):
        if (self.alg is not other.alg or self.side != other.side
                or (self.src_rank, self.tgt_rank) != (other.src_rank, other.tgt_rank)):
            return False
        return all(a == b for row, other_row in zip(self.entries, other.entries)
                   for a, b in zip(row, other_row))

    def add(self, other):
        self._check_like(other, "add")
        if (self.src_rank, self.tgt_rank) != (other.src_rank, other.tgt_rank):
            raise IdentityFailed(f"cannot add {self.name} ({self.src_rank}x{self.tgt_rank}) "
                                 f"to {other.name} ({other.src_rank}x{other.tgt_rank})")
        return FreeModuleMap(self.alg, self.side, [
            [_entry_sum(self.alg, (a, b)) for a, b in zip(row, other_row)]
            for row, other_row in zip(self.entries, other.entries)
        ], self.src_labels, self.tgt_labels)

    def scale(self, c):
        return FreeModuleMap(self.alg, self.side, [
            [c * e if e.num.c else e for e in row] for row in self.entries
        ], self.src_labels, self.tgt_labels)

    def max_entry_exp(self):
        return max((e.exp for row in self.entries for e in row), default=0)

    def nonzero_witnesses(self):
        """The first three nonzero entries, as (source, target, entry)."""
        out = []
        for s in range(self.src_rank):
            for t in range(self.tgt_rank):
                if not self.entries[s][t].is_zero():
                    lab_s = self.src_labels[s] if self.src_labels else s
                    lab_t = self.tgt_labels[t] if self.tgt_labels else t
                    out.append((lab_s, lab_t, self.entries[s][t].pretty()))
                    if len(out) == 3:
                        return out
        return out


def _entry_sum(alg, terms):
    """The sum of the entries terms; zeros are dropped, and a single
    known-normal entry left over is the sum itself."""
    terms = [t for t in terms if t.num.c]
    if len(terms) == 1 and terms[0].normal:
        return terms[0]
    return LocalizedElement.sum(alg, terms)


def zero_entries(alg, r, c):
    return [[alg.zero() for _ in range(c)] for _ in range(r)]


def identity_map(alg, side, rank, labels=None):
    e = zero_entries(alg, rank, rank)
    for i in range(rank):
        e[i][i] = alg.one()
    return FreeModuleMap(alg, side, e, labels, labels, name="id")


class Complex:
    """maps[i]: level i -> level i+1, level 0 being the left end."""

    def __init__(self, alg, side, maps, augmentation=None, name=""):
        self.alg = alg
        self.side = side
        self.maps = maps
        self.ranks = [maps[0].src_rank] + [m.tgt_rank for m in maps]
        self.augmentation = augmentation
        self.name = name
        self._verdict = None
        for i in range(len(maps) - 1):
            if maps[i].tgt_rank != maps[i + 1].src_rank:
                raise IdentityFailed(
                    f"{name or 'complex'}: map {i} has target rank {maps[i].tgt_rank}, "
                    f"map {i + 1} source rank {maps[i + 1].src_rank}")

    def is_complex(self):
        """d∘d = 0 and ε∘d = 0, computed once: the maps never change."""
        if self._verdict is not None:
            return self._verdict
        failures = []
        for i in range(len(self.maps) - 1):
            comp = self.maps[i].compose(self.maps[i + 1])
            if not comp.is_zero():
                failures.append((f"d{i}.d{i+1}", comp.nonzero_witnesses()))
        if self.augmentation is not None:
            eps = self.augmentation
            last = self.maps[-1]
            if last.tgt_rank != 1:
                raise IdentityFailed(f"{self.name or 'complex'}: the augmentation needs "
                                     f"a last target rank of 1, not {last.tgt_rank}")
            for s in range(last.src_rank):
                n, d = eps.apply_loc(last.entries[s][0])
                if n:
                    failures.append(("augmentation", (s, str(Fraction(n, d)))))
        self._verdict = {"ok": not failures, "failures": failures}
        return self._verdict


class ChainMap:
    """verticals[j]: top level j -> bottom level j; optional twist on coords.

    With a twist nu, the verticals send c.e to nu(c).f(e), so in the square
    top.maps[i] ; verticals[i+1] the top entries pass through nu.
    """

    def __init__(self, top, bottom, verticals, twist=None, name=""):
        self.top = top
        self.bottom = bottom
        self.verticals = verticals
        self.twist = twist
        self.name = name

    def verify_squares(self):
        failures = []
        for i in range(len(self.top.maps)):
            lhs = self.top.maps[i].compose(self.verticals[i + 1], self.twist)
            rhs = self.verticals[i].compose(self.bottom.maps[i])
            diff = lhs.add(rhs.scale(-1))
            if not diff.is_zero():
                failures.append((f"square{i}", diff.nonzero_witnesses()))
        return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# the gamma building blocks and the Yetter-Drinfeld resolution


def _vv_labels(n, sym="v"):
    return [f"{sym}{i+1}*{sym}{j+1}" for i in range(n) for j in range(n)]


def _vv_map(alg, fn, name):
    """The vv -> vv block whose (i,j), (k,l) entry is fn(i, j, k, l)."""
    n = alg.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    vv = _vv_labels(n)
    return FreeModuleMap(alg, "right", [[fn(i, j, k, l) for k, l in pairs] for i, j in pairs],
                         vv, vv, name=name)


def _u_blocks(alg, A, B, transpose=False):
    """γ1–γ5, the blocks that do not involve D, for the matrix pair (A, B):
    γ1 = δ_ij, γ2 = u_ij, γ3 = (B^-1)_jk (u B^t)_il, γ4 = (A^t B)_ij and
    γ5 = (A u B^t)_ij, with u read as u^t when ``transpose`` is set."""
    n = alg.n
    I = Mat.identity(n)
    Bt = B.transpose()
    Binv = B.inverse()
    AtB = A.transpose() * B
    vv = _vv_labels(n)
    k = ["k"]
    u = (lambda i, j: alg.u_elt(j, i)) if transpose else alg.u_elt

    g1 = FreeModuleMap(alg, "right",
                       [[alg.one() if i == j else alg.zero()]
                        for i in range(n) for j in range(n)], vv, k, name="γ1")
    g2 = FreeModuleMap(alg, "right", [[u(i, j)] for i in range(n) for j in range(n)],
                       vv, k, name="γ2")
    g3u = {(i, ll): alg.elt(sandwich(I, Bt, i, ll, transpose))
           for i in range(n) for ll in range(n)}
    g3 = _vv_map(alg, lambda i, j, kk, ll: g3u[i, ll].scale(Binv.c[j][kk], Binv.den), "γ3")
    one = alg.one()
    g4 = FreeModuleMap(alg, "right", [[one.scale(x, AtB.den) for row in AtB.c for x in row]],
                       k, vv, name="γ4")
    g5 = FreeModuleMap(alg, "right",
                       [[alg.elt(sandwich(A, Bt, i, j, transpose))
                         for i in range(n) for j in range(n)]],
                       k, vv, name="γ5")
    return {"g1": g1, "g2": g2, "g3": g3, "g4": g4, "g5": g5}


def gamma_maps(alg):
    """The comodule-level building blocks of psi, as module maps: γ1–γ5 of
    _u_blocks at G(A,B)'s (A, B), and γ6, γ7, which involve D."""
    A, B = alg.mats["A"], alg.mats["B"]
    lam = alg.invariants["lambda"]
    BtAt = B.transpose() * A.transpose()
    BA = B * A
    g = _u_blocks(alg, A, B)
    g["g6"] = FreeModuleMap(alg, "right", [[alg.elt(NCPoly.gen(alg.loc) - NCPoly.one())]],
                            ["k"], ["k"], name="γ6")
    top, den = lowest_ratio(lam.denominator, BtAt.den * BA.den * lam.numerator)

    def g7fn(i, j, kk, ll):
        x = BtAt.c[i][kk] * BA.c[ll][j]
        c = {(alg.loc,): x * top} if x else {}
        if (i, j) == (kk, ll):
            c[()] = -den
        return alg.elt(NCPoly.of(*lowest_terms(c, den)))

    g["g7"] = _vv_map(alg, g7fn, "γ7")
    return g


def left_gamma_maps(g):
    """The blocks of the left-module resolution phi, in gamma_maps' shape:
    γ1–γ5 of _u_blocks at (B^t, A^t) with u read as u^t, psi's γ6 (from
    ``g``, psi's blocks) and γ7's transpose."""
    alg = g["g1"].alg
    A, B = alg.mats["A"], alg.mats["B"]
    n = alg.n
    g7 = g["g7"].entries
    return {**_u_blocks(alg, B.transpose(), A.transpose(), transpose=True), "g6": g["g6"],
            "g7": _vv_map(alg, lambda i, j, k, l: g7[k * n + l][i * n + j], "γ7'")}


def gamma_identity_suite(g):
    """The composition identities behind psi.psi = 0 among the blocks ``g``
    of gamma_maps, checked as map equalities.

    The U-indexed family is listed for both U = V and U = W (the two names
    carry identical fundamental-comodule maps, so the instances are the same
    maps); each distinct composite and sum is computed once and shared.
    """
    memo = {}

    def then(first, second):
        """``first`` followed by ``second``, i.e. γ_second∘γ_first in the
        names below, composed once."""
        if (first, second) not in memo:
            memo[first, second] = g[first].compose(g[second])
        return memo[first, second]

    g4_plus = g["g4"].add(then("g6", "g4"))
    g1_plus = g["g1"].add(then("g1", "g6"))
    ids = []
    for U in ("V", "W"):
        ids.extend([
            (f"γ{U}1∘γ{U}3=γ{U}2", then("g3", "g1"), g["g2"]),
            (f"γ{U}3∘γ{U}4=γ{U}5", then("g4", "g3"), g["g5"]),
            (f"γ{U}3∘γ{U}5=γ{U}4+γ{U}4∘γ{U}6", then("g5", "g3"), g4_plus),
            (f"γ{U}2∘γ{U}3=γ{U}1+γ6∘γ{U}1", then("g3", "g2"), g1_plus),
        ])
    ids.extend([
        ("γV1∘γV4=γW1∘γW4", then("g4", "g1"), then("g4", "g1")),
        ("γV2∘γV4=γW1∘γW5", then("g4", "g2"), then("g5", "g1")),
        ("γ7∘γV4=γW4∘γ6", then("g4", "g7"), then("g6", "g4")),
        ("γ7∘γV5=γW5∘γ6", then("g5", "g7"), then("g6", "g5")),
        ("γV2∘γV3=γV1+γW1∘γ7", then("g3", "g2"), g["g1"].add(then("g7", "g1"))),
        ("γ7∘γV3=γW3∘γ7", then("g3", "g7"), then("g7", "g3")),
        ("γ6∘γV2=γW2∘γ7", then("g2", "g6"), then("g7", "g2")),
    ])
    failures = [name for name, lhs, rhs in ids if not lhs.eq(rhs)]
    return {"ok": not failures, "failures": failures, "identities": len(ids)}


# Block layouts of the five levels, left end first: P4..P0 of the YD
# resolution, and Q4..Q0 of its dual, where Q_i is paired with P_{4-i}.
_PSI_LAYOUTS = (("k",), ("vv", "k"), ("vv", "ww"), ("ww", "k"), ("k",))
_DUAL_LAYOUTS = (("k",), ("ww", "k"), ("ww", "vv"), ("k", "vv"), ("k",))


def _block_offsets(n, layout):
    """Offset of each block of a layout, and the total rank."""
    offsets = {}
    off = 0
    for b in layout:
        offsets[b] = off
        off += 1 if b == "k" else n * n
    return offsets, off


def _block_labels(n, layout):
    names = {"vv": _vv_labels(n, "v"), "ww": _vv_labels(n, "w"), "k": ["k"]}
    return [lab for b in layout for lab in names[b]]


def _block_map(alg, side, blocks, src_layout, tgt_layout, name):
    """Assemble entries from {(src_block, tgt_block): FreeModuleMap-or-entries}."""
    n = alg.n
    src_off, src_rank = _block_offsets(n, src_layout)
    tgt_off, tgt_rank = _block_offsets(n, tgt_layout)
    parts = [[[] for _ in range(tgt_rank)] for _ in range(src_rank)]
    for (sb, tb), m in blocks.items():
        entries = m.entries if isinstance(m, FreeModuleMap) else m
        for s, row in enumerate(entries):
            for t, val in enumerate(row):
                parts[src_off[sb] + s][tgt_off[tb] + t].append(val)
    e = [[_entry_sum(alg, vals) for vals in row] for row in parts]
    return FreeModuleMap(alg, side, e, _block_labels(n, src_layout),
                         _block_labels(n, tgt_layout), name=name)


def _assemble_resolution(alg, side, blocks, layouts, v, w, eps):
    """The four differentials of psi's block shape, from gamma-shaped blocks.

    Levels follow ``layouts``; ``v`` and ``w`` name the blocks that play the
    parts of psi's vv and ww.  psi is ("right", gamma_maps, _PSI_LAYOUTS,
    vv, ww); phi is ("left", left_gamma_maps, _DUAL_LAYOUTS, ww, vv).
    """
    g = blocks
    neg = lambda m: m.scale(-1)
    # φ's blocks, like ψ's, are right maps; only their entries go into the
    # differentials, so the identity block is built on their side
    idm = identity_map(alg, g["g3"].side, alg.n * alg.n)
    differentials = [
        {("k", v): g["g4"].add(neg(g["g5"])), ("k", "k"): g["g6"]},
        {(v, v): idm.add(g["g3"]), (v, w): g["g7"], ("k", v): g["g4"],
         ("k", w): g["g5"].add(neg(g["g4"]))},
        {(v, "k"): g["g2"].add(neg(g["g1"])), (v, w): g["g7"], (w, "k"): neg(g["g1"]),
         (w, w): neg(idm).add(neg(g["g3"]))},
        {(w, "k"): g["g1"].add(neg(g["g2"])), ("k", "k"): g["g6"]},
    ]
    sym, name = {"right": ("ψ", "yd_resolution"), "left": ("φ", "left_resolution")}[side]
    maps = [_block_map(alg, side, d, layouts[i], layouts[i + 1], f"{sym}{4 - i}")
            for i, d in enumerate(differentials)]
    return Complex(alg, side, maps, augmentation=eps, name=name)


def build_yd_resolution(g, eps):
    """The free Yetter-Drinfeld resolution psi of the trivial module over
    G(A,B), assembled from its blocks ``g`` = gamma_maps(G(A,B)), with counit eps."""
    alg = g["g1"].alg
    if alg.kind != "GAB":
        raise ValueError("not G(A,B)")
    if alg.rs.certified_degree < 6:
        raise ExceedsCertifiedDegree("YD resolution needs certified degree >= 6")
    return _assemble_resolution(alg, "right", g, _PSI_LAYOUTS, "vv", "ww", eps)


def build_left_resolution(g, eps):
    """The free resolution phi of the trivial module by left modules: psi's
    assembly over phi's own blocks (built on psi's blocks ``g``), with the
    parts of vv and ww exchanged, augmented by the counit eps."""
    alg = g["g1"].alg
    if alg.kind != "GAB":
        raise ValueError("not G(A,B)")
    return _assemble_resolution(alg, "left", left_gamma_maps(g), _DUAL_LAYOUTS, "ww", "vv", eps)


def dualize_resolution(psi):
    """Hom(-, G) of the YD resolution psi: its transpose, by left modules.

    Level P_i of psi is paired with Q_{4-i}, whose blocks come in the printed
    order ww|k, ww|vv, k|vv; inside a vv or ww block the basis vector for
    (i, j) is paired with the one for (j, i).
    """
    alg = psi.alg
    n = alg.n
    pairings = []
    for level, layout in enumerate(_PSI_LAYOUTS):
        p_off, rank = _block_offsets(n, layout)
        q_off, _ = _block_offsets(n, _DUAL_LAYOUTS[-1 - level])
        perm = [0] * rank
        for b, off in p_off.items():
            for x in range(1 if b == "k" else n * n):
                perm[off + x] = q_off[b] + (x % n) * n + x // n
        pairings.append(perm)
    maps = []
    for j, i in enumerate(reversed(range(len(psi.maps)))):
        m = psi.maps[i]
        e = [[None] * m.src_rank for _ in range(m.tgt_rank)]
        for s, row in enumerate(m.entries):
            for t, val in enumerate(row):
                e[pairings[i + 1][t]][pairings[i][s]] = val
        maps.append(FreeModuleMap(alg, "left", e, _block_labels(n, _DUAL_LAYOUTS[j]),
                                  _block_labels(n, _DUAL_LAYOUTS[j + 1]), name=f"ψt{j + 1}"))
    return Complex(alg, "left", maps, name="dual_complex")


def build_twist_chainmap(dual, left, H):
    """The nu-twisted isomorphism between the dual and left complexes over H.alg."""
    alg = dual.alg
    A, B = alg.mats["A"], alg.mats["B"]
    n = alg.n
    nu, eta = H.nakayama_nu
    one, zero = alg.one(), alg.zero()

    def scalar(c):
        return [[c * one]]

    def block(sgn):  # e_ij -> sgn * sum_pq B_pi A_qj e_pq
        return [[one.scale(x, B.den * A.den) if (x := sgn * B.c[p][i] * A.c[q][j]) else zero
                 for p in range(n) for q in range(n)]
                for i in range(n) for j in range(n)]

    Q = _DUAL_LAYOUTS
    f4 = FreeModuleMap(alg, "left", scalar(-1), name="f4")
    f3 = _block_map(alg, "left", {("ww", "ww"): block(-1), ("k", "k"): scalar(-1)},
                    Q[1], Q[1], "f3")
    f2 = _block_map(alg, "left", {("ww", "ww"): block(1), ("vv", "vv"): block(-1)},
                    Q[2], Q[2], "f2")
    f1 = _block_map(alg, "left", {("k", "k"): scalar(1), ("vv", "vv"): block(1)},
                    Q[3], Q[3], "f1")
    f0 = FreeModuleMap(alg, "left", scalar(1), name="f0")

    cm = ChainMap(dual, left, [f4, f3, f2, f1, f0], twist=nu, name="f")
    report = cm.verify_squares()
    failures = list(report["failures"])

    # bijectivity: a matrix of scalars is bijective iff it is square of full rank
    for f in cm.verticals:
        if any(e.exp or set(e.num.c) - {()} for row in f.entries for e in row):
            failures.append((f.name, "not scalar"))
            continue
        den = lcm(*(e.num.den for row in f.entries for e in row))
        rows = [[e.num.c.get((), 0) * (den // e.num.den) for e in row] for row in f.entries]
        if any(len(row) != len(rows) for row in rows) or mat_rank(rows) != len(rows):
            failures.append((f.name, "inverse"))

    # eta = eps∘nu is the printed character
    H = A.inverse() * A.transpose() * B * B.transpose().inverse()
    if not eta.sends_u_to(H):
        failures.append(("eta_matrix", None))

    return {"chainmap": cm, "nu": nu, "eta": eta,
            "report": {"ok": not failures, "failures": failures}}


# ---------------------------------------------------------------------------
# SL_q machinery


def _slq_resolution_maps(alg):
    """phi_3, phi_2, phi_1 of the SL_q(2) resolution over alg (SLq or Laurent).

    This is the length-3 resolution of B(E) at E = A_q, that is psi's middle
    at D = 1: γ4-γ5, 1+γ3 and γ2-γ1 of _u_blocks at (A_q, A_q^-1).
    """
    Aq = a_q_matrix(alg.mats["q"])
    g = _u_blocks(alg, Aq, Aq.inverse())
    maps = [g["g4"].add(g["g5"].scale(-1)),
            identity_map(alg, "right", 4, _vv_labels(2)).add(g["g3"]),
            g["g2"].add(g["g1"].scale(-1))]
    for m, name in zip(maps, ("φ3", "φ2", "φ1")):
        m.name = name
    return maps


def build_slq_resolution(H):
    """The rank (1,4,4,1) free resolution of the trivial module over H.alg = O(SL_q(2))."""
    alg = H.alg
    if alg.kind != "SLq":
        raise ValueError("not O(SL_q(2))")
    return Complex(alg, "right", _slq_resolution_maps(alg),
                   augmentation=H.eps, name="slq_resolution")


def mapping_cone(chainmap, augmentation=None):
    """cone(f) of a chain self-map, differential (-d, 0; -f, d).

    Level li of the cone carries the blocks [C level li, C level li-1]; the
    sign convention negates the shifted copy, matching the printed cone.
    """
    C = chainmap.top
    alg = C.alg
    maps = C.maps
    ranks = C.ranks
    cone_maps = []
    for li in range(len(ranks)):
        src_prev = ranks[li]
        src_cur = ranks[li - 1] if li >= 1 else 0
        tgt_prev = ranks[li + 1] if li + 1 < len(ranks) else 0
        tgt_cur = ranks[li]
        if li == len(ranks) - 1 and src_cur == 0:
            break
        e = zero_entries(alg, src_prev + src_cur, tgt_prev + tgt_cur)
        dmap = maps[li] if li < len(maps) else None
        fmap = chainmap.verticals[li]
        for s in range(src_prev):
            if dmap is not None:
                for t in range(tgt_prev):
                    e[s][t] = dmap.entries[s][t] * (-1)
            for t in range(tgt_cur):
                e[s][tgt_prev + t] = -1 * fmap.entries[s][t]
        if li >= 1:
            dprev = maps[li - 1]
            for s in range(src_cur):
                for t in range(tgt_cur):
                    e[src_prev + s][tgt_prev + t] = dprev.entries[s][t]
        cone_maps.append(FreeModuleMap(alg, "right", e, name=f"cone_d{li}"))
    return Complex(alg, "right", cone_maps, augmentation=augmentation, name="cone")


def laurent_cone(H):
    """Mapping cone of right multiplication by (z-1) on the complex over H.alg."""
    alg = H.alg
    if alg.kind != "SLqLaurent":
        raise ValueError("not O(SL_q(2))[z^±1]")
    maps = _slq_resolution_maps(alg)  # levels C3 -> C2 -> C1 -> C0
    C = Complex(alg, "right", maps, name="slq_res_z")
    z1 = alg.elt(NCPoly.gen(4) - NCPoly.one())
    ranks = C.ranks  # [1, 4, 4, 1]
    f = [FreeModuleMap(alg, "right",
                       [[z1 if s == t else alg.zero() for t in range(r)] for s in range(r)],
                       name=f"f{3-i}") for i, r in enumerate(ranks)]
    cm = ChainMap(C, C, f, name="(z-1)")
    squares = cm.verify_squares()
    cone = mapping_cone(cm, augmentation=H.eps)
    if cone.ranks != [1, 5, 8, 5, 1]:
        raise IdentityFailed(f"cone ranks {cone.ranks} != [1, 5, 8, 5, 1]")
    return {"cone": cone, "chainmap": cm,
            "report": {"ok": squares["ok"], "squares": squares}}


def build_glq_complexes(H, slql):
    """(eq 2), its z-side twin (eq 3), and the connecting chain isomorphism.

    Eq 2 is psi over alg = H.alg = O(GL_q(2)).  Eq 3 is the Laurent cone over
    slql.alg = O(SL_q(2))[z^±1] carried to alg by the isomorphism's bwd
    (a -> aD^-1, b -> bD^-1, c -> c, d -> d, z -> D) and negated, with the
    blocks of level 3 in the printed order ww|k instead of the cone's k|vv.
    """
    alg = H.alg
    if alg.kind != "GAB" or alg.n != 2:
        raise ValueError("not O(GL_q(2))")
    if alg.rs.certified_degree < 8:
        raise ExceedsCertifiedDegree("glq complexes need certified degree >= 8")
    q = slql.alg.mats["q"]
    c2 = build_yd_resolution(gamma_maps(alg), H.eps)
    iso = glq_slq_laurent_iso(alg, slql.alg)
    bwd = iso["bwd"]
    cone = laurent_cone(slql)["cone"]
    # cone level 3 is [C0 (k), C1 shifted (vv)]; eq 3 lists the shifted block first
    order = [list(range(r)) for r in cone.ranks]
    order[3] = order[3][1:] + order[3][:1]
    c3 = Complex(alg, "right", [
        FreeModuleMap(alg, "right", [[-bwd.apply_loc(m.entries[s][t]) for t in order[i + 1]]
                                     for s in order[i]],
                      _block_labels(2, _PSI_LAYOUTS[i]), _block_labels(2, _PSI_LAYOUTS[i + 1]),
                      name=f"ψb{4 - i}")
        for i, m in enumerate(cone.maps)], augmentation=H.eps, name="eq3")
    E = alg.elt
    a, c = NCPoly.gen(0), NCPoly.gen(2)
    D = alg.loc_elt()
    vv = _vv_labels(2, "v")
    ww = _vv_labels(2, "w")

    # the chain isomorphism g (display matrices transposed into src x tgt)
    g4 = FreeModuleMap(alg, "right", [[D]], name="g4")
    e = zero_entries(alg, 5, 5)
    e[0][0] = D
    e[1][1] = D * D
    e[2][2] = alg.one()
    e[3][3] = D
    e[4][1] = E(c) * D
    e[4][3] = -q * E(a)
    e[4][4] = D
    g3 = FreeModuleMap(alg, "right", e, vv + ["k"], vv + ["k"], name="g3")
    e = zero_entries(alg, 8, 8)
    e[0][0] = D
    e[1][1] = D
    e[2][2] = alg.one()
    e[3][3] = alg.one()
    e[4][4] = D
    e[5][1] = D
    e[5][5] = D * D
    e[6][6] = alg.one()
    e[7][3] = alg.one()
    e[7][7] = D
    g2 = FreeModuleMap(alg, "right", e, vv + ww, vv + ww, name="g2 (P)")
    e = zero_entries(alg, 5, 5)
    e[0][0] = D
    e[1][1] = D
    e[2][2] = alg.one()
    e[3][3] = alg.one()
    e[4][4] = alg.one()
    e[0][4] = -1 * alg.one()
    g1 = FreeModuleMap(alg, "right", e, ww + ["k"], ww + ["k"], name="g1")
    g0 = identity_map(alg, "right", 1)

    cm = ChainMap(c2, c3, [g4, g3, g2, g1, g0], name="g")
    failures = list(iso["report"]["failures"]) + cm.verify_squares()["failures"]

    inverses = []
    for gmap in cm.verticals:
        inv, ok = _invert_triangular(gmap)
        if not ok:
            failures.append((gmap.name, "inverse"))
        inverses.append(inv)

    report = {"ok": not failures, "failures": failures}
    return {"c2": c2, "c3": c3, "g": cm, "inverses": inverses, "report": report}


def _invert_triangular(fmap):
    """Invert a map whose diagonal entries are unit monomials c*D^k.

    Solves sum_t G[t][u] . F[s][t] = delta by fixpoint substitution (valid
    here because the off-diagonal part is nilpotent), then verifies both
    composites against the identity.  A diagonal entry that is not c*D^k
    raises IdentityFailed.
    """
    alg = fmap.alg
    r = fmap.src_rank
    dinv = []
    for s in range(r):
        le = fmap.entries[s][s]
        if len(le.num.d) != 1:
            raise IdentityFailed(f"{fmap.name}: diagonal entry {le.pretty()} is not a monomial")
        word, coeff = next(iter(le.num.d.items()))
        if any(g != alg.loc for g in word):
            raise IdentityFailed(f"{fmap.name}: diagonal entry {le.pretty()} "
                                 f"is not a power of D")
        dinv.append(_monomial_inverse(alg, word, coeff, le.exp))
    G = [[alg.zero() for _ in range(r)] for _ in range(r)]
    for _ in range(r + 1):
        for u in range(r):
            for s in range(r):
                terms = [-(G[t][u] * e) for t, e in enumerate(fmap.entries[s])
                         if t != s and not (e.is_zero() or G[t][u].is_zero())]
                if s == u:
                    terms.append(alg.one())
                G[s][u] = LocalizedElement.sum(alg, terms) * dinv[s]
    ginv = FreeModuleMap(alg, fmap.side, G, fmap.tgt_labels, fmap.src_labels,
                         name=fmap.name + "^-1")
    ident = identity_map(alg, fmap.side, r)
    ok = fmap.compose(ginv).eq(ident) and ginv.compose(fmap).eq(ident)
    return ginv, ok


def _monomial_inverse(alg, word, coeff, exp):
    """(c * D^k * D^-e)^-1 for the central normal element."""
    k = len(word)
    if k >= exp:
        return LocalizedElement(alg, NCPoly.term((), 1 / coeff), k - exp)
    return LocalizedElement(alg, NCPoly.term((alg.loc,) * (exp - k), 1 / coeff), 0)


def complex_manifest(C):
    """JSON-ready description: ranks, side, entries as localized polynomials."""
    from .foundation import frac_str

    def le_dict(le):
        return {
            "num": [{"word": list(w), "coeff": frac_str(c)}
                    for w, c in sorted(le.num.d.items(),
                                       key=lambda t: C.alg.order.key(t[0]))],
            "dexp": le.exp,
        }

    return {
        "name": C.name,
        "side": C.side,
        "ranks": C.ranks,
        "maps": [
            [[le_dict(m.entries[s][t]) for t in range(m.tgt_rank)]
             for s in range(m.src_rank)]
            for m in C.maps
        ],
    }


# ---------------------------------------------------------------------------
# truncated exactness probe


def _image_columns(C):
    """(residues, form, key): residues(j, t, w, m) is the image of
    e_t * w D^-m under C.maps[j] mod P (None if P divides a denominator),
    form(j, t, w, m) the same image in integer form, both keyed by
    key(slot, word, exp): the canonical (word, exp) pairs numbered newest
    first, so that a column's pivot is the newest word it meets, near its
    leading word.  Any numbering gives the same kernels and lifts.

    nf is linear on normal words (Bergman), so an entry sum_v c_v v D^-k
    sends w D^-m to sum_v c_v nf(v sigma^-k(w)) D^-(k+m): each product is
    computed once and each entry's image reduced mod P once per w.
    """
    alg = C.alg
    slots = max(C.ranks)
    products, images, keys, inverses, fresh = {}, {}, {}, {}, count()
    ids = {}  # entry content -> entry id, so equal entries share their images
    entry_rows = [[[(u, e, ids.setdefault((tuple(e.num.c.items()), e.num.den, e.exp), len(ids)))
                    for u, e in enumerate(row) if not e.is_zero()]
                   for row in f.entries] for f in C.maps]

    def product(v, k, w):
        hit = products.get((v, k, w))
        if hit is None:
            p = alg.rs.normal_form(NCPoly.term(v) * alg.sigma_word(w, -k))
            hit = products[(v, k, w)] = (p.c, p.den)
        return hit

    def image(e, w):
        return combine(e.num.den, [(n, product(v, e.exp, w)) for v, n in e.num.c.items()])

    def key(u, x, exp):
        hit = keys.get((x, exp))
        if hit is None:
            y, m = x, exp  # x D^-exp with trailing D cancelled
            while m and y[-1:] == (alg.loc,):
                y, m = y[:-1], m - 1
            if (y, m) not in keys:
                keys[(y, m)] = -slots * next(fresh)
            hit = keys[(x, exp)] = keys[(y, m)]
        return u + hit

    def column_residues(j, t, w, m):
        out = {}
        for u, e, eid in entry_rows[j][t]:
            if (eid, w) not in images:
                images[(eid, w)] = residues(*image(e, w), inverses)
            res = images[(eid, w)]
            if res is None:
                return None
            for x, r in res.items():
                out[key(u, x, e.exp + m)] = r
        return out

    def form(j, t, w, m):
        parts = []
        for u, e, _ in entry_rows[j][t]:
            c, den = image(e, w)
            parts.append((1, ({key(u, x, e.exp + m): n for x, n in c.items()}, den)))
        return combine(1, parts)

    return column_residues, form, key


def probe_exactness(C, N, slack, window=2):
    """Kernel-versus-boundary probe on the degree filtration.

    For each position p (0 at the augmentation), computes the exact kernel of
    the outgoing differential restricted to the filtration
    deg(w * D^-m) = weight(w) + m*weight(D) <= N - slack with m <= window,
    then lifts every kernel vector through the incoming differential with
    preimages of degree <= N.  Reports cycles_found / cycles_lifted per
    position.  The normal words are enumerated once per probe; the kernel
    domain and the rest of the lift domain are two predicates over them.
    One linalg.kernel_and_lifts per map finds the lifts through it and the
    next position's kernel modulo a prime, each checked exactly.  It
    eliminates all of that kernel's domain, but draws the rest of the lift
    domain only until every cycle has a lift, so the columns past that
    point are never built.
    """
    alg = C.alg
    if C.side != "right" or alg.loc is None or C.augmentation is None:
        raise ProbeInvalid(f"needs a right complex with an augmentation over a localized "
                           f"algebra, got side {C.side!r} over {alg.name}")
    if slack < 0:
        raise ProbeInvalid(f"slack {slack} < 0")
    order = alg.order
    wloc = order.weights[alg.loc]
    rep = C.is_complex()
    if not rep["ok"]:
        raise ProbeInvalid(f"not a complex: {rep['failures'][:2]}")

    max_entry_exp = max(m.max_entry_exp() for m in C.maps)
    lift_window = window + max_entry_exp  # auto-expansion when entries carry D^-1
    entry_weight = max((e.num.weight(order) for m in C.maps
                        for row in m.entries for e in row), default=0)
    if N + entry_weight > alg.rs.certified_degree:
        raise ExceedsCertifiedDegree(
            f"probe needs certified degree >= {N + entry_weight}")
    kernel_words, lift_words = [], []  # (w, m) in the kernel domain; in the rest
    for w in alg.rs.enumerate_normal_words(min(N, alg.rs.certified_degree)):
        for m in range(lift_window + 1):
            weight = order.weight(w) + m * wloc
            if weight > N:
                break
            if m > 0 and w and w[-1] == alg.loc:
                continue
            if m > 0 and not alg.rs.is_normal_word(w + (alg.loc,) * m):
                raise ProbeInvalid("normal word times D^k reduced; "
                                   "probe basis would be dependent")
            in_kernel = weight <= N - slack and m <= window
            (kernel_words if in_kernel else lift_words).append((w, m))

    residues_of, form_of, key = _image_columns(C)
    L = len(C.ranks) - 1
    # position 0: the kernel of the augmentation, by exact elimination
    columns = []
    for t in range(C.ranks[L]):
        for w, m in kernel_words:
            n, d = C.augmentation.apply_loc(LocalizedElement(alg, NCPoly.term(w), m))
            columns.append(((t, w, m), {0: Fraction(n, d)} if n else {}))
    cycles = kernel_basis(columns)
    positions = []
    for p in range(L + 1):
        j = L - p  # complex level carrying the cycles
        found, lifted = len(cycles), 0
        if j >= 1:
            # map j-1's kernel domain (the next position's) first, then the rest
            rank = C.ranks[j - 1]
            dom = [(t, w, m) for t in range(rank) for w, m in kernel_words]
            rest = ((t, w, m) for t in range(rank) for w, m in lift_words)
            targets = [{key(t, w, m): c for (t, w, m), c in cyc.items()} for cyc in cycles]
            cycles, lifts = kernel_and_lifts(dom, rest, lambda x: residues_of(j - 1, *x),
                                             lambda x: form_of(j - 1, *x), targets)
            lifted = sum(beta is not None for beta in lifts)
        # at the left end (j = 0) nothing lifts, so a cycle there fails
        positions.append({"position": p, "cycles_found": found, "cycles_lifted": lifted,
                          "ok": lifted == found, "unlifted": found - lifted})
    return {"ok": all(p["ok"] for p in positions), "positions": positions, "N": N,
            "slack": slack, "window": window, "lift_window": lift_window}
