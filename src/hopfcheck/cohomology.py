"""Bialgebra cohomology of G(A,B) and the Gerstenhaber-Schack dimension.

Hom(-, k) is applied to the free Yetter-Drinfeld resolution blockwise: each
free summand U ⊠ G contributes the comodule-morphism space Hom(U, k), and a
differential induces the scalar map f -> (f applied to the counit of the
matrix entries).  Homology dimensions come from exact ranks.
"""

from fractions import Fraction

from .complexes import _PSI_LAYOUTS, _block_offsets
from .errors import UnexpectedHomDimension
from .foundation import ratio, ratios_form
from .linalg import RowSpace, mat_rank
from .ydmod import build_comodule, hom_to_trivial

ZERO = Fraction(0)


class ScalarComplex:
    """Row-vector scalar cochain complex: x in C^i maps to x . mats[i]."""

    def __init__(self, dims, mats):
        self.dims = dims
        self.mats = mats

    def check_complex(self):
        for i in range(len(self.mats) - 1):
            A, B = self.mats[i], self.mats[i + 1]
            for r in range(len(A)):
                for c in range(len(B[0]) if B else 0):
                    v = sum((A[r][k] * B[k][c] for k in range(len(B))), ZERO)
                    if v:
                        return {"ok": False, "failures": [(i, r, c, str(v))]}
        return {"ok": True, "failures": []}

    def ranks(self):
        return [mat_rank(m) if m else 0 for m in self.mats]

    def homology_dims(self):
        rk = self.ranks()
        dims = []
        for i, d in enumerate(self.dims):
            below = rk[i - 1] if i >= 1 else 0
            above = rk[i] if i < len(rk) else 0
            dims.append(d - below - above)
        return dims


def bialgebra_cohomology(hopf, resolution):
    """Cohomology dimensions of Hom(P., k) for the YD resolution P. of k over hopf.alg."""
    triv = build_comodule("trivial", hopf)
    dual = build_comodule("dual_fundamental", hopf)
    fund = build_comodule("fundamental", hopf)
    vxv = build_comodule("tensor", hopf, parts=[dual, fund])

    h_triv = hom_to_trivial(triv)
    h_vv = hom_to_trivial(vxv)
    if len(h_triv) != 1:
        raise UnexpectedHomDimension(f"Hom(k,k) has dim {len(h_triv)}")
    if len(h_vv) != 1:
        raise UnexpectedHomDimension(
            f"Hom(V*xV,k) has dim {len(h_vv)}; instance not generic")
    homs = {"k": h_triv, "vv": h_vv, "ww": h_vv}

    eps = hopf.eps

    def level_hom_basis(layout):
        """Functionals on the level's coordinates, blockwise."""
        offsets, rank = _block_offsets(hopf.alg.n, layout)
        basis = []
        for b in layout:
            for row in homs[b]:
                vec = [ZERO] * rank
                vec[offsets[b]:offsets[b] + len(row)] = row
                basis.append(vec)
        return basis

    # C^i = Hom(P_i) lives at complex level 4-i
    bases = [level_hom_basis(layout) for layout in reversed(_PSI_LAYOUTS)]
    dims = [len(basis) for basis in bases]
    if dims != [1, 2, 2, 2, 1]:
        raise UnexpectedHomDimension(f"cochain dims {dims}")

    mats = []
    for i in range(4):
        # d^i: C^i -> C^{i+1} induced by psi_{i+1}: level 3-i -> level 4-i
        psi = resolution.maps[3 - i]
        # per source row: its nonzero entries t and their counits in integer form
        E = []
        for row in psi.entries:
            ts = [t for t, e in enumerate(row) if e.num.c]
            E.append((ts, *ratios_form(eps.apply_loc(row[t]) for t in ts)))
        src_basis, tgt_basis = bases[i + 1], bases[i]
        # the induced functionals are expressed in the source level's hom basis
        space = RowSpace()
        for lbl, vec in enumerate(src_basis):
            space.insert({k: v for k, v in enumerate(vec) if v}, lbl)
        rows = []
        for F in tgt_basis:
            Fc, Fden = ratios_form(map(ratio, F))
            G = [(sum(x * Fc[t] for t, x in zip(ts, c)), den * Fden) for ts, c, den in E]
            combo = space.express({k: Fraction(x, d) for k, (x, d) in enumerate(G) if x})
            if combo is None:
                raise UnexpectedHomDimension(
                    f"d^{i} of a functional is not a comodule map")
            rows.append([combo.get(lbl, ZERO) for lbl in range(len(src_basis))])
        mats.append(rows)

    sc = ScalarComplex(dims, mats)
    chk = sc.check_complex()
    if not chk["ok"]:
        raise UnexpectedHomDimension(f"scalar complex not a complex: {chk['failures']}")
    return {
        "dims": sc.homology_dims(),
        "ranks": sc.ranks(),
        "cochain_dims": dims,
        "scalar_complex": sc,
        "hom_dims": {"k": len(h_triv), "vv": len(h_vv)},
    }


def gs_dimension_report(cohomology_result):
    """Upper bound from the resolution length, lower from top nonzero H_b."""
    dims = cohomology_result["dims"]
    upper = 4
    lower = max((i for i, d in enumerate(dims) if d), default=0)
    verdict = "cd_GS = 4" if upper == lower == 4 else "inconclusive (lower<upper)"
    return {"upper": upper, "lower": lower, "verdict": verdict, "dims": dims}
