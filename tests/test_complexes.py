import random
from fractions import Fraction

import pytest

from hopfcheck.errors import ExceedsCertifiedDegree, ProbeInvalid
from hopfcheck.foundation import Mat, NCPoly
from hopfcheck.complexes import (
    ChainMap,
    Complex,
    FreeModuleMap,
    build_glq_complexes,
    build_left_resolution,
    build_slq_resolution,
    build_twist_chainmap,
    build_yd_resolution,
    dualize_resolution,
    gamma_identity_suite,
    gamma_maps,
    laurent_cone,
    mapping_cone,
    probe_exactness,
    _image_columns,
    _slq_resolution_maps,
)
from hopfcheck.hopf import LocalizedElement, hopf_structure

Q = Fraction(2)


def psi(H):
    """ψ over H.alg, augmented by the counit of the Hopf structure H."""
    return build_yd_resolution(gamma_maps(H.alg), H.eps)


def test_yd_resolution_ranks_and_entries(glq8, glq8_hopf):
    C = psi(glq8_hopf)
    assert C.ranks == [1, 5, 8, 5, 1]
    psi1 = C.maps[3]
    # psi''_1 entry (delta_ij - u_ij), psi'_1 entry (D - 1)
    for i in range(2):
        for j in range(2):
            want = glq8.elt(
                (NCPoly.one() if i == j else NCPoly.zero()) - NCPoly.gen(glq8.u_idx(i, j)))
            assert psi1.entries[i * 2 + j][0] == want
    assert psi1.entries[4][0] == glq8.elt(NCPoly.gen(glq8.loc) - NCPoly.one())


def test_gamma7_block_entry(n3):
    A, B = n3.mats["A"], n3.mats["B"]
    lam = (B.transpose() * A.transpose() * B * A)[0, 0]
    BtAt = B.transpose() * A.transpose()
    BA = B * A
    g7 = gamma_maps(n3)["g7"]
    n = 3
    for (i, j, k, l) in [(0, 1, 2, 0), (1, 1, 1, 1), (2, 0, 0, 2)]:
        want = NCPoly.term((n3.loc,), BtAt[i, k] * BA[l, j] / lam)
        if (i, j) == (k, l):
            want = want - NCPoly.one()
        assert g7.entries[i * n + j][k * n + l] == n3.elt(want)


def test_yd_is_complex(glq8_hopf, n3_hopf):
    for H in (glq8_hopf, n3_hopf):
        rep = psi(H).is_complex()
        assert rep["ok"], rep["failures"][:2]


def test_yd_resolution_needs_degree_six():
    from hopfcheck.hopf import build_glq
    small = build_glq(2, 4)
    with pytest.raises(ExceedsCertifiedDegree):
        psi(hopf_structure(small))


def test_sign_flip_breaks_complex(glq8, glq8_hopf):
    C = psi(glq8_hopf)
    psi3 = C.maps[1]
    flipped = [[psi3.entries[s][t] * (-1 if t >= 4 else 1)
                for t in range(psi3.tgt_rank)] for s in range(psi3.src_rank)]
    bad = FreeModuleMap(glq8, "right", flipped)
    rep = Complex(glq8, "right", [C.maps[0], bad, C.maps[2], C.maps[3]]).is_complex()
    assert not rep["ok"]
    assert rep["failures"]


def test_gamma_identity_suite(glq8, n3):
    for alg in (glq8, n3):
        rep = gamma_identity_suite(gamma_maps(alg))
        assert rep["ok"], rep["failures"]
        assert rep["identities"] == 15


def test_gamma13_composite_value(glq8):
    # gamma1 after gamma3 collapses to gamma2: (u B^t (B^t)^-1)_{ij} = u_{ij}
    g = gamma_maps(glq8)
    comp = g["g3"].compose(g["g1"])
    for i in range(2):
        for j in range(2):
            assert comp.entries[i * 2 + j][0] == glq8.u_elt(i, j)


def test_left_resolution(glq8, glq8_hopf, n3_hopf):
    for H in (glq8_hopf, n3_hopf):
        L = build_left_resolution(gamma_maps(H.alg), H.eps)
        rep = L.is_complex()
        assert rep["ok"], rep["failures"][:2]
    L = build_left_resolution(gamma_maps(glq8), glq8_hopf.eps)
    # phi_1 on the vv block sends x (x) v_i* v_j to x(delta_ji - u_ji)
    for i in range(2):
        for j in range(2):
            want = glq8.elt((NCPoly.one() if i == j else NCPoly.zero()) -
                            NCPoly.gen(glq8.u_idx(j, i)))
            assert L.maps[3].entries[1 + i * 2 + j][0] == want
    # phi_4 scalar part (A B^t)_ji - (A^t u B)_ji
    A, B = glq8.mats["A"], glq8.mats["B"]
    from hopfcheck.hopf import sandwich
    ABt = A * B.transpose()
    for i in range(2):
        for j in range(2):
            want = glq8.elt(NCPoly.term((), ABt[j, i]) -
                            sandwich(A.transpose(), B, j, i))
            assert L.maps[0].entries[0][i * 2 + j] == want


def test_dual_complex_entries_and_property(glq8, glq8_hopf, n3_hopf):
    for H in (glq8_hopf, n3_hopf):
        D = dualize_resolution(psi(H))
        rep = D.is_complex()
        assert rep["ok"], rep["failures"][:2]
    D = dualize_resolution(psi(glq8_hopf))
    # psi^t_1: x -> sum x(delta_ji - u_ji) (x) w_i* w_j + x(D-1)
    for i in range(2):
        for j in range(2):
            want = glq8.elt((NCPoly.one() if i == j else NCPoly.zero()) -
                            NCPoly.gen(glq8.u_idx(j, i)))
            assert D.maps[0].entries[0][i * 2 + j] == want
    assert D.maps[0].entries[0][4] == glq8.elt(NCPoly.gen(glq8.loc) - NCPoly.one())
    # psi^t_4 on the G summand: x -> x(D-1)
    assert D.maps[3].entries[0][0] == glq8.elt(NCPoly.gen(glq8.loc) - NCPoly.one())


def test_duality_transpose_consistency(glq8_hopf, n3_hopf):
    """The printed dual entries are the transposes of the psi entries.

    Block dictionary: level P1=[ww,k] pairs with Q3=[ww,k], P2=[vv,ww] with
    Q2=[ww,vv], P3=[vv,k] with Q1=[k,vv], P0/P4 with Q4/Q0; inside every
    vv/ww block the pair (i,j) pairs with (j,i).
    """
    for H in (glq8_hopf, n3_hopf):
        _check_transpose(H)


def _check_transpose(H):
    n = H.alg.n
    nn = n * n
    C = psi(H)
    D = dualize_resolution(C)
    T = lambda s: (s % n) * n + s // n  # (i,j) -> (j,i) inside a block

    psi1, psit1 = C.maps[3], D.maps[0]
    for s in range(nn):
        assert psit1.entries[0][T(s)] == psi1.entries[s][0]
    assert psit1.entries[0][nn] == psi1.entries[nn][0]

    psi4, psit4 = C.maps[0], D.maps[3]
    for t in range(nn):
        assert psit4.entries[1 + T(t)][0] == psi4.entries[0][t]
    assert psit4.entries[0][0] == psi4.entries[0][nn]

    psi2, psit2 = C.maps[2], D.maps[1]
    for s in range(nn):       # Q3 ww block
        for t in range(nn):   # Q2 ww block
            assert psit2.entries[s][t] == psi2.entries[nn + T(t)][T(s)]
        for t in range(nn):   # Q2 vv block
            assert psit2.entries[s][nn + t] == psi2.entries[T(t)][T(s)]
    for t in range(nn):
        assert psit2.entries[nn][t] == psi2.entries[nn + T(t)][nn]
        assert psit2.entries[nn][nn + t] == psi2.entries[T(t)][nn]

    psi3, psit3 = C.maps[1], D.maps[2]
    for s in range(nn):       # Q2 ww block source
        assert psit3.entries[s][0] == psi3.entries[nn][nn + T(s)]
        for t in range(nn):
            assert psit3.entries[s][1 + t] == psi3.entries[T(t)][nn + T(s)]
    for s in range(nn):       # Q2 vv block source
        assert psit3.entries[nn + s][0] == psi3.entries[nn][T(s)]
        for t in range(nn):
            assert psit3.entries[nn + s][1 + t] == psi3.entries[T(t)][T(s)]


def twist(H):
    """The ν-twisted isomorphism between ψ's dual and φ, both from H.alg's blocks."""
    g = gamma_maps(H.alg)
    return build_twist_chainmap(dualize_resolution(build_yd_resolution(g, H.eps)),
                                build_left_resolution(g, H.eps), H)


def test_twist_chainmap(glq8, glq8_hopf, n3_hopf):
    for H in (glq8_hopf, n3_hopf):
        tw = twist(H)
        assert tw["report"]["ok"], tw["report"]["failures"][:3]
    tw = twist(glq8_hopf)
    # f2 block on the W part: x (x) w_i*w_j -> sum B_pi A_qj nu(x) (x) w_p*w_q
    A, B = glq8.mats["A"], glq8.mats["B"]
    f2 = tw["chainmap"].verticals[2]
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    c = B[p, i] * A[q, j]
                    want = glq8.elt(NCPoly.term((), c)) if c else glq8.zero()
                    assert f2.entries[i * 2 + j][p * 2 + q] == want
    # eta = eps∘nu has the printed matrix of values
    H = A.inverse() * A.transpose() * B * B.transpose().inverse()
    assert tw["eta"].values[:4] == [H[0, 0], H[0, 1], H[1, 0], H[1, 1]]


def test_twist_single_square_directly(glq8_hopf):
    tw = twist(glq8_hopf)
    cm = tw["chainmap"]
    lhs = cm.top.maps[3].compose(cm.verticals[4], cm.twist)
    rhs = cm.verticals[3].compose(cm.bottom.maps[3])
    assert lhs.add(rhs.scale(-1)).is_zero()


def test_slq_resolution(slq6, slq6_hopf):
    S = build_slq_resolution(slq6_hopf)
    assert S.ranks == [1, 4, 4, 1]
    rep = S.is_complex()
    assert rep["ok"], rep["failures"]


@pytest.mark.parametrize("fixture", ["slq6", "slql8"])
def test_slq_resolution_table(fixture, request):
    """The printed SL_q(2) resolution φ3, φ2, φ1, entry by entry, over
    O(SL_q(2)) and O(SL_q(2))[z^±1]."""
    alg = request.getfixturevalue(fixture)
    a, b, c, d = (NCPoly.gen(i) for i in range(4))
    one, zero, q = NCPoly.one(), NCPoly.zero(), Q
    table = [
        [[-q * one + (1 / q) * d, -c, -b, (-1 / q) * one + q * a]],
        [[one, zero, (-1 / q) * b, a],
         [b, one - q * a, zero, zero],
         [zero, zero, one - (1 / q) * d, c],
         [d, -q * c, zero, one]],
        [[a - one], [b], [c], [d - one]],
    ]
    maps = _slq_resolution_maps(alg)
    assert [m.name for m in maps] == ["φ3", "φ2", "φ1"]
    for m, rows in zip(maps, table):
        assert (m.src_rank, m.tgt_rank) == (len(rows), len(rows[0]))
        for s, row in enumerate(rows):
            for t, p in enumerate(row):
                assert m.entries[s][t] == alg.elt(p), (m.name, s, t)


def test_laurent_cone(slql8, slql8_hopf):
    lc = laurent_cone(slql8_hopf)
    assert lc["report"]["ok"]
    cone = lc["cone"]
    assert cone.ranks == [1, 5, 8, 5, 1]
    rep = cone.is_complex()
    assert rep["ok"], rep["failures"][:2]
    # abar - 1 is hit by the last differential via the phi_1 preimage
    last = cone.maps[-1]
    coords = [slql8.zero()] * 5
    coords[1] = slql8.one()  # v1*v1 slot of the C1 block
    img = last.apply(coords)
    assert img[0] == slql8.elt(NCPoly.gen(0) - NCPoly.one())


def test_cone_of_random_central_chain_map(slql8, slql8_hopf):
    rng = random.Random(77)
    lc = laurent_cone(slql8_hopf)
    C = lc["chainmap"].top
    h = slql8.elt(NCPoly.term((4,), rng.randint(1, 3)) +
                  NCPoly.term((), rng.randint(-2, 2)) +
                  NCPoly.term((4, 4), rng.randint(-2, 2)))
    f = [FreeModuleMap(slql8, "right",
                       [[h if s == t else slql8.zero() for t in range(r)]
                        for s in range(r)]) for r in C.ranks]
    cm = ChainMap(C, C, f)
    assert cm.verify_squares()["ok"]
    cone = mapping_cone(cm)
    assert cone.is_complex()["ok"]


def test_glq_complexes(glq8, glq8_hopf, slql8_hopf):
    gc = build_glq_complexes(glq8_hopf, slql8_hopf)
    assert gc["report"]["ok"], gc["report"]["failures"][:4]
    assert gc["c3"].is_complex()["ok"]
    D = glq8.loc_elt()
    g1 = gc["g"].verticals[3]
    # diagonal (D, D, 1, 1, 1) with the corner entry -1 sending w1*w1 to -k
    assert g1.entries[0][0] == D
    assert g1.entries[1][1] == D
    assert g1.entries[2][2] == glq8.one()
    assert g1.entries[3][3] == glq8.one()
    assert g1.entries[4][4] == glq8.one()
    assert g1.entries[0][4] == -1 * glq8.one()
    # P matrix entries (2,6) = D and (6,6) = D^2 in the printed numbering
    P = gc["g"].verticals[2]
    assert P.entries[5][1] == D
    assert P.entries[5][5] == D * D
    # inverses are genuine two-sided inverses
    from hopfcheck.complexes import identity_map
    for gmap, inv in zip(gc["g"].verticals, gc["inverses"]):
        ident = identity_map(glq8, "right", gmap.src_rank)
        assert gmap.compose(inv).eq(ident)
        assert inv.compose(gmap).eq(ident)


@pytest.mark.parametrize("diagonal, match", [("0", "not a monomial"),
                                             ("a + D", "not a monomial"),
                                             ("a", "not a power of D")])
def test_invert_triangular_rejects_a_non_unit_diagonal(glq8, diagonal, match):
    """A vertical whose diagonal entry is not c*D^k cannot be inverted by
    substitution; _invert_triangular raises IdentityFailed, not an assert."""
    from hopfcheck.complexes import _invert_triangular, identity_map
    from hopfcheck.errors import IdentityFailed
    a, D = glq8.gen_elt(0), glq8.loc_elt()
    vertical = identity_map(glq8, "right", 2)
    vertical.entries[1][1] = {"0": glq8.zero(), "a + D": a + D, "a": a}[diagonal]
    with pytest.raises(IdentityFailed, match=match):
        _invert_triangular(vertical)


def test_glq_complexes_single_square(glq8_hopf, slql8_hopf):
    gc = build_glq_complexes(glq8_hopf, slql8_hopf)
    cm = gc["g"]
    lhs = cm.top.maps[3].compose(cm.verticals[4])
    rhs = cm.verticals[3].compose(cm.bottom.maps[3])
    assert lhs.add(rhs.scale(-1)).is_zero()


@pytest.mark.parametrize("entry, witness", [("zero", "('f4', 'inverse')"),
                                             ("a", "('f4', 'not scalar')")])
def test_twist_fails_on_a_singular_or_non_scalar_vertical(entry, witness, monkeypatch):
    """f4 replaced by the 1 x 1 map 0 (singular) or a (not a scalar): the
    twist check is a fail with that witness, with the squares left passing
    so that the bijectivity check alone decides."""
    import hopfcheck.cli as cli
    import hopfcheck.complexes as complexes
    real = complexes.ChainMap

    class Replaced(real):
        def __init__(self, top, bottom, verticals, twist=None, name=""):
            alg = top.alg
            value = alg.zero() if entry == "zero" else alg.gen_elt(0)
            f4 = FreeModuleMap(alg, "left", [[value]], name="f4")
            super().__init__(top, bottom, [f4] + verticals[1:], twist, name)

        def verify_squares(self):
            return {"ok": True, "failures": []}

    monkeypatch.setattr(complexes, "ChainMap", Replaced)
    rep, code = cli.run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 6,
                                "checks": ["twist"]})
    (check,) = rep["checks"]
    assert code == 1 and check["status"] == "fail"
    assert check["witnesses"] == [witness]


@pytest.mark.parametrize("entry, witness", [("zero", "('f0', 'inverse')"),
                                             ("a", "('f0', 'not scalar')")])
def test_twist_names_f0_in_its_failures(entry, witness, monkeypatch):
    """f0, the last vertical, replaced as f4 is above: its bijectivity
    failure is named f0, not id."""
    import hopfcheck.cli as cli
    import hopfcheck.complexes as complexes
    real = complexes.ChainMap

    class Replaced(real):
        def __init__(self, top, bottom, verticals, twist=None, name=""):
            alg = top.alg
            value = alg.zero() if entry == "zero" else alg.gen_elt(0)
            f0 = FreeModuleMap(alg, "left", [[value]], name=verticals[-1].name)
            super().__init__(top, bottom, verticals[:-1] + [f0], twist, name)

        def verify_squares(self):
            return {"ok": True, "failures": []}

    monkeypatch.setattr(complexes, "ChainMap", Replaced)
    rep, code = cli.run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 6,
                                "checks": ["twist"]})
    (check,) = rep["checks"]
    assert code == 1 and check["status"] == "fail"
    assert check["witnesses"] == [witness]


def test_probe_trivial_witnesses(glq9, glq9_hopf):
    C = psi(glq9_hopf)
    psi1 = C.maps[3]
    # a - 1 lifts via w1*w1 (x) (-1)
    coords = [glq9.zero()] * 5
    coords[0] = -1 * glq9.one()
    img = psi1.apply(coords)
    assert img[0] == glq9.elt(NCPoly.gen(0) - NCPoly.one())
    # D - 1 lifts via the k-summand generator
    coords = [glq9.zero()] * 5
    coords[4] = glq9.one()
    img = psi1.apply(coords)
    assert img[0] == glq9.elt(NCPoly.gen(glq9.loc) - NCPoly.one())


def test_probe_small(glq9_hopf):
    C = psi(glq9_hopf)
    rep = probe_exactness(C, N=4, slack=2, window=1)
    assert rep["ok"], rep["positions"]
    assert all(p["cycles_found"] == p["cycles_lifted"] for p in rep["positions"][:-1])


def test_probe_enumerates_its_normal_words_once(glq9_hopf, monkeypatch):
    """One enumerate_normal_words call per probe: the kernel domain and the
    rest of the lift domain are two predicates over one list."""
    from hopfcheck.rewrite import RewriteSystem
    calls, enumerate_words = [], RewriteSystem.enumerate_normal_words

    def counted(self, max_weight):
        calls.append(max_weight)
        return enumerate_words(self, max_weight)

    monkeypatch.setattr(RewriteSystem, "enumerate_normal_words", counted)
    assert probe_exactness(psi(glq9_hopf), N=4, slack=2, window=1)["ok"]
    assert calls == [4]


def test_probe_lifts_glq9_without_exact_fallback(glq9_hopf, monkeypatch):
    """Every lift at N=4 is found mod P and confirmed exactly; no target
    reaches RowSpace.express, the exact fallback of certified_lifts."""
    from hopfcheck.linalg import RowSpace
    calls = []
    monkeypatch.setattr(RowSpace, "express", lambda self, vec: calls.append(vec))
    rep = probe_exactness(psi(glq9_hopf), N=4, slack=2, window=1)
    assert rep["ok"] and not calls
    assert sum(p["cycles_lifted"] for p in rep["positions"]) > 0


def test_probe_counts_a_wrong_lift_as_unlifted(glq9_hopf, monkeypatch):
    """Both candidate sources of kernel_and_lifts, modular (its rational
    reconstruction) and exact, give a doubled beta; the exact recheck turns
    each down."""
    import hopfcheck.linalg as linalg
    from hopfcheck.linalg import RowSpace
    express, reconstruct = RowSpace.express, linalg._reconstruct

    def doubled(beta):
        return None if beta is None else {k: 2 * c for k, c in beta.items()}

    monkeypatch.setattr(RowSpace, "express", lambda self, vec: doubled(express(self, vec)))
    monkeypatch.setattr(linalg, "_reconstruct",
                        lambda combo, rationals: doubled(reconstruct(combo, rationals)))
    rep = probe_exactness(psi(glq9_hopf), N=4, slack=2, window=1)
    assert not rep["ok"]
    lifting = [p for p in rep["positions"][:-1] if p["cycles_found"]]
    assert lifting
    for p in lifting:
        assert not p["ok"] and p["cycles_lifted"] == 0
        assert p["unlifted"] == p["cycles_found"]


@pytest.mark.parametrize("which", ["glq9 psi", "slql8 cone"])
def test_probe_kernels_match_exact_elimination(which, request, monkeypatch):
    """Each probe echelon's kernel is kernel_basis of its kernel domain's
    exact columns, vector for vector and in order, with no exact fallback."""
    import hopfcheck.complexes as complexes
    import hopfcheck.linalg as linalg
    from hopfcheck.linalg import kernel_basis
    if which == "slql8 cone":
        C, N, window = laurent_cone(request.getfixturevalue("slql8_hopf"))["cone"], 5, 2
    else:
        C, N, window = psi(request.getfixturevalue("glq9_hopf")), 4, 1
    echelon, kernels = complexes.kernel_and_lifts, []

    def checked(dom, rest, residues_of, form_of, targets):
        kernel, lifts = echelon(dom, rest, residues_of, form_of, targets)
        columns = []
        for x in dom:
            c, den = form_of(x)
            columns.append((x, {k: Fraction(n, den) for k, n in c.items()}))
        assert kernel == kernel_basis(columns)
        kernels.append(kernel)
        return kernel, lifts

    monkeypatch.setattr(complexes, "kernel_and_lifts", checked)
    fallbacks = []
    monkeypatch.setattr(linalg, "kernel_basis", lambda columns: fallbacks.append(columns))
    rep = probe_exactness(C, N=N, slack=2, window=window)
    assert rep["ok"] and not fallbacks
    assert [len(k) for k in kernels] == [p["cycles_found"] for p in rep["positions"][1:]]
    assert sum(map(len, kernels)) > 0


def test_probe_builds_no_fraction_per_column_entry(glq9_hopf, monkeypatch):
    """The probe's echelons take residues from the integer form and check
    exactly on it: the only Fractions they build are kernel and lift
    coefficients, far fewer than the column entries they reduce."""
    import hopfcheck.complexes as complexes
    echelon, new = complexes.kernel_and_lifts, Fraction.__new__
    built, entries, coefficients = [0], [0], [0]

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    def counting(dom, rest, residues_of, form_of, targets):
        rest = list(rest)
        Fraction.__new__ = counted
        try:
            kernel, lifts = echelon(dom, iter(rest), residues_of, form_of, targets)
        finally:
            Fraction.__new__ = new
        entries[0] += sum(len(residues_of(x)) for x in dom + rest)
        coefficients[0] += sum(map(len, kernel)) + sum(len(b) for b in lifts if b)
        return kernel, lifts

    monkeypatch.setattr(complexes, "kernel_and_lifts", counting)
    assert probe_exactness(psi(glq9_hopf), N=4, slack=2, window=1)["ok"]
    assert 0 < built[0] <= coefficients[0]
    assert entries[0] > 10 * coefficients[0]


def reference_column(fmap, t, w, m, key):
    """The probe column of e_t * w D^-m, built the direct way: each entry
    times w D^-m as a LocalizedElement product, normalized as a whole, and
    keyed as the probe keys slot u's word x D^-exp, by key(u, x, exp)."""
    alg = fmap.alg
    out = {}
    for u, e in enumerate(fmap.entries[t]):
        if not e.is_zero():
            le = e * LocalizedElement(alg, NCPoly.term(w), m)
            for x, c in le.num.terms():
                k = key(u, x, le.exp)
                out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("which, bound, window", [("glq9 psi", 4, 1), ("slql8 cone", 5, 2),
                                                  ("n3 psi", 2, 1), ("n3 psi.D^-1", 2, 1)])
def test_probe_columns_match_products(which, bound, window, request):
    """The probe's table-built columns equal the direct products on every
    map, row t and filtration vector w D^-m (weight(w) + m weight(D) <= bound).
    ψ.D^-1, ψ with every entry times D^-1, exercises the sigma shift: D is
    not central in G(A3,B3)."""
    if which == "slql8 cone":
        C = laurent_cone(request.getfixturevalue("slql8_hopf"))["cone"]
    else:
        C = psi(request.getfixturevalue(which.split()[0] + "_hopf"))
    if which == "n3 psi.D^-1":
        dinv = C.alg.loc_inv_elt()
        C = Complex(C.alg, "right", [FreeModuleMap(C.alg, "right", [[e * dinv for e in row]
                                                                     for row in f.entries])
                                     for f in C.maps])
    alg = C.alg
    wloc = alg.order.weights[alg.loc]
    vectors = [(w, m) for w in alg.rs.enumerate_normal_words(bound) for m in range(window + 1)
               if alg.order.weight(w) + m * wloc <= bound
               and not (m and w and w[-1] == alg.loc)]
    assert any(m for _, m in vectors)
    assert (max(f.max_entry_exp() for f in C.maps) > 0) == which.endswith("D^-1")
    _, form, key = _image_columns(C)
    for j, fmap in enumerate(C.maps):
        for t in range(fmap.src_rank):
            for w, m in vectors:
                c, den = form(j, t, w, m)
                assert {k: Fraction(n, den) for k, n in c.items()} == \
                    reference_column(fmap, t, w, m, key), (j, t, w, m)


def broken_resolution(g, eps):
    """ψ, from the blocks g and the counit eps, with 1 added to one entry of
    ψ2, so that ψ2;ψ1 != 0."""
    C = build_yd_resolution(g, eps)
    alg = C.alg
    psi2 = C.maps[2]
    entries = [list(row) for row in psi2.entries]
    entries[0][0] = entries[0][0] + alg.one()
    maps = list(C.maps)
    maps[2] = FreeModuleMap(alg, C.side, entries, psi2.src_labels, psi2.tgt_labels)
    return Complex(alg, C.side, maps, C.augmentation)


def test_probe_rejects_a_non_complex(glq9, glq9_hopf):
    with pytest.raises(ProbeInvalid, match="not a complex"):
        probe_exactness(broken_resolution(gamma_maps(glq9), glq9_hopf.eps),
                        N=4, slack=2, window=1)
    C = psi(glq9_hopf)
    left = Complex(glq9, "left", C.maps, C.augmentation)
    with pytest.raises(ProbeInvalid, match="right complex"):
        probe_exactness(left, N=4, slack=2, window=1)
    # no augmentation: position 0 has no kernel to start from
    import hopfcheck
    bare = Complex(glq9, "right", C.maps)
    with pytest.raises(ProbeInvalid, match="augmentation"):
        hopfcheck.probe_exactness(bare, N=4, slack=2, window=1)
    with pytest.raises(ProbeInvalid, match="slack"):
        probe_exactness(C, N=4, slack=-1, window=1)


def test_probe_on_a_non_complex_is_a_failed_check(monkeypatch):
    import hopfcheck.cli as cli
    monkeypatch.setattr(cli, "build_yd_resolution", broken_resolution)
    rep, code = cli.run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 6,
                                "probe": {"N": 3}, "checks": ["probe"]})
    assert code == 1
    (entry,) = rep["checks"]
    assert entry["status"] == "fail"
    assert entry["witnesses"][0].startswith("ProbeInvalid: not a complex")


def test_probe_rejects_uncertified(glq8_hopf):
    C = psi(glq8_hopf)
    with pytest.raises(ExceedsCertifiedDegree):
        probe_exactness(C, N=20, slack=2)


# sha256 of the sorted-key JSON manifests of psi, of its dual, of the left
# resolution phi and of eq 3; they pin every printed entry of the four complexes
MANIFEST_SHA256 = {
    ("glq8", "eq3"): "8316a425d3f707b5050f8abfa95ceac449ece6cfb4bd9d88d6f63267de852fb0",
    ("glq8", "psi"): "399768e537e122d9273727816a036473b753174374f9ae8be6748376ed9276f5",
    ("glq8", "dual"): "e529ac1a0519d1b1adb9bc942d3ea9c41823b552ac85cb873f10ab6e769d2fe5",
    ("glq8", "left"): "059960f2158ce4e6d50c12aff8d88150d10ed851181f6e4dffac310ade16f379",
    ("n3", "psi"): "9c864e267852bda5c18fbc5906e75d34e27d0d4724dfeb5474093998413738c5",
    ("n3", "dual"): "ed25770fa84f7583895400eb3a88ed8e42c987a5a44dfbbf6a3bc24414096107",
    ("n3", "left"): "4d715eadd7815fabd6edcf9d28acb76bca82e1af86be8e174d12a4b87d19fb64",
}


def test_complex_manifest(glq8_hopf, n3_hopf, slql8_hopf):
    import hashlib
    import json
    from hopfcheck.complexes import complex_manifest
    C = psi(glq8_hopf)
    m = complex_manifest(C)
    assert m["ranks"] == [1, 5, 8, 5, 1] and m["side"] == "right"
    blob = json.dumps(m, sort_keys=True)
    assert json.dumps(complex_manifest(psi(glq8_hopf)), sort_keys=True) == blob
    for name, H in (("glq8", glq8_hopf), ("n3", n3_hopf)):
        C = psi(H)
        for which, cx in (("psi", C), ("dual", dualize_resolution(C)),
                          ("left", build_left_resolution(gamma_maps(H.alg), H.eps))):
            digest = hashlib.sha256(
                json.dumps(complex_manifest(cx), sort_keys=True).encode()).hexdigest()
            assert digest == MANIFEST_SHA256[(name, which)], (name, which)
    eq3 = build_glq_complexes(glq8_hopf, slql8_hopf)["c3"]
    digest = hashlib.sha256(json.dumps(complex_manifest(eq3), sort_keys=True).encode()).hexdigest()
    assert digest == MANIFEST_SHA256[("glq8", "eq3")]


def test_cone_with_wrong_ranks_raises_identity_failed(slql8_hopf, monkeypatch):
    """A cone that lost its last level fails laurent_cone's rank check: an
    IdentityFailed, which a run reports as a fail of the cone check."""
    import hopfcheck.complexes as complexes
    from hopfcheck.cli import run_config
    from hopfcheck.errors import IdentityFailed
    real = complexes.mapping_cone

    def truncated(chainmap, augmentation=None):
        cone = real(chainmap, augmentation)
        return Complex(cone.alg, cone.side, cone.maps[:-1], name=cone.name)

    monkeypatch.setattr(complexes, "mapping_cone", truncated)
    with pytest.raises(IdentityFailed, match="cone ranks"):
        laurent_cone(slql8_hopf)
    report, code = run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 6,
                               "probe": {"N": 3}, "checks": ["cone"]})
    (entry,) = report["checks"]
    assert code == 1 and entry["status"] == "fail"
    assert entry["witnesses"][0] == "IdentityFailed: cone ranks [1, 5, 8, 5] != [1, 5, 8, 5, 1]"


def test_add_and_eq_check_what_they_combine(glq8, slq6):
    """add raises IdentityFailed on a rank, side or algebra mismatch, as
    compose does; eq is False across sides or algebras."""
    from hopfcheck.errors import IdentityFailed
    one = glq8.one()
    m11 = FreeModuleMap(glq8, "right", [[one]], name="a")
    for other, match in [(FreeModuleMap(glq8, "right", [[one, one]]), "1x2"),
                         (FreeModuleMap(glq8, "left", [[one]]), "left"),
                         (FreeModuleMap(slq6, "right", [[slq6.one()]]), "SLq")]:
        with pytest.raises(IdentityFailed, match=match):
            m11.add(other)
        assert not m11.eq(other)
    assert m11.eq(FreeModuleMap(glq8, "right", [[one]]))
    assert m11.add(m11.scale(-1)).is_zero()
