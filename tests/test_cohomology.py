import random
from fractions import Fraction

import pytest

from hopfcheck.cohomology import ScalarComplex, bialgebra_cohomology, gs_dimension_report
from hopfcheck.complexes import Complex, FreeModuleMap, build_yd_resolution, gamma_maps
from hopfcheck.errors import UnexpectedHomDimension
from hopfcheck.foundation import Mat
from hopfcheck.hopf import build_gab, hopf_structure
from hopfcheck.linalg import mat_rank


@pytest.fixture(scope="module")
def coh(glq8, glq8_hopf):
    C = build_yd_resolution(gamma_maps(glq8), glq8_hopf.eps)
    return bialgebra_cohomology(glq8_hopf, C)


def test_dims_and_ranks(coh):
    assert coh["dims"] == [1, 1, 0, 1, 1]
    assert coh["ranks"] == [0, 1, 1, 0]
    assert coh["cochain_dims"] == [1, 2, 2, 2, 1]
    assert coh["hom_dims"] == {"k": 1, "vv": 1}


def test_euler_characteristic_vanishes(coh):
    chi_spaces = sum((-1) ** i * d for i, d in enumerate(coh["cochain_dims"]))
    chi_homology = sum((-1) ** i * d for i, d in enumerate(coh["dims"]))
    assert chi_spaces == 0
    assert chi_homology == 0


def test_h0_is_one(coh):
    assert coh["dims"][0] == 1


def test_scalar_complex_property(coh):
    assert coh["scalar_complex"].check_complex()["ok"]


@pytest.mark.parametrize("s, match", [(0, "not a comodule map"),
                                      (4, "scalar complex not a complex")])
def test_broken_resolution_is_unexpected(glq8, glq8_hopf, s, match):
    """1 added to entry (s, 0) of ψ1: the induced d^0 leaves the comodule maps,
    or the scalar cochains stop being a complex; neither rests on an assert."""
    C = build_yd_resolution(gamma_maps(glq8), glq8_hopf.eps)
    entries = [list(row) for row in C.maps[3].entries]
    entries[s][0] = entries[s][0] + glq8.one()
    maps = C.maps[:3] + [FreeModuleMap(glq8, C.side, entries)]
    with pytest.raises(UnexpectedHomDimension, match=match):
        bialgebra_cohomology(glq8_hopf, Complex(glq8, C.side, maps, C.augmentation))


def test_gs_dimension(coh):
    gs = gs_dimension_report(coh)
    assert gs["upper"] == 4 and gs["lower"] == 4
    assert gs["verdict"] == "cd_GS = 4"


def test_gs_inconclusive_branch():
    fake = {"dims": [1, 1, 0, 1, 0]}
    gs = gs_dimension_report(fake)
    assert gs["upper"] == 4 and gs["lower"] == 3
    assert gs["verdict"] == "inconclusive (lower<upper)"


def test_conjugated_pair_same_cohomology(conj_pair):
    _, _, C, D = conj_pair
    alg = build_gab(C, D, 8, name="G(C,D)")
    H = hopf_structure(alg)
    res = build_yd_resolution(gamma_maps(alg), H.eps)
    coh = bialgebra_cohomology(H, res)
    assert coh["dims"] == [1, 1, 0, 1, 1]
    assert coh["ranks"] == [0, 1, 1, 0]
    gs = gs_dimension_report(coh)
    assert gs["upper"] == gs["lower"] == 4


def test_dims_invariant_under_basis_change(coh):
    # conjugating the cochain complex by invertible scalar maps per degree
    # cannot change homology dimensions
    rng = random.Random(31)
    sc = coh["scalar_complex"]

    def unimodular(k):
        M = [[Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]
        for _ in range(3):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                c = Fraction(rng.randint(-2, 2))
                for t in range(k):
                    M[i][t] += c * M[j][t]
        return Mat(M)

    Ps = [unimodular(d) for d in sc.dims]
    new_mats = []
    for i, mat in enumerate(sc.mats):
        M = Mat(mat) if mat else None
        conj = Ps[i].inverse() * M * Ps[i + 1]
        new_mats.append([[conj[r, c] for c in range(conj.cols)] for r in range(conj.rows)])
    sc2 = ScalarComplex(sc.dims, new_mats)
    assert sc2.check_complex()["ok"]
    assert sc2.homology_dims() == sc.homology_dims()


def test_unexpected_hom_dimension_guard(glq8, glq8_hopf, monkeypatch):
    import hopfcheck.cohomology as co

    real = co.hom_to_trivial

    def fake(V):
        # two basis rows where Hom(V*xV, k) has one
        return [[1, 0, 0, 0], [0, 1, 0, 0]] if V.dim == 4 else real(V)

    monkeypatch.setattr(co, "hom_to_trivial", fake)
    C = build_yd_resolution(gamma_maps(glq8), glq8_hopf.eps)
    with pytest.raises(UnexpectedHomDimension):
        co.bialgebra_cohomology(glq8_hopf, C)
