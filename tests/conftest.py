import pytest

from hopfcheck.foundation import Mat
from hopfcheck.hopf import (
    a_q_matrix,
    build_gab,
    build_gabcd,
    build_glq,
    build_slq,
    build_slq_laurent,
    hopf_structure,
    seeded_pair,
)

N3_SEED = 12345


@pytest.fixture(scope="session")
def glq8():
    return build_glq(2, 8)


@pytest.fixture(scope="session")
def glq9():
    # probe at N=6 needs certified degree N + max entry weight = 8; keep a
    # spare degree so localized comparisons never hit the guard
    return build_glq(2, 9)


@pytest.fixture(scope="session")
def slq6():
    return build_slq(2, 6)


@pytest.fixture(scope="session")
def slql8():
    return build_slq_laurent(2, 8)


@pytest.fixture(scope="session")
def n3():
    A, B = seeded_pair(N3_SEED)
    return build_gab(A, B, 6, name="G(A3,B3)")


@pytest.fixture(scope="session")
def conj_pair():
    """(A_q, A_q^-1) and its conjugate by F = [[1,1],[0,1]], q = 2."""
    A = a_q_matrix(2)
    B = A.inverse()
    F = Mat([[1, 1], [0, 1]])
    C = F.transpose() * A * F
    D = F.inverse() * B * F.transpose().inverse()
    return A, B, C, D


@pytest.fixture(scope="session")
def galois6(conj_pair):
    A, B, C, D = conj_pair
    gal = build_gabcd(A, B, C, D, 6, name="G(A,B|C,D)")
    gal_op = build_gabcd(C, D, A, B, 6, name="G(C,D|A,B)")
    return gal, gal_op


def _hopf_fixture(alg_fixture):
    """The session fixture <alg_fixture>_hopf: the Hopf structure of the
    session algebra alg_fixture, shared by the tests as a run's checks share it."""
    @pytest.fixture(scope="session", name=f"{alg_fixture}_hopf")
    def fixture(request):
        return hopf_structure(request.getfixturevalue(alg_fixture))
    return fixture


glq8_hopf, glq9_hopf, slq6_hopf, slql8_hopf, n3_hopf = (
    _hopf_fixture(name) for name in ("glq8", "glq9", "slq6", "slql8", "n3"))
