"""Seeded workload generators.

Each workload maps a benchmark seed to the list of configs one run
verifies.  The program under test only ever sees these configs; the seed
never reaches it.  ``DEFAULT_SEED`` reproduces the shipped configs.
"""

import random

from hopfcheck.hopf import seeded_pair

DEFAULT_SEED = 0

# Spelled out, not taken from cli.CHECK_ORDER, so that the workloads do not
# change when the program does.
GLQ2_CHECKS = [
    "invariants", "hopf", "nakayama", "cogroupoid", "galois",
    "resolution", "gamma", "dual", "twist",
    "slq", "cone", "glq_iso", "probe", "cohomology",
]
# configs/glq2.json at degree 8 and probe N = 6 takes 8-13 s a verification;
# at degree 6 and N = 3, the smallest at which every check passes, it takes
# 1.0-1.8 s, so a run holds enough verifications for its shortest to be steady.
GLQ2_DEGREE = 6
GLQ2_PROBE_N = 3
N3_CHECKS = ["invariants", "hopf", "nakayama", "resolution", "gamma",
             "dual", "twist", "cohomology"]
N3_DEGREE = 6
N3_DEFAULT_CONFIG_SEED = 12345  # configs/n3seed.json


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def glq2_configs(seed):
    """O(GL_q(2)), q = 2, with the (C,D) object conjugated by an elementary matrix.

    The default seed gives configs/glq2.json, conjugator [[1,1],[0,1]], at
    degree ``GLQ2_DEGREE`` and probe N ``GLQ2_PROBE_N``.
    """
    if seed == DEFAULT_SEED:
        k, upper = 1, True
    else:
        rng = _rng("glq2", seed)
        k = rng.choice([1, -1, 2, -2, 3, -3])
        upper = rng.random() < 0.5
    conj = [[1, k], [0, 1]] if upper else [[1, 0], [k, 1]]
    return [{
        "instance": {
            "kind": "GLq",
            "q": "2",
            "conjugator": [[str(x) for x in row] for row in conj],
        },
        "degree_bound": GLQ2_DEGREE,
        "probe": {"N": GLQ2_PROBE_N, "slack": 2, "laurent_window": 2},
        "checks": list(GLQ2_CHECKS),
        "seed": 20260809,
    }]


def cycle_type(A):
    """Cycle lengths of the permutation underlying a signed permutation matrix."""
    n = A.rows
    perm = [next(j for j in range(n) if A[i, j] != 0) for i in range(n)]
    seen, lengths = set(), []
    for start in range(n):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths)


def n3_config_seed(seed):
    """A config seed whose seeded_pair permutation is a 3-cycle.

    The default seed gives the shipped n3seed instance.
    """
    if seed == DEFAULT_SEED:
        return N3_DEFAULT_CONFIG_SEED
    rng = _rng("n3-warm", seed)
    while True:
        s = rng.randrange(2 ** 31)
        if cycle_type(seeded_pair(s, 3)[0]) == [3]:
            return s


def n3_warm_configs(seed):
    """G(A,B), n = 3, degree 6, one seeded 3-cycle instance."""
    return [{
        "instance": {"kind": "GAB", "n": 3},
        "degree_bound": N3_DEGREE,
        "checks": list(N3_CHECKS),
        "seed": n3_config_seed(seed),
    }]


WORKLOADS = {
    "glq2-d6": glq2_configs,
    "n3-warm": n3_warm_configs,
}
