"""Self-tests of the benchmark (not of hopfcheck).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for p in (BENCH, os.path.join(ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from gate import Gate
from hopfcheck import cli
from hopfcheck.hopf import seeded_pair
from hopfcheck.rewrite import system_cache_key
from spans import Tracer, self_times, verification_metrics
from workloads import (DEFAULT_SEED, GLQ2_CHECKS, GLQ2_DEGREE, GLQ2_PROBE_N,
                       WORKLOADS, cycle_type)

SEEDS = [DEFAULT_SEED, 1, 2, 3, 17, 123456]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    gen = WORKLOADS[workload]
    for seed in SEEDS:
        assert gen(seed) == gen(seed)
    assert len({json.dumps(gen(s), sort_keys=True) for s in SEEDS}) > 1


def test_n3_generator_only_emits_3_cycles():
    for seed in range(40):
        for cfg in WORKLOADS["n3-warm"](seed):
            assert cycle_type(seeded_pair(cfg["seed"], 3)[0]) == [3]


def test_cycle_type():
    A, _ = seeded_pair(4, 3)  # a transposition
    assert cycle_type(A) == [1, 2]


def test_default_seed_reproduces_shipped_configs():
    with open(os.path.join(ROOT, "configs", "glq2.json")) as fh:
        shipped = json.load(fh)
    shipped["degree_bound"] = GLQ2_DEGREE
    shipped["probe"]["N"] = GLQ2_PROBE_N
    assert WORKLOADS["glq2-d6"](DEFAULT_SEED) == [shipped]
    with open(os.path.join(ROOT, "configs", "n3seed.json")) as fh:
        shipped = cli._instance_matrices(json.load(fh))
    (cfg,) = WORKLOADS["n3-warm"](DEFAULT_SEED)
    mats = cli._instance_matrices(cfg)
    assert (mats["A"], mats["B"]) == (shipped["A"], shipped["B"])


def test_glq2_conjugators_are_elementary():
    for seed in range(1, 40):
        (F,) = [cfg["instance"]["conjugator"] for cfg in WORKLOADS["glq2-d6"](seed)]
        k = int(F[0][1]) or int(F[1][0])
        assert k in (1, -1, 2, -2, 3, -3)
        assert F[0][0] == F[1][1] == "1" and "0" in (F[0][1], F[1][0])


def test_self_times_on_a_synthetic_tree():
    # root [0,10] with children a [1,4] and b [5,9]; a has child c [2,3]
    spans = [
        ["run_config", 0.0, 10.0, -1, 0, None],
        ["build_gabcd", 1.0, 4.0, 0, 0, None],
        ["RewriteSystem.normal_form", 2.0, 3.0, 1, 0, None],
        ["probe_exactness", 5.0, 9.0, 0, 0,
         [{"position": 0, "cycles_found": 2, "cycles_lifted": 2}]],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = verification_metrics(spans, cache_key=None)
    assert m["cli.self_s"] == 3.0
    assert m["hopf.build_s"] == 2.0
    assert m["rewrite.nf_s"] == 1.0 and m["rewrite.nf_calls"] == 1
    assert m["complexes.probe_s"] == 4.0
    assert m["complexes.probe_cycles"] == m["complexes.probe_lifted"] == 2


def test_host_speed_leaves_the_collector_as_it_was():
    import gc
    import run
    assert run.host_speed() > 0 and gc.isenabled()
    gc.disable()
    try:
        run.host_speed()
        assert not gc.isenabled()
    finally:
        gc.enable()


def small_config():
    return {"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 8,
            "checks": ["invariants", "hopf", "cohomology"], "seed": 1}


@pytest.fixture(scope="module")
def small_report():
    cfg = small_config()
    report, code = cli.run_config(cfg)
    return cfg, cli.report_json(report), code


def test_gate_passes_a_correct_report(small_report):
    gate = Gate()
    gate.judge(*small_report)
    gate.judge(*small_report)
    assert (gate.attempted, gate.failed, gate.fail_frac()) == (6, 0, 0.0)


def test_gate_counts_a_wrong_expectation(small_report):
    gate = Gate(expected_hb=[1, 1, 1, 1, 1])
    gate.judge(*small_report)
    assert gate.failed == 1 and gate.fail_frac() == pytest.approx(1 / 3)
    assert "H_b" in gate.problems[0]


def test_gate_fails_every_entry_on_pin_mismatch(small_report):
    cfg = small_report[0]
    gate = Gate(pins=[{"config": cfg, "sha256": "0" * 64}])
    gate.judge(*small_report)
    assert gate.fail_frac() == 1.0


def test_gate_counts_an_entry_that_changed_between_verifications(small_report):
    cfg, text, code = small_report
    blob = json.loads(text)
    blob["report"]["checks"][0]["details"]["lambda"] = "7"
    gate = Gate()
    gate.judge(cfg, text, code)
    gate.judge(cfg, json.dumps(blob), code)
    assert (gate.attempted, gate.failed) == (6, 1)


def test_gate_counts_a_raising_verification():
    gate = Gate()
    gate.raised(small_config(), RuntimeError("boom"))
    assert (gate.attempted, gate.failed) == (3, 3)


def test_tracer_binds_every_importer_and_restores_originals(small_report):
    originals = (cli.run_config, cli.probe_exactness, cli.build_gab.__globals__["build_gabcd"])
    tracer = Tracer(0)
    tracer.install()
    try:
        assert cli.probe_exactness is not originals[1]
        assert cli.build_gab.__globals__["build_gabcd"] is not originals[2]
        report, _ = cli.run_config(small_config())
    finally:
        tracer.uninstall()
    assert (cli.run_config, cli.probe_exactness,
            cli.build_gab.__globals__["build_gabcd"]) == originals
    assert tracer.spans[0][0] == "run_config" and tracer.spans[0][3] == -1
    # BENCHMARK.json names exactly the metrics a traced verification yields
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(verification_metrics(tracer.spans, system_cache_key))
    produced |= {f"cli.check.{c}_s" for c in GLQ2_CHECKS} | {"trace.overhead_s"}
    assert listed == produced
    # traced and untraced bodies agree
    gate = Gate()
    gate.judge(small_report[0], small_report[1], small_report[2])
    gate.judge(small_config(), cli.report_json(report), 0)
    assert gate.failed == 0


def test_traced_set_up_fills_the_cache_under_the_tracer(tmp_path, monkeypatch):
    import run
    # set_up points HOPFCHECK_CACHE at the cache; setenv restores it afterwards
    monkeypatch.setenv("HOPFCHECK_CACHE", str(tmp_path / "cache"))
    _, untraced = run.set_up("glq2-d6", DEFAULT_SEED, str(tmp_path))
    assert untraced is None
    _, prefill = run.set_up("n3-warm", DEFAULT_SEED, str(tmp_path), traced=True)
    m = verification_metrics(prefill.spans, system_cache_key)
    assert m["cli.cache_stores"] == 1 and m["cli.cache_bytes"] > 0
    assert m["cli.cache_store_s"] > 0 and m["rewrite.rules"] == 156
    assert os.listdir(tmp_path / "cache")


def test_run_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "glq2-d6", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
