"""The traced benchmark wraps hopfcheck functions by name; each must exist."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_traced_benchmark_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, name, _ in spans.TARGETS:
        owner = importlib.import_module(modname)
        if "." in name:
            cls, attr = name.split(".")
            # Tracer.install reads methods from the class dict
            assert attr in vars(getattr(owner, cls)), (modname, name)
        else:
            assert callable(getattr(owner, name, None)), (modname, name)
