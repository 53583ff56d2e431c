"""The names the benchmark's tracer patches exist, and are put back.

``perfbench/tracer.py`` rebinds recdro functions by module attribute to time
each layer. A renamed or moved function would otherwise break only the
benchmark's own suite, which the tier-1 run does not collect.
"""

import importlib.util
from pathlib import Path

import recdro.cli  # noqa: F401  (the tracer reads the modules from sys.modules)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_is_an_attribute_of_its_owner():
    tracer = load_tracer()
    table = tracer._patch_table(tracer.Tracer())
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in table if attr not in vars(owner)]
    assert table and not missing, missing


def test_instrumentation_restores_every_original():
    tracer = load_tracer()
    table = tracer._patch_table(tracer.Tracer())
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in table]
    with tracer.Instrumentation(tracer.Tracer(), tracer.LAYER):
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in originals)
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)
