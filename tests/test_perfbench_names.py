"""The names the benchmark reaches in recdro exist, and patched ones are put back.

``perfbench/tracer.py`` rebinds recdro functions by module attribute to time
each layer, and ``perfbench/workloads.py`` calls recdro through module
attributes. A renamed or moved function would otherwise break only the
benchmark's own suite, which the tier-1 run does not collect.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import recdro.cli  # noqa: F401  (the tracer reads the modules from sys.modules)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
WORKLOADS_PATH = PERFBENCH / "workloads.py"


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


def module_aliases(tree):
    """``{name: module}`` for each ``name = sys.modules["recdro..."]`` line."""
    aliases = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Subscript)
                and ast.unparse(node.value.value) == "sys.modules"):
            aliases[node.targets[0].id] = sys.modules[ast.literal_eval(node.value.slice)]
    return aliases


def test_every_name_the_workloads_reach_exists():
    tree = ast.parse(WORKLOADS_PATH.read_text(encoding="utf-8"))
    aliases = module_aliases(tree)
    reached, missing = [], []
    for node in ast.walk(tree):
        # every attribute chain rooted at an alias, such as
        # data.Dataset.from_positive_lists (and its prefix data.Dataset)
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if not (chain and isinstance(root, ast.Name) and root.id in aliases):
            continue
        name, owner = ".".join([root.id, *chain]), aliases[root.id]
        reached.append(name)
        for attr in chain:
            if not hasattr(owner, attr):
                missing.append(name)
                break
            owner = getattr(owner, attr)
    assert {"model.train", "model.score_all_items", "model.load_checkpoint",
            "evaluate.evaluate", "cli.main", "data.load_dataset",
            "data.Dataset.from_positive_lists"} <= set(reached)
    assert not missing, missing
