import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def resolve(module: str, attr: str):
    """The object the tracer wraps for one TARGETS entry, as Tracer.install finds it."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def counter_reads(counter) -> set[str]:
    """The argument names a work counter reads from its bound arguments `a[...]`."""
    fn = ast.parse(inspect.getsource(counter)).body[0]
    arg = fn.args.args[0].arg
    return {
        node.slice.value for node in ast.walk(fn)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == arg
    }


@pytest.mark.parametrize("name, module, attr, counter", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_tracer_target_resolves_and_its_counter_binds(name, module, attr, counter):
    fn = resolve(module, attr)
    assert callable(fn), name
    if counter is not None:
        # the counter reads sig.bind(*args, **kwargs).arguments by these names
        assert counter_reads(counter) <= set(inspect.signature(fn).parameters), name


def test_tracer_counters_read_the_arguments_they_count():
    reads = {attr: counter_reads(counter) for _, _, attr, counter in tracer.TARGETS if counter}
    assert reads == {
        "variation_at": {"spec", "x"},
        "bmo_norm": {"family"},
        "write_function_csv": {"f"},
        "ap_constant": {"family"},
        "a1_constant": {"family"},
        "multiplier_sums": {"xi", "k_max"},
        "run_scenario": {"sc"},
    }


def test_workloads_find_what_they_call():
    # every lacvar call in the workloads goes through a module attribute
    modules = {"lacvar": "lacvar", "cli": "lacvar.cli", "harness": "lacvar.harness"}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert {("harness", "from_config"), ("harness", "run_scenario"), ("harness", "emit_report")} <= used
    for mod, attr in sorted(used):
        assert hasattr(importlib.import_module(modules[mod]), attr), f"{mod}.{attr}"
