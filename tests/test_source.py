import ast
import graphlib
import tokenize
from pathlib import Path

import pytest

import lacvar

MODULES = sorted(Path(lacvar.__file__).parent.glob("*.py"))

# CPython's parser doubles its token array past 8,192 tokens.  The benchmark
# imports lacvar from source, without a bytecode cache, so a module past the
# cliff costs about +0.6 MB of peak_rss_mb on every workload.
TOKEN_CLIFF = 8192


def parser_tokens(path: Path) -> int:
    """The tokens the parser keeps: every token but comments, NL and the encoding."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skip)


def test_modules_found():
    assert {"harness.py", "avgops.py", "fourier.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_under_parser_token_cliff(path):
    n = parser_tokens(path)
    assert n < TOKEN_CLIFF, (
        f"{path.name} has {n} parser tokens, not fewer than {TOKEN_CLIFF}: compiling it "
        "from source doubles the parser's token array, about +0.6 MB of peak_rss_mb "
        "on every benchmark workload; split the module or trim it"
    )


def sibling_imports(path: Path) -> set[str]:
    """The lacvar modules that path imports by `from .x import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_modules_import_without_a_cycle():
    graph = {path.stem: sibling_imports(path) for path in MODULES}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"lacvar modules import in a cycle: {' -> '.join(exc.args[1])}")
    # the scenario layers import one way: cases <- runners <- harness <- cli
    assert "cases" in graph["runners"] and "runners" in graph["harness"] and "harness" in graph["cli"]
