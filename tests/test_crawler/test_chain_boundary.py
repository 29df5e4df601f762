"""Design rule of the crawl chain: only the transport knows the web.

The fetch → checks → analyse → sink stages read every response and
every resource body through the transport (``request``, ``cors``,
``download``, ``robots``). The simulated web lives in ``hydra_ray.synth``
behind ``SyntheticTransport``, so no stage module may build synthetic
content itself or reach into ``synth``; the fetcher, which defines the
transports, is the one module that imports it.
"""

import ast
import os

import pytest

import hydra_ray

CHAIN_MODULES = ("fetcher", "checks_stage", "analysis", "ogc", "inspection", "sinks", "exports", "spans")
STAGES_DIR = os.path.join(os.path.dirname(hydra_ray.__file__), "stages")


def _defined_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def _imports_synth(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "hydra_ray.synth" or a.name.startswith("hydra_ray.synth.") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "hydra_ray.synth" or (node.module or "").startswith("hydra_ray.synth."):
                return True
            if node.module == "hydra_ray" and any(a.name == "synth" for a in node.names):
                return True
    return False


@pytest.mark.parametrize("module", CHAIN_MODULES)
def test_chain_module_does_not_know_the_web(module):
    with open(os.path.join(STAGES_DIR, f"{module}.py")) as f:
        tree = ast.parse(f.read())
    synthetic = sorted(n for n in _defined_names(tree) if n.startswith("synthetic"))
    assert not synthetic, f"stages/{module}.py defines {synthetic}"
    assert _imports_synth(tree) == (module == "fetcher"), (
        f"stages/{module}.py: only the fetcher (home of the transports) imports hydra_ray.synth"
    )
