"""The package's public API: one deliberate list of names.

``fourier_edge.__all__`` is the union of the pipeline modules' own
``__all__`` lists.  The oracles and the CLI stay out of it, and every
function the benchmark's span tracer rebinds must remain a module-level
name of the module it lists.
"""

import ast
import importlib
import types
from pathlib import Path

import fourier_edge
from fourier_edge import cli, oracle

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_all_is_unique_and_resolves():
    names = fourier_edge.__all__
    assert len(names) == len(set(names))
    for name in names:
        value = getattr(fourier_edge, name)
        assert not isinstance(value, types.ModuleType), name
    # re-exports are the modules' own objects, not copies
    assert fourier_edge.synth_coeffs is fourier_edge.model1d.synth_coeffs


def test_all_excludes_oracle_and_cli_names():
    assert not set(fourier_edge.__all__) & set(oracle.__all__)
    assert not set(fourier_edge.__all__) & set(cli.__all__)


def test_traced_functions_resolve():
    # read the tracer's list from its source, without importing perfbench
    tree = ast.parse(SPANS.read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    for module, function in traced:
        home = importlib.import_module(f"fourier_edge.{module}")
        assert callable(getattr(home, function)), (module, function)
