"""The package's public API: one deliberate list of names.

``fourier_edge.__all__`` is written out in ``__init__.py`` and nowhere
else.  Stage internals stay importable from their modules, the oracles and
the CLI stay out of the API, and every function the benchmark's span tracer
rebinds must remain a module-level name of the module it lists.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import fourier_edge

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fourier_edge"
SPANS = ROOT / "perfbench" / "spans.py"

PUBLIC = {
    # models and their truth
    "JumpModel1D", "TrigBackground", "Model2D", "Curve", "Background2D",
    "eval_model", "eval2d",
    # data
    "CoeffVector1D", "CoeffGrid2D", "synth_coeffs", "coeff_grid",
    "save_grid", "load_grid",
    # reconstruction
    "reconstruct1d", "Reconstruction1D", "evaluate", "reconstruct_field",
    "FieldReconstruction",
    # context and errors
    "ArithmeticContext", "ReconstructionError", "LocalizationError",
    "RootFindingError",
}


def test_all_is_the_chosen_public_api():
    assert len(PUBLIC) == 22
    assert set(fourier_edge.__all__) == PUBLIC


def test_all_is_unique_and_resolves():
    names = fourier_edge.__all__
    assert len(names) == len(set(names))
    for name in names:
        value = getattr(fourier_edge, name)
        assert not isinstance(value, types.ModuleType), name
    # re-exports are the modules' own objects, not copies
    assert fourier_edge.synth_coeffs is fourier_edge.model1d.synth_coeffs


def test_all_excludes_oracle_and_cli_names():
    for name in fourier_edge.__all__:
        module = getattr(fourier_edge, name).__module__
        assert module not in ("fourier_edge.oracle", "fourier_edge.cli"), name


def test_only_the_package_declares_all():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        stores = {
            node.id
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert "__all__" not in stores, path.name


def test_import_leaves_numpy_unloaded():
    # numpy serves only the quadrature oracles, which the package does not
    # import; a fresh interpreter shows what ``import fourier_edge`` loads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fourier_edge; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


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
