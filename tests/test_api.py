"""The package's public API: one deliberate list of names.

``fourier_edge.__all__`` is written out in ``__init__.py`` and nowhere
else.  Stage internals stay importable from their modules, the oracles and
the CLI stay out of the API, every function the benchmark's span tracer
rebinds must remain a module-level name of the module it lists, and the
models and a field run keep the names the benchmark's checks read.
"""

import ast
import collections
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

from mpmath import mp

import fourier_edge
from fourier_edge import (
    ArithmeticContext,
    Reconstruction1D,
    coeff_grid,
    eval2d,
    reconstruct_field,
)
from fourier_edge import model1d, model2d, recon1d, recon2d
from fourier_edge.kernels import v_kernel
from test_model2d import _dense_model

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


def _imports(module):
    """(module, name) pairs that ``fourier_edge.<module>`` imports, with the
    package prefix dropped: ``from .recon1d import f`` gives ("recon1d",
    "f"), and ``from . import recon1d`` and ``import fourier_edge.recon1d``
    give ("recon1d", None)."""
    pairs = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name.removeprefix("fourier_edge")
                pairs.add((name.lstrip("."), None))
        elif isinstance(node, ast.ImportFrom):
            home = node.module or ""
            if not node.level:
                home = home.removeprefix("fourier_edge").lstrip(".")
            for alias in node.names:
                pairs.add((home, alias.name))
                if not home:  # a module of the package, or a re-export
                    pairs.add((alias.name, None))
    return pairs


def test_ground_truth_and_pipeline_stay_independent():
    # the truth cannot lean on what it checks, and the pipeline cannot
    # reach for the truth's closed forms
    for truth in ("kernels", "model1d", "model2d", "oracle"):
        homes = {home for home, _ in _imports(truth)}
        assert not homes & {"recon1d", "recon2d"}, truth
    closed_forms = {"v_kernel", "v_fourier_coeff", "bernoulli_poly",
                    "eval_model", "eval2d", "slice_coeff_exact"}
    for stage in ("recon1d", "recon2d"):
        names = {name for _, name in _imports(stage)}
        assert not names & closed_forms, stage
        # of the kernels, only the exact Bernoulli tables
        kernels = {name for home, name in _imports(stage) if home == "kernels"}
        assert kernels <= {"bernoulli_coeffs"}, (stage, kernels)


def _reach(root):
    """Names of the package functions and methods that ``root`` calls, and
    that they call in turn, matched by name; the calls of ``slice`` are not
    followed, since it is the model both sides of C6 read."""
    defs = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    reached, todo = set(), [root]
    while todo:
        for fn in defs[todo.pop()]:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in defs and name not in reached:
                        reached.add(name)
                        if name != "slice":
                            todo.append(name)
    return reached


def test_grid_synthesis_and_its_c6_reference_stay_apart():
    # C6 checks the trapezoid grid against slice_coeff_exact; the two may
    # share the slice, the g_k of its smooth part and the working precision,
    # but no formula, or an error in it would cancel out of the comparison
    synthesis, reference = _reach("_trapezoid_grid"), _reach("slice_coeff_exact")
    shared = synthesis & reference
    assert shared - {"coeff", "workprec"} == {"slice"}, shared
    assert "synth_coeffs" in synthesis and "v_fourier_coeff" in reference
    # the closed-form grid, which test_model2d holds to the same reference,
    # shares even less: no fixed-point primitive reaches the reference
    assert _reach("_closed_form_grid") & reference <= {"coeff", "workprec"}


def test_the_benchmarks_read_the_models():
    # the 1D check builds JumpModel1D(xi, mags) and reads .xi, .magnitudes
    # and model1d.eval_model; the dense-field check builds a Model2D
    # positionally and reads magnitude_value, curve.xi and model2d.eval2d
    ctx = ArithmeticContext(30)
    m1 = model1d.JumpModel1D(-2.5, (1.5, -0.5, 0.25))
    assert m1.xi == -2.5 and m1.magnitudes == (1.5, -0.5, 0.25)
    m2 = _dense_model(16, 4)
    assert m2.curve.kind == "identity" and len(m2.background.terms) == 1
    with ctx.workprec():
        for x in (-1.3, 0.4):
            y = mp.mpf(x) + 2
            want = sum(a * v_kernel(l, -2.5, y, ctx)
                       for l, a in enumerate(m1.magnitudes))
            assert abs(model1d.eval_model(m1, y, ctx) - want) < 1e-28
            assert m2.curve.xi(x, ctx) == mp.mpf(x)
            p, q = m2.background.terms[0]
            profiles = [m2.magnitude_value(l, x, ctx) for l in range(4)]
            assert profiles[0] == m2.magnitudes[0].eval(x, ctx)
            want = p.eval(x, ctx) * q.eval(y, ctx) + sum(
                a * v_kernel(l, x, y, ctx) for l, a in enumerate(profiles))
            assert abs(model2d.eval2d(m2, x, y, ctx) - want) < 1e-28


def test_the_field_benchmark_reads_a_field_run():
    # the names and attributes the benchmark's dense-field op reads from a
    # field run, on a small dense identity-curve grid
    ctx = ArithmeticContext(30)
    model = _dense_model(16, 4)
    grid = coeff_grid(model, 16, 4, ctx)
    xs = (-1.3, 0.4)
    fld = reconstruct_field(grid, 3, 2, xs, ctx, jobs=1)
    assert not fld.failures and len(fld.psi.degraded) == 0
    assert set(fld.psi.rows) == set(range(-4, 5))
    with ctx.workprec():
        mags = [a for r in fld.psi.rows.values() for a in r.magnitudes_tilde]
        assert len(mags) == 9 * 4 and all(a != 0 for a in mags)
        for x in xs:
            s = fld.slices[x]
            assert isinstance(s, Reconstruction1D)
            assert abs(s.xi_tilde - model.curve.xi(x, ctx)) < 1e-2
            assert len(s.magnitudes_tilde) == 3
            y = mp.mpf(x) + 2  # away from the jump at y = x
            value = s.value(y, ctx)
            assert value._mpf_ == recon1d.evaluate(s, y, ctx)._mpf_
            truth = eval2d(model, x, y, ctx)
            raw = recon2d.truncated_baseline(grid, x, y, ctx)
            assert abs(value - truth) < abs(raw - truth) / 5


def test_every_evaluation_reaches_the_traced_evaluator(monkeypatch):
    # the benchmark times evaluation in the span of recon1d.evaluate_complex;
    # a path that skipped it would leave that time unattributed in a trace.
    # A form evaluation not handed a phase calls recon1d._phase once, so that
    # spy counts evaluations however they are reached.  A real or imaginary
    # value runs one Clenshaw chain, a complex value two
    calls, phases, chains = [], [], []
    original, phase, clenshaw = (recon1d.evaluate_complex, recon1d._phase,
                                 recon1d._clenshaw)

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    def counting_phase(*args):
        phases.append(args[0])
        return phase(*args)

    def counting_chain(*args):
        chains.append(args[0])
        return clenshaw(*args)

    monkeypatch.setattr(recon1d, "evaluate_complex", counting)
    monkeypatch.setattr(recon1d, "_phase", counting_phase)
    monkeypatch.setattr(recon1d, "_clenshaw", counting_chain)
    ctx = ArithmeticContext(30)
    with ctx.workprec():
        c = model1d.synth_coeffs(model1d.JumpModel1D(0.5, (1.0, -0.3)), 24, ctx)
    rec = fourier_edge.reconstruct1d(c, 1, ctx)
    assert phases == []  # a 1D reconstruction evaluates nothing
    grid = coeff_grid(_dense_model(16, 4), 16, 4, ctx)
    sl = reconstruct_field(grid, 3, 2, (0.4,), ctx, jobs=1).slices[0.4]
    assert calls == []  # neither reconstruction evaluates through it
    chains.clear()  # the row stage's, two per row and x
    for n, evaluate in enumerate((lambda x: recon1d.evaluate(rec, x, ctx),
                                  lambda x: rec.value(x, ctx),
                                  lambda x: sl.value(x, ctx)), start=1):
        evaluate(-1.2)
        assert calls == [-1.2] * n
        assert len(phases) == n
        assert len(chains) == n
    # the imaginary-residue probe evaluates on demand, through the spy
    recon1d.imag_residue(rec, ctx)
    assert len(calls) == 3 + 8 and len(phases) == 3 + 8
    assert len(chains) == 3 + 8
    recon1d.evaluate_complex(rec, -1.2, ctx)
    assert len(calls) == 3 + 8 + 1 and len(chains) == 3 + 8 + 2


def _names_read(tree, imports=True):
    """Counter of the names a syntax tree reads: identifiers, attribute
    names, string constants (``__all__``, the tracer's list) and, with
    ``imports``, imported names, which count as references."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias) and imports:
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def test_every_import_and_definition_is_used():
    # an import the module never reads, or a module-level function or class
    # nothing in the source, the tests or the benchmark names, is a leftover
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    others = collections.Counter()
    for folder in ("tests", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            others += _names_read(ast.parse(path.read_text()))
    everywhere = sum(map(_names_read, modules.values()), others)
    for path, tree in modules.items():
        read = _names_read(tree, imports=False)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    assert read[bound], f"{path.name}: unused import {bound}"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses = everywhere[node.name] - _names_read(node)[node.name]
                assert uses > 0, f"{path.name}: {node.name} is never referenced"
