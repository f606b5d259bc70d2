"""Guards on the public names: the package exports, the functions the
benchmark's tracer wraps, the README's library example, deleted names
staying deleted and every export having a caller; and a guard against
module-level imports nothing uses."""

import ast
import contextlib
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import io
import re
from pathlib import Path

import exanova
from exanova import dominance, effects, exactlin, hypotest, verify

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("exabench_spans", ROOT / "exabench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    missing = []
    for span, modname, owner, attr, _hook in load_spans().TARGETS:
        mod = importlib.import_module(f"exanova.{modname}")
        if owner is None:
            found = callable(getattr(mod, attr, None))
        else:
            found = attr in vars(getattr(mod, owner, object))
        if not found:
            missing.append(span)
    assert missing == []


def test_every_export_resolves():
    assert [name for name in exanova.__all__ if not hasattr(exanova, name)] == []
    assert [name for name in exactlin.__all__ if not hasattr(exactlin, name)] == []


def test_subspace_calculus_has_method_spelling_only():
    for name in ("colspace", "nullspace", "rank", "trace", "complement", "intersect", "subspace_sum"):
        assert not hasattr(exactlin, name)
        assert not hasattr(exanova, name)


def test_names_without_a_caller_stay_deleted():
    modules = {name: importlib.import_module(f"exanova.{name}")
               for name in ("hypotest", "effects", "cli", "exactlin", "dominance", "fdist")}
    deleted = {
        "hypotest": ("LinearModel", "HypothesisSpec", "ParamPoint", "ncp", "f_statistic",
                     "adjust_rhs", "rmfm_ss", "_cell_fit"),
        "effects": ("contrast_matrix", "model_matrix"),
        "cli": ("serialize_dataset", "RunConfig"),
        "exactlin": ("weighted_fit",),
        "dominance": ("auxiliary_projector",),
        "fdist": ("FParams", "_betainc_reg"),
    }
    for modname, names in deleted.items():
        for name in names:
            assert not hasattr(modules[modname], name)
            assert not hasattr(exanova, name)
    assert not hasattr(exactlin.RatMatrix, "T")
    assert not hasattr(exactlin.RatMatrix, "to_rows")
    assert not hasattr(exactlin.RatMatrix, "diagonal")
    assert not hasattr(exactlin.RatMatrix, "__neg__")
    assert not hasattr(exactlin.RatMatrix, "_rref")
    assert not hasattr(exactlin.Subspace, "sum")
    for name in ("scale", "entry", "column"):
        assert not hasattr(exactlin.RatMatrix, name)
    for name in ("identity", "zero", "complement", "ambient", "nu"):
        assert not hasattr(exactlin.Projector, name)
    for name in ("nu", "__eq__", "__hash__", "__repr__"):
        assert name not in vars(exactlin.Projector)
    assert list(inspect.signature(exactlin.Projector).parameters) == ["matrix"]
    assert not hasattr(exanova, "Projector")
    assert not hasattr(exanova.DominanceReport, "all_hold")


def test_closed_form_and_oracle_projectors_are_plain_matrices():
    a, dims = exanova.EffectId((1, 0)), (2, 3)
    layout = exanova.CellLayout.from_grid([[1, 2, 1], [2, 1, 1]])
    x = exactlin.RatMatrix.from_rows([[1, 1], [1, 0], [1, 2]])
    p = hypotest.type_numerator(2, a, layout)
    for got in (effects.u_matrix(3), effects.s_matrix(3), effects.h_projector(a, dims),
                hypotest.rmfm_projector(x, exactlin.RatMatrix.from_rows([[0], [1]])), p):
        assert type(got) is exactlin.RatMatrix
    for fn in (effects.u_matrix, effects.s_matrix, effects.h_projector,
               hypotest.rmfm_projector, hypotest.type_numerator):
        assert inspect.signature(fn).return_annotation == "RatMatrix"
    assert inspect.signature(hypotest.testing_target).parameters["p"].annotation == "RatMatrix"
    m = effects.effect_model_matrix(hypotest.type_model_set(2, a), dims)
    assert hypotest.testing_target(m, effects.incidence(layout), p).dim == 1


def test_dominance_facts_cover_every_report_bool():
    # a fact added to the report cannot be left out of `verify` unseen
    bools = [f.name for f in dataclasses.fields(dominance.DominanceReport) if f.type == "bool"]
    assert sorted(field for field, _, _ in verify.DOMINANCE_FACTS) == sorted(bools)


def _exports_and_uses():
    """Every (module, name) in an `__all__`; the words that count as a
    use of such a name: a load of a name or attribute in the package
    other than the name's definition, import or __all__ entry, or a word
    in README.md or exabench/*.py; and the words that count as a use of
    a method: an attribute load in the package or in exabench/*.py, a
    string the benchmark's tracer names, or `.name` in README.md."""
    used, attrs = set(), set()
    exports = [("exanova", name) for name in exanova.__all__]
    for path in sorted((ROOT / "src" / "exanova").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
        for node in tree.body:
            if any(getattr(t, "id", None) == "__all__" for t in getattr(node, "targets", [])):
                exports += [(path.stem, name) for name in ast.literal_eval(node.value)]
    bench = sorted((ROOT / "exabench").glob("*.py"))
    for path in bench:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    attrs |= set(re.findall(r"\.(\w+)", readme))
    used |= attrs | set(re.findall(r"\w+", readme))
    used |= {w for path in bench for w in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    return exports, used, attrs


def test_every_export_has_a_caller():
    exports, used, _ = _exports_and_uses()
    uncalled = [f"{mod}.{name}" for mod, name in exports
                if name not in used and not name.startswith("__")]
    assert uncalled == []


def test_every_public_method_of_an_export_has_a_caller():
    exports, _, attrs = _exports_and_uses()
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    uncalled = set()
    for mod, name in exports:
        cls = getattr(importlib.import_module(mod if mod == "exanova" else f"exanova.{mod}"), name)
        if not inspect.isclass(cls):
            continue
        for attr, member in vars(cls).items():
            public = not attr.startswith("_")
            if public and (inspect.isfunction(member) or isinstance(member, kinds)) and attr not in attrs:
                uncalled.add(f"{cls.__name__}.{attr}")
    assert sorted(uncalled) == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[1] == "1"


def test_no_unused_module_imports():
    paths = sorted([*(ROOT / "src" / "exanova").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            targets = getattr(node, "targets", [])
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
