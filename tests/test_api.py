"""Guards on the public names: the package exports, the functions the
benchmark's tracer wraps, the README's library example, deleted names
staying deleted and every export having a caller; and a guard against
module-level imports nothing uses."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import re
from pathlib import Path

import exanova
from exanova import exactlin

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
    for name in ("identity", "zero", "complement", "ambient"):
        assert not hasattr(exactlin.Projector, name)
    assert list(inspect.signature(exactlin.Projector).parameters) == ["matrix"]
    assert not hasattr(exanova.DominanceReport, "all_hold")


def test_every_export_has_a_caller():
    # a caller is a use in the package other than the name's definition,
    # import or __all__ entry, or a use in README.md or exabench/*.py
    used = set()
    exports = [("exanova", name) for name in exanova.__all__]
    for path in sorted((ROOT / "src" / "exanova").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
        for node in tree.body:
            if any(getattr(t, "id", None) == "__all__" for t in getattr(node, "targets", [])):
                exports += [(path.stem, name) for name in ast.literal_eval(node.value)]
    texts = [ROOT / "README.md", *sorted((ROOT / "exabench").glob("*.py"))]
    used |= {w for path in texts for w in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    uncalled = [f"{mod}.{name}" for mod, name in exports
                if name not in used and not name.startswith("__")]
    assert uncalled == []


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
