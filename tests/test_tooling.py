"""The package names that the benchmark (``bench/*.py``) and the scripts
(``scripts/*.py``) use resolve in the package, so a change that deletes or
renames one fails here, not first in a benchmark run.

A name is used when a file imports it from a ``speechacts`` module, reads
it as an attribute of such a module or name (``corpus_mod.load_transcripts``),
or lists it in ``bench/tracing.py``'s ``MODULES`` or ``METHODS``, which the
tracer imports and fetches by name. Names the bench only lists as strings
to aggregate by (``LAYER_FUNCTIONS``, ``HOT``) are not checked: a missing
one reads 0.

The mutation catalogue (``scripts/mutants.py``) is checked here only for
staleness: each entry's old text occurs once and its test files exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL_FILES = sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")])


def _dotted(node):
    """The dotted name of a chain of attributes on a name, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def used_names(path: Path) -> set[str]:
    """Full dotted names of the speechacts names the file uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "speechacts":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "speechacts":
                    local = alias.asname or alias.name.split(".")[0]
                    aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.Assign) and path.name == "tracing.py":
            target = [_dotted(t) for t in node.targets]
            if target == ["MODULES"]:
                names.update(f"speechacts.{module}" for module in ast.literal_eval(node.value))
            elif target == ["METHODS"]:
                names.update(f"speechacts.{module}.{cls}.{method}"
                             for module, classes in ast.literal_eval(node.value).items()
                             for cls, methods in classes.items() for method in methods)
    names.update(aliases.values())
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        head, _, rest = (dotted or "").partition(".")
        if head in aliases:
            names.add(f"{aliases[head]}.{rest}")
    return names


def resolves(dotted: str) -> bool:
    """Whether the longest importable module prefix of the name has the rest
    as a chain of attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_the_scan_sees_imports_module_attributes_and_traced_methods():
    names = set().union(*map(used_names, TOOL_FILES))
    assert {"speechacts.classifier.model_from_document",  # bench/test_bench.py's import
            "speechacts.corpus.load_transcripts",  # bench/pipeline.py's corpus_mod.
            "speechacts.evaluate.cross_validate",  # scripts/cv_time.py's import
            "speechacts.serve.ServeEngine.handle_request"} <= names


def test_every_package_name_the_bench_and_scripts_use_exists():
    missing = {path.relative_to(ROOT).as_posix(): sorted(n for n in used_names(path)
                                                        if not resolves(n))
               for path in TOOL_FILES}
    assert {path: names for path, names in missing.items() if names} == {}


def test_every_mutant_applies_once_and_names_existing_test_files():
    # scripts/mutants.py runs in CI; a refactor that moves the code an entry
    # edits, or a test file it names, fails here at once
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 20
    assert all(m.tests and m.old != m.new for m in mutants.MUTANTS)
    assert [p for m in mutants.MUTANTS for p in mutants.problems(m)] == []
