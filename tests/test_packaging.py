"""The package is pure Python on the standard library."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_package_imports_only_itself_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"rbx"}
    seen, foreign = set(), []
    for path in sorted((ROOT / "src" / "rbx").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                seen.add(top)
                if top not in allowed:
                    foreign.append(f"{path.name}: {name}")
    assert {"itertools", "fractions"} <= seen  # the walk found the imports
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]


# the verdict memo and the helpers that key and fill it, which only
# `identities.run_identities` may use
MEMO_HELPERS = {"_VERDICTS", "_KEY_OF", "_run"}


def test_only_identities_shares_verdicts():
    # one key rule: no other module reads the memo or imports a helper of it
    # to build a verdict key of its own
    scanned = []
    for path in sorted((ROOT / "src" / "rbx").glob("*.py")):
        if path.name == "identities.py":
            continue
        text = path.read_text()
        scanned.append(path.name)
        assert "_VERDICTS" not in text, path.name
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("identities"):
                assert not {alias.name for alias in node.names} & MEMO_HELPERS, path.name
    assert {"structures.py", "systems.py", "bisystems.py", "search.py"} <= set(scanned)



def _calls(tree, name):
    """The innermost enclosing function (None at module level) of every
    call of `name`, as a bare name or an attribute."""
    out = []

    def visit(node, fn):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            out.append(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            fn = getattr(node, "name", "<lambda>")
        for child in ast.iter_child_nodes(node):
            visit(child, fn)
    visit(tree, None)
    return out


def test_one_precondition_gate():
    # every refusal of a constructive builder goes through one gate:
    # `PreconditionError(...)` is constructed in exactly one function
    sites = set()
    for path in sorted((ROOT / "src" / "rbx").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites |= {(path.name, fn) for fn in _calls(tree, "PreconditionError")}
    assert sites == {("errors.py", "require")}
