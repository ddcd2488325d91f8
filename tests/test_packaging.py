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
