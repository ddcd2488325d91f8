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


def test_only_the_kernel_generator_compiles_code():
    # one generator: the built-ins that run source (`exec`, `eval`,
    # `compile`) are called in `kernel._codelet` and nowhere else; an
    # attribute such as `re.compile` is not one of them
    sites = set()
    for path in sorted((ROOT / "src" / "rbx").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name in ("exec", "eval", "compile"):
            sites |= {(path.name, fn, name) for fn in _calls(tree, name, attribute=False)}
    assert sites == {("kernel.py", "_codelet", "exec"), ("kernel.py", "_codelet", "compile")}


def test_generated_kernel_source_holds_only_indices_and_operators():
    # digits, the argument names a, b, c and p, brackets, commas and + * %:
    # no entry value, name or call ever reaches the compiler
    from rbx import fixtures as fx
    from rbx.kernel import PrimeField, _codelet_source, _pattern
    A = fx.fix_a(PrimeField(3))
    positions = tuple((i, j, k) for i in range(3) for j in range(3) for k in range(3)
                      if (i + 2 * j + k) % 4 == 1)
    shapes = [("@", (2, 2, 1)), ("@", (3, 2, 4)), ("@", (1, 0, 2)), ("@T", (4, 4, 4)),
              ("mul", A._pattern), ("mul", _pattern(3, positions)),
              ("mul", _pattern(2, ()))]
    for op, shape in shapes:
        source = _codelet_source(op, shape)
        assert re.fullmatch(r"[0-9abcp\[\](),+*%]+", source), (op, shape, source)
    assert _codelet_source("@", (1, 2, 1)) == "((a[0]*b[0]+a[1]*b[1])%p,)"
    assert _codelet_source("mul", _pattern(2, ())) == "(0,0,)"


def _calls(tree, name, attribute=True):
    """The innermost enclosing function (None at module level) of every
    call of `name`, as a bare name or, unless `attribute` is false, an
    attribute."""
    out = []

    def visit(node, fn):
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None) if attribute else None):
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
