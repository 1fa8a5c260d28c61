"""What a fresh process imports: each subcommand loads only what it runs, and
no CLI command loads mpmath; the package namespace resolves lazily.  In the
source, only `numeric._to_mpf` (the mpf that `eval_dual` returns) imports
mpmath, and each module imports at module level only the package modules of
its row in `LAYERS`: `balls`, the ball arithmetic, only `exactnum`."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs cli.main(argv) with stdout swallowed, then prints the exit code and the
# loaded radreduce* and mpmath* modules as JSON.
CHILD = """
import contextlib, io, json, sys
from radreduce.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
names = sorted(m for m in sys.modules if m.split(".")[0] in ("radreduce", "mpmath"))
print(json.dumps({"code": code, "modules": names}))
"""


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def loaded_modules(argv: list[str]) -> set[str]:
    child = run_python(CHILD, json.dumps(argv))
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["code"] == 0, (argv, child.stderr)
    return set(result["modules"])


EXACT = {
    "reduce": ["reduce", "--p", "7", "--d", "-2158", "--R", "4656966"],
    "construct": ["construct", "--p", "7", "--D", "-2", "--u", "4"],
    "euclid": ["euclid", "--d", "3", "--R", "5"],
    "classify": ["classify", "--p", "5", "--d", "2", "--R", "5"],
    "coeffs": ["coeffs", "--p", "9", "--family", "C"],
    "verify": ["verify", "--p-max", "5"],
}
NUMERIC = {
    "reduce-numeric": EXACT["reduce"] + ["--numeric"],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("argv", EXACT.values(), ids=EXACT.keys())
def test_exact_commands_do_not_load_mpmath(argv):
    assert "mpmath" not in loaded_modules(argv)


@pytest.mark.parametrize("argv", NUMERIC.values(), ids=NUMERIC.keys())
def test_numeric_commands_do_not_load_mpmath(argv):
    loaded = loaded_modules(argv)
    assert {"radreduce.numeric", "radreduce.balls"} <= loaded
    assert "mpmath" not in loaded


def test_mpmath_is_imported_only_by_to_mpf():
    importers = set()
    for path in sorted((SRC / "radreduce").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if not any(name.split(".")[0] == "mpmath" for name in names):
                continue
            owner = [f.name for f in functions if node in ast.walk(f)]
            importers.add(f"{path.stem}.{owner[-1] if owner else '<module>'}")
    assert importers == {"numeric._to_mpf"}


# The package modules each module imports at module level.
LAYERS = {
    "__init__": set(),
    "exactnum": set(),
    "exprtree": set(),
    "balls": {"exactnum"},
    "cli": {"exactnum"},
    "coeffs": {"exactnum"},
    "poly": {"exactnum"},
    "construct": {"coeffs", "exactnum", "poly"},
    "identity": {"coeffs", "construct", "poly"},
    "reduction": {"coeffs", "construct", "exactnum", "exprtree", "poly"},
    "numeric": {"balls", "construct", "exactnum", "exprtree", "poly"},
}


def test_module_level_imports_follow_the_layers():
    layers = {}
    for path in sorted((SRC / "radreduce").glob("*.py")):
        imported = set()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # `from .poly import x` or `from . import exprtree as et`
                imported |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "radreduce" for a in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0 and node.module.split(".")[0] != "radreduce", path
        layers[path.stem] = imported
    assert layers == LAYERS


def test_coeffs_loads_only_its_modules():
    loaded = {m for m in loaded_modules(EXACT["coeffs"]) if m.startswith("radreduce")}
    assert loaded == {"radreduce", "radreduce.cli", "radreduce.exactnum", "radreduce.coeffs"}


def test_package_import_loads_no_submodule():
    child = run_python(
        "import sys, radreduce; print(sorted(m for m in sys.modules if m.startswith('radreduce')))"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "['radreduce']"


class TestNamespace:
    def test_every_public_name_resolves(self):
        import radreduce

        for name in radreduce.__all__:
            assert getattr(radreduce, name) is not None, name
        assert set(radreduce.__all__) <= set(dir(radreduce))

    def test_star_import_binds_every_name(self):
        import radreduce

        namespace: dict = {}
        exec("from radreduce import *", namespace)
        for name in radreduce.__all__:
            assert namespace[name] is getattr(radreduce, name), name

    def test_names_are_the_submodules_objects(self):
        import radreduce
        from radreduce import construct, reduction

        assert radreduce.reduce_radical is reduction.reduce_radical
        assert radreduce.ReductionError is construct.ReductionError

    def test_unknown_name_raises_attribute_error(self):
        import radreduce

        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(radreduce, "no_such_name")
        assert not hasattr(radreduce, "no_such_name")
