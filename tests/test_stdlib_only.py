"""Each module of the package parses as Python 3.10 and imports on its
own, and the package imports only the standard library: ``pyproject.toml``
declares Python >= 3.10 and no runtime dependency, and the installed scipy
would raise peak memory far past the benchmark's bound (``import
scipy.optimize`` alone takes it from about 13 to 76 MB)."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slabel"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "lagrangian.py" in modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_modules_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so syntax added
    # later (such as except*) must fail here on any newer interpreter.
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_each_module_imports_alone():
    # The package __init__ imports nothing, so a module that relies on a
    # sibling having been imported first fails here.  The interpreters run
    # at once and skip site (-S) to keep the test under a second.
    modules = [f"slabel.{path.stem}".removesuffix(".__init__")
               for path in sorted(PACKAGE.glob("*.py"))]
    runs = {module: subprocess.Popen(
                [sys.executable, "-S", "-c",
                 f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import {module}"],
                stderr=subprocess.PIPE, text=True)
            for module in modules}
    stderr = {module: run.communicate()[1] for module, run in runs.items()}
    assert len(modules) == 10 and stderr == dict.fromkeys(modules, "")
