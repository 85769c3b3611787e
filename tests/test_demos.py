"""The demos import only names that exist in the package.

Running the demos takes tens of seconds, so they are parsed instead: every
``from koopest... import name`` in ``demos/*.py`` must resolve.  This catches
a public name that was deleted or renamed while a demo still uses it.
"""

import ast
import importlib
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_imports_exist_in_package():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    checked, missing = 0, []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if (node.module or "").split(".")[0] != "koopest":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked += 1
                if not hasattr(module, alias.name):
                    missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert checked > 0
    assert missing == []
