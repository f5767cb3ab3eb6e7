"""The routes stay independent: which package modules import which."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import p2qbrace

PACKAGE = Path(p2qbrace.__file__).parent


def package_imports(module: str) -> set[str]:
    """The p2qbrace modules that ``module`` imports, at any depth of its body."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module)
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("p2qbrace."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("p2qbrace."))
    return found


def test_oracle_and_brace_layers_do_not_reach_the_other_routes():
    assert package_imports("holomorph") == {"groups"}
    assert not package_imports("brace") & {"holomorph", "enumerate"}


def test_oracle_path_does_not_import_numpy_ma():
    """``np.unique`` and the set routines built on it import ``numpy.ma``
    on first use, 10-15 ms of a cold CLI run; the oracle path needs none."""
    code = "\n".join([
        "import sys",
        "from p2qbrace import enumerate as routes",
        "from p2qbrace.groups import make_group",
        "result = routes.closure_oracle(make_group('P2Q-Type4', 3, 2))",
        "routes.aut_orbits(result)",
        "result.to_jsonl()",
        "print(len(result.gammas), 'numpy.ma' in sys.modules)",
    ])
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=120)
    assert run.stdout.split() == ["56", "False"]
