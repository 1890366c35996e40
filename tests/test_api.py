"""The package namespace and the README's library example."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import zdpoly
from zdpoly.polyring import Polynomial

README = Path(__file__).resolve().parent.parent / "README.md"
# The child process imports the same zdpoly that this test process did.
SRC = str(Path(zdpoly.__file__).resolve().parent.parent)

# The names README's "Library use" section documents.
DOCUMENTED = {
    "CapacityError", "ClassGraph", "DominationKind", "Factorization",
    "FamilyTag", "Polynomial", "UnsupportedFamilyError", "VerificationReport",
    "build_class_graph", "class_engine_poly", "classify_family",
    "closed_domination", "factorize", "gamma_from_poly", "run_verification",
}


def _library_snippet() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_public_names_are_the_documented_set():
    assert set(zdpoly.__all__) == DOCUMENTED
    assert len(zdpoly.__all__) == len(DOCUMENTED)
    for name in zdpoly.__all__:
        assert getattr(zdpoly, name) is not None


def test_import_does_not_load_numpy():
    """Neither importing the package nor running every method, brute force
    included, loads numpy: the package needs only the standard library."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, zdpoly\n"
         "assert 'numpy' not in sys.modules\n"
         "from zdpoly.cli import main\n"
         "assert main(['verify', '45']) == 0\n"
         "assert main(['verify', '45', '--total']) == 0\n"
         "assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "brute   [" in res.stdout


def test_readme_library_snippet_results():
    """Run the snippet statement by statement and collect the value of each
    bare expression, which the README annotates with a comment."""
    namespace: dict = {}
    values = []
    for stmt in ast.parse(_library_snippet()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), README.name, "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"),
                 namespace)
    gamma_triple, overcount, status = values
    assert gamma_triple == (34, 34, 2)
    assert overcount == Polynomial([0] * 9 + [2])
    assert str(overcount) == "2*x^9"
    assert status == "mismatch"
