"""The package namespace and the README's library example."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdpoly
from zdpoly import (ClassGraph, DominationKind, Factorization, FamilyTag,
                    VerificationReport, build_class_graph, classify_family,
                    factorize, run_verification)
from zdpoly.numtheory import Family
from zdpoly.polyring import Polynomial
from zdpoly.verify import Disagreement, MethodOutcome
from zdpoly.zdgraph import DivisorClass, VertexGraph, expand_vertex_graph

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


def test_polynomial_has_no_product():
    """Polynomial is a result type: the class engine and the closed forms
    sum term tables in (1+x)-powers, so with no product on the type they
    stay product-free by construction.  The tests bring their own."""
    assert not hasattr(Polynomial, "__mul__")
    assert not hasattr(Polynomial, "shift")


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


def test_import_does_not_load_dataclasses_or_inspect():
    """The record types are named tuples, so starting the package or its CLI
    loads neither ``dataclasses`` nor ``inspect`` (and what ``inspect``
    pulls in).  ``-S`` keeps site hooks from importing them first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\n"
         "assert not {'dataclasses', 'inspect'} & set(sys.modules)\n"
         "import zdpoly\n"
         "assert not {'dataclasses', 'inspect'} & set(sys.modules)\n"
         "from zdpoly.cli import main\n"
         "assert not {'dataclasses', 'inspect'} & set(sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr


def _records() -> dict:
    """One instance of each record type, keyed by type name."""
    cg = build_class_graph(12)
    rep = run_verification(12, DominationKind.ORDINARY)
    return {
        "Factorization": factorize(75),
        "FamilyTag": classify_family(factorize(75)),
        "DivisorClass": cg.classes[0],
        "ClassGraph": cg,
        "VertexGraph": expand_vertex_graph(cg),
        "MethodOutcome": rep.outcomes["brute"],
        "Disagreement": rep.disagreements[0],
        "VerificationReport": rep,
    }


RECORD_TYPES = (Factorization, FamilyTag, DivisorClass, ClassGraph,
                VertexGraph, MethodOutcome, Disagreement, VerificationReport)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_record_contract(cls):
    """Every record is built by keyword, compares by value and is immutable."""
    rec = _records()[cls.__name__]
    assert type(rec) is cls
    fields = {name: getattr(rec, name) for name in cls._fields}
    assert cls(**fields) == rec
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, fields[name])
    first = cls._fields[0]
    assert rec._replace(**{first: None}) == (None, *list(fields.values())[1:])
    assert getattr(rec, first) is fields[first]
    if cls is FamilyTag:
        assert FamilyTag(Family.OTHER) == FamilyTag(
            family=Family.OTHER, p=None, q=None, r=None, alpha=None,
            hypothesis_met=False)
        assert repr(rec) == (
            "FamilyTag(family=<Family.P_SQUARE_Q: 'p^2q'>, p=5, q=3, r=None, "
            "alpha=None, hypothesis_met=True)")
    if cls is ClassGraph:
        again = build_class_graph(12)
        assert again == rec and again is not rec
        assert hash(again) == hash(rec)


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
    gamma_triple, overcount, status, compared = values
    assert gamma_triple == (34, 34, 2)
    assert overcount == Polynomial([0] * 9 + [2])
    assert str(overcount) == "2*x^9"
    assert status == "mismatch"
    assert compared == ("brute", "classes", "closed")
