"""Every name a package module or a script imports or binds is used.

A name counts as used when it appears as a name anywhere in the module,
annotations included (a quoted annotation is text, and does not count).
A name bound in a function must be read in that function, every parameter
of a package function must be read in it, and a private (``_``-prefixed)
function, class or method of the package must be named somewhere in the
package besides its definition.  A public top-level function or class
must be reached: named by a script, by module-level code, or by a reached
definition, or listed as a library entry point with the test or benchmark
that reaches it.  The package namespace itself imports nothing, so a
program loads only the modules it names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "eismeasure").glob("*.py"))
MODULES = sorted([p for p in PACKAGE if p.name != "__init__.py"]
                 + list((ROOT / "scripts").glob("*.py")))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import outside ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _unread(fn) -> dict[str, int]:
    """Name -> line, for every name bound in fn (nested scopes included)
    that nothing in fn reads; parameters, augmented-assignment targets,
    nonlocal and global names, and ``_`` are exempt."""
    exempt = {"_"} | {a.arg for a in ast.walk(fn.args)
                       if isinstance(a, ast.arg)}
    bound, read = {}, set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                read.add(node.id)
            else:
                bound.setdefault(node.id, node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                            ast.Name):
            exempt.add(node.target.id)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            exempt.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, node.lineno)
        elif isinstance(node, DEFS) and node is not fn:
            bound.setdefault(node.name, node.lineno)
    return {k: v for k, v in bound.items() if k not in read | exempt}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_bound_in_a_function_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = {f"{fn.name}.{name}": line for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for name, line in _unread(fn).items()}
    assert not unread, f"{path.name}: names bound and never read {unread}"


#: parameters a protocol fixes but an implementation has no use for
PROTOCOL_SLOTS = {("RationalRing.from_knum", "field"),
                  ("CuspData.single_term.rule", "beta")}


def _functions(node, prefix=""):
    """(qualified name, def) for every function under node, nested ones
    included."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, DEFS):
            yield from _functions(child, prefix)
            continue
        name = prefix + child.name
        if not isinstance(child, ast.ClassDef):
            yield name, child
        yield from _functions(child, name + ".")


def _only_raises(fn) -> bool:
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]  # the docstring
    return bool(body) and all(isinstance(st, ast.Raise) for st in body)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_parameter_of_a_package_function_is_read(path):
    """A parameter nothing reads is an option no caller can use; ``self``
    and ``cls``, a body that only raises, and a protocol slot are exempt."""
    unread = {}
    tree = ast.parse(path.read_text(), filename=str(path))
    for name, fn in _functions(tree):
        if _only_raises(fn):
            continue
        # an augmented assignment reads its target
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)} | {
            node.target.id for node in ast.walk(fn)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)}
        args = fn.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))):
            if (a.arg not in read | {"self", "cls"}
                    and (name, a.arg) not in PROTOCOL_SLOTS):
                unread[f"{name}({a.arg})"] = a.lineno
    assert not unread, f"{path.name}: parameters never read {unread}"


def test_every_private_definition_is_named():
    named, private = set(), {}
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif (isinstance(node, DEFS) and node.name.startswith("_")
                  and not node.name.endswith("__")):
                private[node.name] = f"{path.name}:{node.lineno}"
    unnamed = {k: v for k, v in private.items() if k not in named}
    assert not unnamed, f"private definitions nothing names: {unnamed}"


#: public definitions nothing in the package, ``cli.py`` or ``scripts/``
#: names, and the test or benchmark that reaches each
ENTRY_POINTS = {
    "f_zeta": "tests/test_acceptance.py::test_acceptance_05_theta_moments",
    "psi_z": "tests/test_acceptance.py::test_acceptance_06_eigenvalue_polynomials",
    "f_to_h": "tests/test_acceptance.py::test_acceptance_03_bridge_bijection_roundtrip",
    "symmetrize": "tests/test_acceptance.py::test_acceptance_04_weight_shift_identity"
                  " and the weight-shift-rank2 benchmark",
    "weight_twist": "tests/test_acceptance.py::test_acceptance_04_weight_shift_identity"
                    " and the weight-shift-rank2 benchmark",
    "random_lc_function": "perfbench/micro.py and the tests",
    # perfbench/tracing.py spans these by name
    "norm_weight": "perfbench/tracing.py",
    "act": "perfbench/tracing.py",
    "factors": "perfbench/tracing.py",
    "section_infty": "perfbench/tracing.py",
    "cocycle_check": "perfbench/tracing.py",
    "random_word": "perfbench/tracing.py",
}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_reached():
    """A top-level function or class of the package is live when an entry
    point, a script, module-level code, or a live definition other than
    itself names it; one that only dead definitions name is dead too.  An
    import names nothing by itself."""
    uses, where, live_names = {}, {}, set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, DEFS) and path.parent.name == "eismeasure":
                uses[node.name] = _names(node) - {node.name}
                where[node.name] = f"{path.name}:{node.lineno}"
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                live_names |= _names(node)
    assert set(ENTRY_POINTS) <= set(uses), "an entry point is not defined"
    live, frontier = set(), live_names | set(ENTRY_POINTS)
    while frontier:
        new = {name for name in frontier if name in uses} - live
        live |= new
        frontier = set().union(*(uses[name] for name in new))
    dead = {name: where[name] for name in uses
            if name not in live and not name.startswith("_")}
    assert not dead, f"public definitions nothing reaches: {dead}"
    named = live_names.union(*(uses[name] for name in live))
    stale = {name for name in ENTRY_POINTS if name in named}
    assert not stale, f"entry points the package names: {stale}"


def test_the_package_namespace_is_its_docstring_alone():
    """``__init__.py`` re-exports nothing: every name is imported from its
    module, so ``import eismeasure`` loads no submodule."""
    tree = ast.parse((ROOT / "src" / "eismeasure" / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, "__init__.py holds more than its docstring"


def _loaded(statement: str) -> set[str]:
    """The package's modules a fresh interpreter holds after statement."""
    code = (f"{statement}\nimport sys\nprint(*sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'eismeasure'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import eismeasure") == {"eismeasure"}


def test_the_automorphy_self_test_loads_no_exact_layer():
    assert _loaded("import eismeasure.automorphy") == {
        "eismeasure", "eismeasure.errors", "eismeasure.automorphy"}


def test_a_field_import_loads_no_layer_above_it():
    loaded = _loaded("from eismeasure.fields import FieldData")
    above = {f"eismeasure.{name}" for name in (
        "functions", "hermitian", "qexp", "measure", "diffops", "automorphy")}
    assert "eismeasure.fields" in loaded and not loaded & above
