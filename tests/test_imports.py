"""Every name a package module or a script imports or binds is used.

A name counts as used when it appears as a name anywhere in the module,
annotations included (a quoted annotation is text, and does not count).
A name bound in a function must be read in that function, every parameter
of a package function must be read in it, and a private (``_``-prefixed)
function, class or method of the package must be named somewhere in the
package besides its definition.
"""

import ast
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
