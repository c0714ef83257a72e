"""Source hygiene of the package, checked with the standard library's ast.

Every import in a module is used, every name a module loads is bound in
it (defined, assigned or imported) or a builtin, and every module-level
function or class, private or public, either belongs to the public API
(shardcalc.__all__) or has a caller inside the package.  Code that only
tests reach, or nothing reaches, does not belong in src/.
"""

import ast
import builtins
from pathlib import Path

import shardcalc

PACKAGE = Path(shardcalc.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
# Modules whose imports are re-exports, not uses.
REEXPORTS = {"__init__.py", "_backend.py"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_used(node):
    """Names referenced under node, bare or as `module.name`."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            used.add(sub.attr)
    return used


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        if path.name in REEXPORTS:
            continue
        tree = _tree(path)
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unused == []


def _names_bound(tree):
    """Names bound anywhere in a module, in any scope: the check is not
    scope-exact, but a name bound nowhere is surely undefined."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


def test_no_undefined_names():
    undefined = []
    for path in MODULES:
        tree = _tree(path)
        known = _names_bound(tree) | set(dir(builtins))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id not in known):
                undefined.append("%s:%d %s" % (path.name, node.lineno, node.id))
    assert undefined == []


def _orphans():
    """Module-level functions and classes outside shardcalc.__all__ that
    no other top-level statement of the package references."""
    trees = {path.name: _tree(path) for path in MODULES}
    # names referenced by each top-level statement, so a definition's own
    # body (a recursive call, say) does not count as a caller
    statements = [
        (name, stmt, _names_used(stmt))
        for name, tree in trees.items()
        for stmt in tree.body
    ]
    orphans = []
    for name, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name in shardcalc.__all__:
            continue
        if not any(stmt.name in used
                   for _, other, used in statements
                   if other is not stmt):
            orphans.append("%s:%s" % (name, stmt.name))
    return orphans


def test_every_public_definition_is_exported_or_called():
    assert [o for o in _orphans() if not o.split(":")[1].startswith("_")] == []


def test_every_private_definition_is_called():
    assert [o for o in _orphans() if o.split(":")[1].startswith("_")] == []


def _calls_with_scope(tree):
    """(called name, dotted name of the enclosing def or class) per call."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.append((name, ".".join(scope)))
            visit(child, inner)

    visit(tree, ())
    return out


def test_interned_objects_have_one_constructor():
    # identity is equality for shards only while each support has one
    # context and each context builds each shard once
    sites = {"SupportContext": set(), "Shard": set()}
    for path in MODULES:
        for name, scope in _calls_with_scope(_tree(path)):
            if name in sites:
                sites[name].add("%s:%s" % (path.name, scope))
    assert sites == {"SupportContext": {"arrangement.py:context_for"},
                     "Shard": {"arrangement.py:SupportContext.intern"}}


def test_only_the_support_context_encodes_sign_patterns():
    # other modules read a pattern off another support through
    # SupportContext.table_from and .read; str.encode of a literal codec
    # name is no sign pattern
    sites = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "encode"
                    and not all(isinstance(a, ast.Constant) for a in node.args)):
                sites.add(path.name)
    assert sites == {"arrangement.py"}


def test_only_calculus_scales_functionals_to_integers():
    # functionals are scaled once, by calculus._functional_index; audit and
    # steinmann evaluate them through it
    for name in ("audit.py", "steinmann.py"):
        tree = _tree(PACKAGE / name)
        names = _names_used(tree) | {
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}
        assert "integer_coefficients" not in names, name
