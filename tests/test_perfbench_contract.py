"""The names perfbench/traced.py looks up in the package still exist.

traced.py wraps methods by getattr on their class and kernel functions on
the backend module; a rename would make every traced benchmark call exit
1.  The scripts are loaded by path or parsed, and only read here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED = PERFBENCH / "traced.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_exist():
    traced = _traced()
    missing = []
    for layer, classes in traced.METHODS.items():
        module = importlib.import_module(traced.LAYERS[layer])
        for cname, methods in classes.items():
            cls = getattr(module, cname, None)
            for mname in methods:
                if not callable(getattr(cls, mname, None)):
                    missing.append("%s.%s.%s" % (layer, cname, mname))
    assert missing == []


def test_traced_kernel_functions_exist():
    from shardcalc._backend import kernel

    for fname in ("pivot_step", "sign_eval", "quick_check"):
        assert callable(getattr(kernel, fname, None)), fname


def test_observed_names_are_wrapped_functions():
    # an observer whose name traced.py never wraps reads zero: the LP's
    # infeasible count and the probe-hit ratio derived from its calls
    from shardcalc._backend import kernel

    traced = _traced()
    missing = []
    for name in traced.Tracer()._observe:
        layer, fname = name.split(".")
        if layer == "kernel":
            found = callable(getattr(kernel, fname, None))
        else:
            path = traced.LAYERS[layer]
            fn = getattr(importlib.import_module(path), fname, None)
            found = (not fname.startswith("_") and inspect.isfunction(fn)
                     and fn.__module__ == path)
        if not found:
            missing.append(name)
    assert missing == []


# TIMED names that no longer name a traced callable, so their metrics read
# zero; the set may only shrink
DEAD_TIMED = {
    "exactla.rowspace_reducer",
    "audit.verify_lie_axioms",
    "audit.verify_module_axioms",
    "audit.verify_kernel_theorem",
    "audit.verify_factorization",
}


def _timed_names():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TIMED"]]
    return [name for name, _ in ast.literal_eval(value)]


def test_timed_names_resolve_to_traced_callables():
    # a TIMED name traced.py never wraps reads zero in every benchmark run
    from shardcalc._backend import kernel

    traced = _traced()
    missing = []
    for name in _timed_names():
        layer, *rest = name.split(".")
        if layer == "kernel":
            found = callable(getattr(kernel, rest[0], None))
        elif len(rest) == 2:
            cname, mname = rest
            cls = getattr(importlib.import_module(traced.LAYERS[layer]), cname, None)
            found = (mname in traced.METHODS.get(layer, {}).get(cname, ())
                     and callable(getattr(cls, mname, None)))
        else:
            path = traced.LAYERS[layer]
            fn = getattr(importlib.import_module(path), rest[0], None)
            found = (not rest[0].startswith("_") and inspect.isfunction(fn)
                     and fn.__module__ == path)
        if not found:
            missing.append(name)
    assert set(missing) <= DEAD_TIMED
    assert {"exactla.kernel_basis", "exactla.rank",
            "steinmann.RelationSet.rank"} <= set(_timed_names())
