"""Run one shardcalc CLI call in-process with every layer timed from outside.

    PYTHONPATH=src python3 perfbench/traced.py TRACE_JSON -- CLI_ARGS...

Wraps the public functions of the layer modules and a few named methods,
then calls `shardcalc.cli.main(argv)`.  No program file changes: names
bound by `from .x import y` are replaced in every module that holds them,
kernel functions on the selected backend module, methods on their class.

Each wrapped name gets calls, inclusive time (outermost calls only, so
recursion is not counted twice) and self time (inclusive minus wrapped
callees), kept on a stack of frames.  Only the coarse calls in SPANS also
get a span with a parent link, kept in memory and written at the end with
the aggregates: `Shard.id` alone runs over a million times in
`verify --n 5`, so hot calls are aggregated, and the leaves among them
skip the frame.
"""

import inspect
import json
import sys
import time

# Layer name -> module path inside the package.
LAYERS = {
    "exactla": "shardcalc.exactla",
    "arrangement": "shardcalc.arrangement",
    "calculus": "shardcalc.calculus",
    "steinmann": "shardcalc.steinmann",
    "forests": "shardcalc.forests",
    "audit": "shardcalc.audit",
    "cli": "shardcalc.cli",
}
METHODS = {
    "arrangement": {"Shard": ("id",)},
    "steinmann": {"RelationSet": ("rank",), "QuotientSpace": ("reduce",)},
}
# Calls without wrapped callees that run too often for a frame each.
LEAVES = {"kernel.pivot_step", "kernel.sign_eval", "kernel.quick_check",
          "arrangement.Shard.id", "exactla.rat", "exactla.rat_str"}
# Calls that run rarely enough to get a span each.
SPANS = {
    "cli.main", "audit.full_audit", "audit.verify_lie_axioms",
    "audit.verify_module_axioms", "audit.verify_kernel_theorem",
    "audit.verify_factorization", "steinmann.steinmann_relations",
    "steinmann.quotient_space", "steinmann.RelationSet.rank",
    "arrangement.enumerate_shards", "exactla.rank", "exactla.kernel_basis",
    "exactla.rowspace_reducer", "calculus.forest_derivative",
}
# Spans past this many are counted in spans_dropped instead of kept.
SPAN_LIMIT = 200000


class Tracer:
    """Call statistics and spans of the wrapped functions."""

    def __init__(self):
        self.stats = {}          # name -> [calls, incl_s, self_s, depth]
        self.counts = {"kernel.quick_check.rejects": 0,
                       "exactla.strictly_feasible.infeasible": 0,
                       "steinmann.relations": 0,
                       "audit.instances": 0}
        self.spans = []          # (id, parent id, name, start, end)
        self.spans_dropped = 0
        self._span_ids = [0]
        self._stack = [[0.0, 0]]  # frames: [wrapped callee time, span id]
        self._relation_sets = set()
        self._observe = self._observers()

    def wrap(self, name, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe.get(name)

        if name in LEAVES:
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt
                    stack[-1][0] += dt
                if observe is not None:
                    observe(result)
                return result
            return leaf

        spans = self.spans if name in SPANS else None
        span_ids = self._span_ids

        def framed(*args, **kwargs):
            parent = stack[-1]
            if spans is not None:
                span_ids[0] += 1
                sid = span_ids[0]
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            st[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                st[3] -= 1
                st[0] += 1
                if not st[3]:
                    st[1] += dt
                st[2] += dt - frame[0]
                parent[0] += dt
                if spans is not None:
                    if len(spans) < SPAN_LIMIT:
                        spans.append((sid, parent[1], name, t0, t1))
                    else:
                        self.spans_dropped += 1
            if observe is not None:
                observe(result)
            return result
        return framed

    def _observers(self):
        counts = self.counts

        def quick_check(ok):
            if not ok:
                counts["kernel.quick_check.rejects"] += 1

        def strictly_feasible(vec):
            if vec is None:
                counts["exactla.strictly_feasible.infeasible"] += 1

        def relations(rel):
            # the library caches relation sets; count each one once
            if id(rel) not in self._relation_sets:
                self._relation_sets.add(id(rel))
                counts["steinmann.relations"] += len(rel)

        def report(rep):
            counts["audit.instances"] += sum(e.instances for e in rep.entries)

        return {"kernel.quick_check": quick_check,
                "exactla.strictly_feasible": strictly_feasible,
                "steinmann.steinmann_relations": relations,
                "audit.full_audit": report}

    def install(self):
        """Wrap every layer and rebind the wrappers wherever they are held."""
        import shardcalc
        from shardcalc._backend import kernel

        replaced = {}
        for fname in ("pivot_step", "sign_eval", "quick_check"):
            fn = getattr(kernel, fname)
            replaced[id(fn)] = self.wrap("kernel." + fname, fn)
        for layer, path in LAYERS.items():
            module = sys.modules[path]
            for fname, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == path
                        and not fname.startswith("_")):
                    replaced[id(fn)] = self.wrap(layer + "." + fname, fn)
            for cname, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cname)
                for mname in methods:
                    fn = getattr(cls, mname)
                    setattr(cls, mname, self.wrap(
                        "%s.%s.%s" % (layer, cname, mname), fn))
        for path, module in list(sys.modules.items()):
            if module is None or not (
                    path == "shardcalc" or path.startswith("shardcalc.")):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
        return shardcalc

    def dump(self, path, rc):
        stats = {name: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
                 for name, s in sorted(self.stats.items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rc": rc, "stats": stats,
                       "counts": self.counts,
                       "spans_dropped": self.spans_dropped,
                       "spans": self.spans}, fh)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    shardcalc = tracer.install()
    rc = shardcalc.cli.main(cli_argv)
    sys.stdout.flush()
    tracer.dump(out_path, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
