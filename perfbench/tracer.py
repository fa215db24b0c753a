"""Run one CLI command in this process with spans around each layer's calls.

Usage: python3 tracer.py SPANS_OUT COMMAND_ID SPAWN_TIME CLI_ARG...

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by every process on the host), so the gap
to this file's first statement is interpreter start-up.  The package is
not modified: the tracer rebinds each traced name, in every cohomolab
module namespace that holds it, to a wrapper that records a span.  Spans
stay in memory and are written to SPANS_OUT as JSON when the command ends.

Per-element helpers such as algebra.multiply are deliberately not wrapped:
they run millions of times per command and the wrapper would swamp them.
"""

import time

T_MAIN = time.perf_counter()

import sys  # noqa: E402

# (span name, module, attribute) for module-level functions
FUNCTIONS = (
    ("fileformat.parse", "cohomolab.fileformat", "parse_algebra_text"),
    ("algebra.validate", "cohomolab.algebra", "validate_algebra"),
    ("algebra.domain", "cohomolab.algebra", "assess_domain"),
    ("operators.classify", "cohomolab.operators", "classify"),
    ("multilinear.from_flat", "cohomolab.multilinear", "from_flat"),
    ("complex.index_matrix", "cohomolab.complex", "index_coboundary_matrix"),
    ("complex.apply_d", "cohomolab.complex", "apply_d"),
    ("linalg.elim", "cohomolab.linalg", "complete_basis"),
    ("cohomology.chain_map", "cohomolab.cohomology", "build_K"),
    ("cohomology.chain_map", "cohomolab.cohomology", "build_J"),
    ("cohomology.chain_map", "cohomolab.cohomology", "build_J_even"),
    ("cohomology.chain_map", "cohomolab.cohomology", "build_J_odd"),
)

# (span name, module, class, method)
METHODS = (
    ("linalg.elim", "cohomolab.linalg", "Echelon", "__init__"),
    ("linalg.matmul", "cohomolab.linalg", "Mat", "matmul"),
    ("multilinear.flatten", "cohomolab.multilinear", "MultilinearMap", "flatten"),
)


class Tracer:
    """Span recorder: (name, start, end, parent index, counters)."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def call(self, name, fn, args, kwargs, counters=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = [name, start, end, parent, {}]
        if counters is not None:
            self.spans[index][4] = counters(args, kwargs, result)
        return result

    def wrap(self, name, fn, counters=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counters)
        return traced


def _index_matrix_counters(args, kwargs, mat):
    return {"nnz": sum(len(r) for r in mat.rows)}


def _apply_d_counters(args, kwargs, result):
    return {"naive": int(bool(kwargs.get("naive", False)))}


def _complete_basis_counters(args, kwargs, reps):
    ambient = args[1] if len(args) > 1 else kwargs["ambient_rows"]
    return {"rows_in": len(ambient), "rank": len(reps)}


COUNTERS = {
    "complex.index_matrix": _index_matrix_counters,
    "complex.apply_d": _apply_d_counters,
    "linalg.elim": _complete_basis_counters,
}


def _traced_echelon_init(tracer, original):
    """Echelon.__init__ takes any iterable of rows, so count them as fed."""
    def init(self, rows=()):
        fed = [0]

        def counted():
            for row in rows:
                fed[0] += 1
                yield row

        def counters(args, kwargs, result):
            return {"rows_in": fed[0], "rank": len(self.pivots)}

        return tracer.call("linalg.elim", original, (self, counted()), {}, counters)
    return init


def install(tracer: Tracer):
    """Rebind every traced name in every loaded cohomolab module."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "cohomolab" or name.startswith("cohomolab."))]
    for span, module, attr in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        traced = tracer.wrap(span, original, COUNTERS.get(span))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    for span, module, cls_name, method in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        original = getattr(cls, method)
        if method == "__init__":
            setattr(cls, method, _traced_echelon_init(tracer, original))
        else:
            setattr(cls, method, tracer.wrap(span, original))


def main(argv) -> int:
    spans_out, command_id, spawn_time = argv[0], int(argv[1]), float(argv[2])
    t0 = time.perf_counter()
    import cohomolab.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    # cli.main's self time is argument parsing, report to JSON, and stdout
    code = tracer.call("cli.emit", cohomolab.cli.main, (argv[3:],), {})
    sys.stdout.flush()
    import json
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"command_id": command_id,
                   "python_s": T_MAIN - spawn_time,
                   "import_s": import_s,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
