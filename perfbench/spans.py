"""Span tracer that wraps miespec's public functions from outside the package.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces every module
attribute (and every value of a module-level dict, such as the oracle's
table of discretization schemes) that binds a traced function with one
shared wrapper, so a call is timed whichever name the caller used:
``wavefunction.gauss_laguerre`` is the same function as
``specfun.gauss_laguerre`` under another binding.

A span records name, start, end, parent, op id, thread, wall time and thread
CPU time.  Wall spans alone would mislead: ``verify`` runs its channels on a
thread pool, so a span waiting for the interpreter lock accrues wall time
without doing work.  Spans are kept in memory and written out at the end.

Self time of a span is its time minus that of its children in the same
thread.  Children on other threads (pool workers under an op) overlap their
parent in time and are not subtracted.  Work the tracer itself does after a
call returns (hashing the matrix an eigen solve received) is measured per
span as ``oh_*`` and removed from the parent's self time, so the busy self
times of all spans plus the tracer's own time add up to the CPU time of the
ops.
"""

import functools
import hashlib
import itertools
import json
import threading
import time
from collections import namedtuple

# (module, function, span name) per traced function; modules are relative
# to the miespec package.  Private kernels are not traced: the calls into
# them sit inside ``oracle.solve`` and ``specfun.gauss_laguerre``.  The one
# private function, ``cli._verify_channel``, is the pool workers' entry; the
# workers' own time would otherwise belong to no span.
TRACED = (
    ("oracle", "eigen_lowest", "oracle.solve"),
    ("oracle", "build_tridiagonal", "oracle.build"),
    ("oracle", "build_tridiagonal_radial", "oracle.build"),
    ("oracle", "convergence_study", "oracle.convergence"),
    ("oracle", "default_grid", "oracle.grid"),
    ("oracle", "solve_bound_states", "oracle.solve_bound_states"),
    ("specfun", "gauss_laguerre", "specfun.gauss_laguerre"),
    ("specfun", "laguerre", "specfun.laguerre"),
    ("specfun", "kummer_poly", "specfun.kummer_poly"),
    ("wavefunction", "norm_check", "wavefunction.norm_check"),
    ("wavefunction", "overlap", "wavefunction.overlap"),
    ("wavefunction", "eval_radial", "wavefunction.eval_radial"),
    ("wavefunction", "eval_y_form", "wavefunction.eval_y_form"),
    ("wavefunction", "ode_residual", "wavefunction.ode_residual"),
    ("spectrum", "bound_state", "spectrum.bound_state"),
    ("spectrum", "energy", "spectrum.energy"),
    ("spectrum", "spectrum_table", "spectrum.spectrum_table"),
    ("ladder", "apply_lowering", "ladder.fit"),
    ("ladder", "apply_raising", "ladder.fit"),
    ("ladder", "commutator_check", "ladder.algebra"),
    ("ladder", "casimir_check", "ladder.algebra"),
    ("cli", "main", "cli.main"),
    ("cli", "_verify_channel", "cli.verify_channel"),
)

# default_grid clamps its node count to this range
GRID_CLAMP = (1000, 400000)

# Times in seconds.  busy is thread CPU time; oh_wall and oh_busy are the
# tracer's own work after the call returned.
Span = namedtuple("Span", "id name parent op thread start end busy oh_wall "
                          "oh_busy units key")


def _matrix_key(args, kwargs):
    """(rows, digest) of the Tridiagonal passed to eigen_lowest."""
    tri = args[0] if args else kwargs["tri"]
    digest = hashlib.blake2b(tri.diag.tobytes(), digest_size=16)
    digest.update(tri.offdiag.tobytes())
    return tri.size, digest.digest()


def _rule_key(args, kwargs):
    """(nodes, (m, alpha)) of a gauss_laguerre call."""
    m = args[0] if args else kwargs["m"]
    alpha = args[1] if len(args) > 1 else kwargs.get("alpha", 0.0)
    return m, (m, float(alpha))


# span name -> fn(args, kwargs, result) -> (units, key); units are the work
# count of the call (matrix rows, quadrature nodes, clamped grids)
_DETAILS = {
    "oracle.solve": lambda a, k, r: _matrix_key(a, k),
    "specfun.gauss_laguerre": lambda a, k, r: _rule_key(a, k),
    "oracle.grid": lambda a, k, r: (int(r.count in GRID_CLAMP), None),
}


class Tracer:
    """Collects spans; install() patches the package, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self.root_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, name, parent, w0, w1, c0, c1, units=None, key=None):
        c2 = time.thread_time()
        w2 = time.perf_counter()
        self.spans.append(Span(sid, name, parent, self.op_id,
                               threading.get_ident(), w0, w1, c1 - c0,
                               w2 - w1, c2 - c1, units, key))

    def wrap(self, fn, name):
        detail = _DETAILS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root_id
            sid = next(self._ids)
            stack.append(sid)
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                c1 = time.thread_time()
                w1 = time.perf_counter()
                stack.pop()
                self._record(sid, name, parent, w0, w1, c0, c1)
                raise
            c1 = time.thread_time()
            w1 = time.perf_counter()
            stack.pop()
            units, key = detail(args, kwargs, result) if detail else (None, None)
            self._record(sid, name, parent, w0, w1, c0, c1, units, key)
            return result

        return traced

    def install(self, package, modules):
        """Wrap every binding of each TRACED function in ``modules``.  A
        function the package no longer has is skipped; its metrics read 0."""
        wrappers = {}  # id(original) -> wrapper
        for mod_name, attr, span in TRACED:
            fn = getattr(getattr(package, mod_name, None), attr, None)
            if fn is not None and id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, span)
        for mod in modules:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, dict):
                    containers = [(value, k, v) for k, v in value.items()]
                else:
                    containers = [(namespace, attr, value)]
                for container, key, item in containers:
                    if id(item) in wrappers:
                        self._patched.append((container, key, item))
                        container[key] = wrappers[id(item)]

    def uninstall(self):
        while self._patched:
            container, key, original = self._patched.pop()
            container[key] = original

    def op(self, op_id):
        """Context manager for the root span of one op, named ``bench.op``."""
        return _OpSpan(self, op_id)

    def dump(self, path, meta):
        """Write ``meta`` and then the spans as JSON lines (times in s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "op": span.op, "thread": span.thread, "start": span.start,
                    "end": span.end, "wall": span.end - span.start,
                    "cpu": span.busy, "units": span.units}) + "\n")


class _OpSpan:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        t.op_id = self.op_id
        self.sid = t.root_id = next(t._ids)
        t._stack().append(self.sid)
        self.w0 = time.perf_counter()
        self.c0 = time.thread_time()
        return self

    def __exit__(self, *exc):
        c1 = time.thread_time()
        w1 = time.perf_counter()
        t = self.tracer
        t._stack().pop()
        t._record(self.sid, "bench.op", None, self.w0, w1, self.c0, c1)
        t.root_id = None
        return False


def aggregate(spans, pass_of_op):
    """Per span name: calls, self busy/wall, inclusive busy, units, and the
    number of distinct keys counted within each pass.  Also returns the
    tracer's own CPU time (sum of ``oh_busy``)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    stats = {}
    keys = {}
    overhead = 0.0
    for span in spans:
        overhead += span.oh_busy
        self_busy, self_wall = span.busy, span.end - span.start
        for child in children.get(span.id, ()):
            if child.thread == span.thread:
                self_busy -= child.busy + child.oh_busy
                self_wall -= child.end - child.start + child.oh_wall
        st = stats.setdefault(span.name, {"calls": 0, "busy": 0.0, "wall": 0.0,
                                          "incl_busy": 0.0, "units": 0})
        st["calls"] += 1
        st["busy"] += self_busy
        st["wall"] += self_wall
        st["incl_busy"] += span.busy
        st["units"] += span.units or 0
        if span.key is not None:
            keys.setdefault(span.name, set()).add((pass_of_op[span.op], span.key))
    for name, found in keys.items():
        stats[name]["distinct"] = len(found)
    return stats, overhead
