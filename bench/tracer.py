"""Outside-in span tracer for the qmm layers.

The tracer wraps, from outside the program, every function and method that
a layer module defines. A function imported by name into another module
(``from .qpe import _controlled_powers``) is bound there at import time, so
each wrapper is installed under every name, in every ``qmm`` module, that
refers to the original; leaving the ``with`` block restores all of them.

Each call becomes a span ``[name, start, end, parent, op_id, excluded]``
kept in memory. ``excluded`` is time the tracer itself spent inside the span
(reading the arguments of a child call and hashing them for the
distinct-input counts), which ``self_times`` leaves out of the span's self
time.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("harness", "matmul", "qpe", "swaptest", "readout", "linalg", "statevector", "stateprep", "io")

NAME, START, END, PARENT, OP, EXCLUDED = range(6)


def _array_key(*parts):
    """Hashable digest of scalar and array arguments."""
    out = []
    for p in parts:
        tobytes = getattr(p, "tobytes", None)
        out.append((p.shape, tobytes()) if tobytes is not None else p)
    return hash(tuple(out))


# Inputs hashed per call, by argument name, to count how many calls repeat
# earlier work.
DISTINCT_KEYS = {
    "matmul._qpe_rows": lambda b: _array_key(b["u"], b["psi"], b["t"]),
    "matmul._sve_component": lambda b: _array_key(b["sigma"], b["frob"], b["t"], b["weights"]),
    "matmul._hhl_component": lambda b: _array_key(b["sigma"], b["t0"], b["t"], b["weights"]),
    "qpe.phase_estimate": lambda b: _array_key(b["u"], b["s"].amplitudes, b["cfg"].phase_bits),
}

# Argument shapes recorded per call, for work counts computed from them.
SHAPES = {
    "qpe._controlled_powers": lambda b: (b["rows"].shape[0], b["rows"].shape[1], b["t"]),
}


def _boundaries():
    """(qualified name, owner, attribute, original) for every function and
    method the layer modules define; properties and exceptions are skipped."""
    found = []
    for layer in LAYERS:
        mod = sys.modules[f"qmm.{layer}"]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found.append((f"{layer}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
                for mattr, member in vars(obj).items():
                    if mattr.startswith("__") and mattr != "__post_init__":
                        continue
                    if inspect.isfunction(member) or isinstance(member, classmethod):
                        found.append((f"{layer}.{attr}.{mattr}", obj, mattr, member))
    return found


class Tracer:
    """Context manager that patches every layer boundary while active."""

    def __init__(self):
        import qmm  # noqa: F401  (loads every layer module)

        self.spans: list[list] = []
        self.keys: dict[str, list] = defaultdict(list)
        self.shapes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = [-1]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, keys, shapes = self.spans, self._stack, self.keys, self.shapes
        key_fn, shape_fn = DISTINCT_KEYS.get(name), SHAPES.get(name)
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if key_fn is not None or shape_fn is not None:
                h0 = clock()
                bound = signature.bind(*args, **kwargs).arguments
                if key_fn is not None:
                    keys[name].append((self._op, key_fn(bound)))
                if shape_fn is not None:
                    shapes[name].append((self._op, shape_fn(bound)))
                if parent >= 0:
                    spans[parent][EXCLUDED] += clock() - h0
            span = [name, 0.0, 0.0, parent, self._op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if (n == "qmm" or n.startswith("qmm.")) and m is not None]
        for name, owner, attr, orig in _boundaries():
            if isinstance(orig, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, orig.__func__)))
                self._patched.append((owner, attr, orig))
                continue
            wrapper = self._wrap(name, orig)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, orig))
                continue
            for mod in modules:
                for bound_as, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, bound_as, wrapper)
                        self._patched.append((mod, bound_as, orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        return False

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span for one benchmark operation; its self time is the
        benchmark's own code between calls into the layers."""
        self._op = op_id
        span = [f"bench.{kind}", 0.0, 0.0, -1, op_id, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def self_times(self) -> list[float]:
        """Per-span duration minus child spans and excluded tracer time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c - s[EXCLUDED] for s, c in zip(self.spans, child)]
