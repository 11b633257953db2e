"""Outside-in tracer for the steerability library.

The tracer replaces each listed public function with a timing wrapper at
every module binding that holds it (``states.hermitian_eigensystem`` and
``absolute.hermitian_eigensystem`` as well as ``linalg.hermitian_eigensystem``),
so calls made inside the library are seen without editing it.  Each call
becomes a span (function, start, end, parent span, request id, count)
kept in flat in-memory arrays; ``harness.layer_metrics`` derives call
counts, draw counts and self time from those spans, and ``save`` writes them out once
at the end of the run.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "steerability"

#: Public functions traced, by defining module.
LAYERS = {
    "linalg": ("hermitian_eigensystem", "singular_values_3x3"),
    "states": ("validate", "to_bloch", "spectrum_report", "from_bloch"),
    "absolute": ("decide_aus3", "bell_diagonal_canonical"),
    "steering": ("f2_max", "f3_max", "optimal_directions"),
    "teleport": ("aux_criteria",),
    "witness": ("activation_witness",),
    "sampling": (
        "random_state",
        "states_from_rng",
        "haar_from_rng",
        "empirical_f3_sup",
        "aus3_volume_estimate",
    ),
    "families": ("werner", "gisin", "scan_family"),
    "cli": ("main",),
}
TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

#: Private functions traced only for attribution, each with the local list
#: whose length its span records on return.  ``verify``'s convexity check
#: draws states and keeps the orbit-safe ones in ``members``; its accept
#: ratio is that list's length over the draws made inside it.
KEPT = {"cli._check_convexity": "members"}

#: Functions whose ``size`` argument is the number of random draws.
DRAWN = ("sampling.states_from_rng", "sampling.haar_from_rng")

#: Bytes of the arrays ``states_from_rng`` materializes per draw: two float64
#: 4x4 normal arrays, the complex Ginibre matrix, its conjugate, G G^dagger
#: and the normalized result (4 x 256), plus the float64 trace.  Computed
#: from the draw count, not measured.
STATE_DRAW_BYTES = 2 * 128 + 4 * 256 + 8


def _size_getter(fn):
    """Return f(args, kwargs) -> number of draws requested from fn."""
    params = list(inspect.signature(fn).parameters)
    pos = params.index("size")

    def draws(args, kwargs):
        size = kwargs["size"] if "size" in kwargs else (args[pos] if len(args) > pos else None)
        return 1 if size is None else int(size)

    return draws


class Tracer:
    """Span recorder installed into the imported ``steerability`` modules."""

    def __init__(self):
        self.names = list(TRACED + tuple(KEPT))
        self.request = -1  # set by the caller before each operation
        self._fid = array("i")
        self._parent = array("i")
        self._req = array("l")
        self._count = array("q")  # draws (DRAWN), kept list length (KEPT), else 0
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, draws_of):
        fids, parents, reqs, counts = self._fid, self._parent, self._req, self._count
        starts, ends, stack = self._start, self._end, self._stack

        def traced(*args, **kwargs):
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            reqs.append(self.request)
            counts.append(draws_of(args, kwargs) if draws_of else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_kept(self, fid: int, fn, local: str):
        """Span wrapper that records ``len(<local>)`` of fn's frame on return.

        A trace function is active only during the call and follows only
        fn's own frame (no line events), so nothing else is slowed beyond
        one trace-function call per nested Python call.  The count is -1
        if fn no longer has that local.
        """
        timed = self._wrap(fid, fn, None)
        code, counts = fn.__code__, self._count

        def traced(*args, **kwargs):
            i = len(counts)  # index of the span ``timed`` is about to open
            found = []

            def on_return(frame, event, arg):
                if event == "return":
                    kept = frame.f_locals.get(local)
                    found.append(-1 if kept is None else len(kept))
                return on_return

            def on_call(frame, event, arg):
                if frame.f_code is not code:
                    return None
                frame.f_trace_lines = False
                return on_return

            previous = sys.gettrace()
            sys.settrace(on_call)
            try:
                return timed(*args, **kwargs)
            finally:
                sys.settrace(previous)
                counts[i] = found[-1] if found else -1

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for fid, qualified in enumerate(self.names):
            module_name, func_name = qualified.split(".")
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(home, func_name)
            if qualified in KEPT:
                wrapper = self._wrap_kept(fid, original, KEPT[qualified])
            else:
                draws_of = _size_getter(original) if qualified in DRAWN else None
                wrapper = self._wrap(fid, original, draws_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self) -> dict[str, np.ndarray]:
        """Recorded spans as parallel arrays (one row per call)."""
        return {
            "function": np.array(self._fid, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "request": np.array(self._req, dtype=np.int64),
            "count": np.array(self._count, dtype=np.int64),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        """Write every span and the function-name table to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    Calls are strictly nested in one thread, so the children of a span cover
    disjoint parts of its interval.
    """
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - child_time


def ancestors_include(spans: dict[str, np.ndarray], fid: int) -> np.ndarray:
    """Boolean mask of spans that have a span of function ``fid`` above them."""
    parent = spans["parent"]
    inside = np.zeros(parent.size, dtype=bool)
    is_fid = spans["function"] == fid
    # Parents always precede their children, so one forward sweep suffices.
    for i in np.flatnonzero(parent >= 0):
        p = parent[i]
        inside[i] = is_fid[p] or inside[p]
    return inside
