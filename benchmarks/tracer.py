"""In-memory span tracer for the ibodylab benchmark.

`Tracer.install()` replaces every public function of every loaded
``ibodylab.*`` namespace, and the methods of `ZonalProfile` and
`S2Function`, with a wrapper that records a span around the call.  The
modules import one another by name (``from .analysis import sup_norm``),
so the same function is bound in several namespaces; each binding gets the
same wrapper, and calls made from inside the package are traced as well as
calls made by the benchmark.  Nothing in the package itself is edited.

A span is (name, start, end, parent).  Spans are appended when they open,
so the descendants of span i are exactly the spans i+1 .. last[i]; this
makes ancestry queries a pair of index comparisons.  Spans stay in memory
in flat arrays and are written out once, by `save`.

Optional per-function hooks turn a call's arguments into a number stored
with the span (points evaluated, basis values built, table bytes), or
count events such as cache hits; hooks run after the span has closed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "ibodylab"
TRACED_CLASSES = ("ZonalProfile", "S2Function")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _basis_values(tracer, args, kwargs, result) -> float:
    kmax = _arg(args, kwargs, 1, "kmax")
    return float((kmax + 1) * np.size(_arg(args, kwargs, 2, "t")))


def _s2_points(tracer, args, kwargs, result) -> float:
    # points has shape (..., 3)
    return float(np.prod(np.shape(_arg(args, kwargs, 1, "points"))[:-1]))


def _zonal_points(tracer, args, kwargs, result) -> float:
    # args[0] is the profile (method call)
    return float(np.size(_arg(args, kwargs, 1, "t")))


def _legendre_bytes(tracer, args, kwargs, result) -> float:
    band_limit = _arg(args, kwargs, 0, "band_limit")
    # size of the (L+1, L+1, N) float64 table the call asks for, computed
    # from the arguments rather than measured
    return float((band_limit + 1) ** 2 * np.size(_arg(args, kwargs, 1, "x")) * 8)


def _rule_request(tracer, args, kwargs, result) -> float:
    # a request is served from the cache when it returns an object that an
    # earlier request already returned
    key = id(result)
    hit = key in tracer.rules_seen
    if not hit:
        tracer.rules_seen[key] = result  # keep alive so the id stays unique
    return 1.0 if hit else 0.0


def _sup_norm_repeat(tracer, args, kwargs, result) -> float:
    # 1.0 when the same function (same representation, dimension and
    # coefficient bytes) was already measured inside the current operation
    f = _arg(args, kwargs, 0, "f")
    key = (type(f).__name__, getattr(f, "dim", 3),
           np.ascontiguousarray(f.coeffs).tobytes())
    seen = tracer.op_state.setdefault("sup_norm", set())
    if key in seen:
        return 1.0
    seen.add(key)
    return 0.0


HOOKS = {
    "zonal.zonal_basis_matrix": _basis_values,
    "zonal.zonal_basis_derivatives": _basis_values,
    "zonal.ZonalProfile.eval_at": _zonal_points,
    "sphharm.eval_s2_at_points": _s2_points,
    "sphharm.legendre_table": _legendre_bytes,
    "quadrature.gauss_jacobi_rule": _rule_request,
    "quadrature.s2_grid": _rule_request,
    "analysis.sup_norm": _sup_norm_repeat,
}


class Tracer:
    """Records nested spans; one instance per process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.last = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.extra = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.rules_seen: dict[int, object] = {}
        self.op_state: dict = {}

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.last.append(idx)
        self.t1.append(0.0)
        self.extra.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack.pop()
        self.last[idx] = len(self.name_id) - 1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.intern(name))

    def begin_op(self) -> None:
        """Reset per-operation hook state (used by sup-norm repeat counts)."""
        self.op_state = {}

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.extra[idx] = hook(tracer, args, kwargs, result)
            return result

        traced.__traced__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = PACKAGE) -> int:
        """Wrap every public function in every loaded `package.*` namespace
        and the methods of the traced classes; returns the bindings patched."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            w = wrappers.get(id(fn))
            if w is None:
                layer = fn.__module__.rsplit(".", 1)[-1]
                w = wrappers[id(fn)] = self.wrap(fn, f"{layer}.{fn.__qualname__}")
            return w

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if hasattr(obj, "__traced__"):
                    continue
                if not getattr(obj, "__module__", "").startswith(package + "."):
                    continue
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrapper_for(obj))
        classes = {getattr(m, c) for m in modules for c in TRACED_CLASSES
                   if isinstance(getattr(m, c, None), type)}
        for cls in classes:
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(wrapper_for(raw.__func__))
                elif callable(raw) and not isinstance(raw, type):
                    new = wrapper_for(raw)
                else:
                    continue
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, new)
        return len(self._patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "last": np.frombuffer(self.last, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "extra": np.frombuffer(self.extra, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans as one .npz: flat arrays plus the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


class SpanTable:
    """Queries over recorded spans (self time, ancestry, per-name sums)."""

    def __init__(self, names: list[str], arrays: dict[str, np.ndarray]):
        self.names = list(names)
        self.nid = arrays["name_id"]
        self.parent = arrays["parent"]
        self.last = arrays["last"]
        self.dur = arrays["t1"] - arrays["t0"]
        self.extra = arrays["extra"]
        n = self.nid.size
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.layers = [nm.split(".", 1)[0] for nm in self.names]

    def ids(self, names) -> np.ndarray:
        """Mask of the spans whose name is one of `names`."""
        wanted = set(names)
        return np.isin(self.nid, [i for i, nm in enumerate(self.names) if nm in wanted])

    def layer_mask(self, layer: str, of=None) -> np.ndarray:
        """Mask of the spans (or of the spans indexed by `of`) in `layer`."""
        ids = [i for i, lay in enumerate(self.layers) if lay == layer]
        return np.isin(self.nid if of is None else self.nid[of], ids)

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans of `mask` that have no ancestor in `mask`."""
        keep = np.zeros(self.nid.size, dtype=bool)
        covered = -1
        for i in np.flatnonzero(mask):
            if i > covered:
                keep[i] = True
                covered = self.last[i]
        return keep

    def inside(self, mask: np.ndarray) -> np.ndarray:
        """Spans that are strict descendants of some span in `mask`."""
        out = np.zeros(self.nid.size, dtype=bool)
        for i in np.flatnonzero(self.outermost(mask)):
            out[i + 1:self.last[i] + 1] = True
        return out
