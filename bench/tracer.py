"""Span tracer for the modules (layers) of the ``slfold`` package.

``Tracer.install`` replaces every public function of every ``slfold``
module, wherever a ``slfold`` module namespace binds it, and every public
method of the classes those modules define, with a wrapper that records a
span: (function id, start, end, parent span).  A function bound in several
namespaces (``slfold.embedding.solve_branch`` is ``slfold.branch.solve_branch``)
gets one wrapper, so calls across layers nest.  The layer of a span is the
module that defines the function.  Spans live in flat arrays until
``uninstall`` restores the originals; ``save`` writes them out.

Nothing in the package is looked up by name, so functions that a later
refactor renames or removes are simply not traced.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np


PACKAGE = "slfold"


def _public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    def __init__(self, sized: tuple[str, ...] = ()):
        self.sized = set(sized)          # "layer.func" whose 2nd argument's size is kept
        self.names: list[str] = []       # function id -> "layer.qualname"
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[int, int] = {}  # span index -> np.size of the 2nd argument
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules() -> list[types.ModuleType]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        fns, parents, starts, ends, stack = self.fn, self.parent, self.start, self.end, self._stack
        sizes = self.sizes if qualname in self.sized else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            if sizes is not None and len(args) > 1:
                sizes[idx] = int(np.size(args[1]))
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                module = getattr(obj, "__module__", None) or ""
                if not _public(attr) or not module.startswith(PACKAGE + "."):
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__:
                        self._patch_class(obj)
                elif callable(obj):
                    if id(obj) not in wrapped:
                        layer = obj.__module__.rsplit(".", 1)[-1]
                        wrapped[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    self._set(mod, attr, wrapped[id(obj)])

    def _patch_class(self, cls: type) -> None:
        layer = cls.__module__.rsplit(".", 1)[-1]
        for attr, member in list(vars(cls).items()):
            if not _public(attr):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(member.__func__, qual)))
            elif isinstance(member, types.FunctionType):
                self._set(cls, attr, self._wrap(member, qual))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- analysis ---------------------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(self.names, np.frombuffer(self.fn, dtype=np.int32).copy(),
                     np.frombuffer(self.parent, dtype=np.int32).copy(),
                     np.frombuffer(self.start, dtype=np.float64).copy(),
                     np.frombuffer(self.end, dtype=np.float64).copy(), dict(self.sizes))


class Spans:
    """Columnar span table with self time and same-layer entry points.

    ``entry[i]`` is the outermost span of the unbroken chain of same-layer
    ancestors of span ``i``: the call through which control entered the
    layer.  Self time is duration minus the time covered by direct children.
    """

    def __init__(self, names, fn, parent, start, end, sizes):
        self.names = list(names)
        self.fn, self.parent, self.start, self.end, self.sizes = fn, parent, start, end, sizes
        self.layer = np.array([n.split(".", 1)[0] for n in self.names])[fn]
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self.duration = dur
        self.self_time = dur - child
        same = has_parent.copy()
        same[has_parent] = self.layer[parent[has_parent]] == self.layer[has_parent]
        entry = np.where(same, parent, np.arange(fn.size))
        while True:
            nxt = entry[entry]
            if np.array_equal(nxt, entry):
                break
            entry = nxt
        self.entry = entry

    def __len__(self) -> int:
        return int(self.fn.size)

    def ids(self, *qualnames: str) -> np.ndarray:
        return np.array([k for k, n in enumerate(self.names) if n in qualnames], dtype=np.int32)

    def calls(self, *qualnames: str) -> np.ndarray:
        """Mask of spans of the named functions."""
        return np.isin(self.fn, self.ids(*qualnames))

    def entered_by(self, *qualnames: str) -> np.ndarray:
        """Mask of spans whose layer was entered through one of the names."""
        return np.isin(self.fn[self.entry], self.ids(*qualnames))

    def layer_self(self, layer: str, mask: np.ndarray | None = None) -> float:
        sel = self.layer == layer
        if mask is not None:
            sel &= mask
        return float(self.self_time[sel].sum())

    def save(self, path: Path) -> None:
        idx = np.array(sorted(self.sizes), dtype=np.int64)
        np.savez(path, names=np.array(self.names), fn=self.fn, parent=self.parent,
                 start=self.start, end=self.end, size_index=idx,
                 size_value=np.array([self.sizes[k] for k in idx], dtype=np.int64))
