"""In-memory span recorder that wraps consensusgame's public callables.

`SpanRecorder.install()` replaces every public function of the package's
modules, at each name a caller looks it up by (``harness.step_strategic``,
``agents.deviation_disutility``, ``consensusgame.run_simulation``, ...),
and every public method and dataclass constructor (``__post_init__``) of
the classes they define, with a wrapper that records one span: name,
start, end and the span that was open when it was called.  Nothing in the
package's sources changes.  `uninstall()` puts the originals back.

Spans stay in flat arrays (a traced run makes up to about a million) until
the benchmark ends; `write` dumps them and `LayerStats` reduces them to
per-name call counts, total and self time (total minus the time covered by
child spans) and duration percentiles.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "consensusgame"
MODULES = ("setfn", "shapley", "core", "consensus", "agents", "harness", "cli")


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span i: name_id[i], start[i], end[i], parent[i] (-1 for a root)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple] = {}
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        key = id(fn)
        if key not in self._wrappers:
            name_id = self.name_index(name)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = self.open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(sid)

            self._wrappers[key] = (fn, traced)  # holding fn keeps its id unique
        return self._wrappers[key][1]

    # --- installing --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("span recorder already installed")
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + "."):
                    self._set(mod, attr, self._wrap(_span_name(obj, obj.__qualname__), obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj)

    def _install_class(self, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__post_init__":
                label = cls.__qualname__  # construction of a validated dataclass
            elif attr.startswith("_"):
                continue
            else:
                label = f"{cls.__qualname__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._wrap(_span_name(cls, label), member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap(_span_name(cls, label), member)
            else:
                continue
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- output ------------------------------------------------------------

    def stats(self) -> "LayerStats":
        return LayerStats(
            self.names,
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def write(self, path) -> None:
        """Compressed .npz: the name table and one array per span field,
        plus each span's root span (the job it belongs to)."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        job = np.empty_like(parent)
        for i, p in enumerate(parent.tolist()):  # parents precede children
            job[i] = i if p < 0 else job[p]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=parent,
            job=job,
        )


def _span_name(owner, label: str) -> str:
    return f"{owner.__module__.rsplit('.', 1)[-1]}.{label}"


class LayerStats:
    """Per-name reductions over finished spans."""

    def __init__(self, names, name_id, start, end, parent):
        self.index = {name: i for i, name in enumerate(names)}
        self.name_id = np.asarray(name_id)
        self.parent = np.asarray(parent)
        self.duration = np.asarray(end) - np.asarray(start)
        covered = np.zeros(self.duration.size)
        child = self.parent >= 0
        np.add.at(covered, self.parent[child], self.duration[child])
        self.self_time = self.duration - covered

    def _mask(self, name: str) -> np.ndarray:
        return self.name_id == self.index.get(name, -1)

    def summary(self, name: str) -> dict:
        """calls, total_s, self_s and duration percentiles p50_us / p99_us."""
        mask = self._mask(name)
        durations = self.duration[mask]
        if durations.size == 0:
            return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "p50_us": 0.0, "p99_us": 0.0}
        p50, p99 = np.percentile(durations, [50, 99]) * 1e6
        return {
            "calls": int(durations.size),
            "total_s": float(durations.sum()),
            "self_s": float(self.self_time[mask].sum()),
            "p50_us": float(p50),
            "p99_us": float(p99),
        }

    def children_named(self, parent_name: str, child_name: str) -> np.ndarray:
        """Per span named `parent_name`, its number of direct children named
        `child_name`."""
        children = self.parent[self._mask(child_name)]
        counts = np.bincount(children[children >= 0], minlength=self.duration.size)
        return counts[self._mask(parent_name)]
