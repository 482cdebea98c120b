"""Spans and counts around calls into citest's public functions.

``instrument`` replaces every public function of the layer modules, in every
citest namespace that holds it, with a wrapper that records a span (name,
start, end, parent, operation).  Calls one public function makes to another
go through the module globals, so their spans nest.  Self time, a span's
duration minus the time its direct children cover, is accumulated as spans
close; the raw spans are kept in memory up to a cap and written out when the
run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "profile", "indices", "shifted", "estimators", "partitions")


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.dropped = 0
        self._next_id = 0
        self.durations: dict[str, list[int]] = defaultdict(list)  # ns, keyed name and name[tag]
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.layer_self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self.tag = ""
        self._local = threading.local()

    def begin_op(self, tag: str) -> None:
        self.op += 1
        self.tag = tag

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_result=None):
        clock = time.perf_counter_ns
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0]  # span id, child time
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name} raised {type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                self._close(name, layer, start, end, parent, frame, stack)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _close(self, name, layer, start, end, parent, frame, stack) -> None:
        dur = end - start
        own = dur - frame[1]
        if stack:
            stack[-1][1] += dur
        for key in (name, f"{name}[{self.tag}]") if self.tag else (name,):
            self.durations[key].append(dur)
            self.self_ns[key].append(own)
        self.layer_self_ns[layer] += own
        if len(self.spans) < self.keep:
            self.spans.append((frame[0], name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def write(self, path, summary: dict) -> None:
        payload = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "counts": dict(self.counts),
            "layer_self_ms_per_op": {
                layer: ns / 1e6 / max(1, self.op + 1) for layer, ns in self.layer_self_ns.items()
            },
            "summary": summary,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def _count_defect(counts: Counter, defect) -> None:
    counts["shifted.h_defect_returns"] += 1
    counts["shifted.rows"] += len(defect.rows)
    counts["shifted.ranks_consumed"] += defect.ranks_consumed


HOOKS = {"shifted.h_defect": _count_defect}


def instrument(tracer: Tracer):
    """Wrap every public function of each layer module; return an undo function."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"citest.{layer}"]
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(fn)] = (fn, tracer.wrap(name, fn, HOOKS.get(name)))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "citest" and not modname.startswith("citest."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))

    def undo() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    return undo
