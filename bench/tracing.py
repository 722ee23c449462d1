"""In-memory spans around calls into each layer, recorded from outside.

A span is [name, start_ns, end_ns, parent index, note]. The tracer wraps a
function and swaps the wrapper in at every lookup site: each module
attribute that holds the same object, so calls one library module makes
into another (or into itself) are traced without editing the library.
`note` optionally derives counts from a call's arguments and result.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, module_prefixes: tuple[str, ...]):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._prefixes = module_prefixes
        self._patched: list[tuple[object, str, object, object]] = []

    def _modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith(self._prefixes)
        ]

    def wrap(self, name: str, fn, note=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (module, attribute, span name, note) at every lookup site."""
        modules = self._modules()
        for module, attr, name, note in targets:
            fn = getattr(module, attr)
            wrapper = self.wrap(name, fn, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn, wrapper))
        self.enable()

    def enable(self) -> None:
        for mod, key, _, wrapper in self._patched:
            setattr(mod, key, wrapper)

    def disable(self) -> None:
        for mod, key, fn, _ in reversed(self._patched):
            setattr(mod, key, fn)

    @contextmanager
    def root(self, name: str):
        rec = [name, 0, 0, -1, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def self_times(spans: list[list]) -> dict[str, int]:
    """Nanoseconds per layer (span-name prefix) not covered by child spans."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, int] = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + (end - start) - child[k]
    return out


def by_name(spans: list[list]) -> dict[str, list[tuple[int, object]]]:
    """Inclusive duration and note of every span, grouped by span name."""
    out: dict[str, list[tuple[int, object]]] = {}
    for name, start, end, _, note in spans:
        out.setdefault(name, []).append((end - start, note))
    return out
