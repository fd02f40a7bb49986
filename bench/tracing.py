"""Spans around calls into the mppn package, recorded from outside it.

The tracer replaces public functions and methods of the package with
wrappers that record one span per call: a name, a start and end time, the
span that was open when the call began (its parent) and the run id.  Spans
stay in memory until ``write`` is called.  Nothing inside the package is
edited; ``uninstall`` puts every original object back.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span dict so
        the caller may rename it or attach counts before it closes."""
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a module function, method, classmethod or
        generator function) by a span-recording wrapper.

        A module-level function is also replaced in every other loaded
        module of the same package that imported it by name.  ``after``,
        if given, is called as ``after(rec, args, kwargs, result)`` once
        the call returns, to rename the span or attach counts.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # one span per item drawn, so the work shows where it happens
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name) as rec:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(rec, args, kwargs, result)
                return result

        new = classmethod(wrapper) if is_classmethod else wrapper
        targets = [(owner, attr)]
        if inspect.ismodule(owner):
            package = owner.__name__.split(".")[0]
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod is owner or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                targets += [(mod, a) for a, v in vars(mod).items() if v is fn]
        for obj, a in targets:
            self._patches.append((obj, a, inspect.getattr_static(obj, a)))
            setattr(obj, a, new)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Per span, its duration minus the durations of its direct children
    (spans nest strictly, so children never overlap each other)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def root_of(spans: list[dict]) -> list[int]:
    """Index of the outermost ancestor of every span."""
    roots = []
    for s in spans:
        # parents are always recorded before their children
        roots.append(s["id"] if s["parent"] is None else roots[s["parent"]])
    return roots
