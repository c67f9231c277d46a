"""Spans around calls into braidwalk's layers, kept in memory.

The benchmark calls every layer function through `Tracer.call`; the
untraced `NullTracer` adds one Python call and nothing else.  Calls that
braidwalk makes internally (the walk engine's sampling, stepping and
Gromov products, and the CLI's report writer) are reached by swapping the
module attribute for a timing wrapper for the length of the traced run;
nothing inside `src/` changes.
"""

from __future__ import annotations

import time
from collections import defaultdict


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass

    def peak(self, name, value):
        pass

    def install(self):
        pass

    def uninstall(self):
        pass


class Tracer:
    """Per-layer seconds and counts.  Nested calls of the same span name
    (a function that the benchmark calls and that also calls itself
    through a patched attribute) are timed once, at the outermost call."""

    enabled = True

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        if self._open[name]:
            return fn(*args, **kwargs)
        self._open[name] += 1
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += time.perf_counter() - t
            self._open[name] -= 1

    def count(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def snapshot(self):
        return dict(self.seconds), dict(self.counts)

    # -- internal calls -------------------------------------------------

    def _wrap(self, owner, attr, name, after=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.call(name, orig, *args, **kwargs)
            if after is not None:
                after(out)
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def install(self):
        import braidwalk.cli as cli
        import braidwalk.experiments as experiments
        from braidwalk import MIStepper

        def form_letters(form):
            self.peak("combing.form_letters_max",
                      sum(len(p) for p in form.parts))

        self._wrap(experiments, "sample_paths", "walks.sample")
        self._wrap(MIStepper, "step", "combing.step")
        self._wrap(MIStepper, "form", "combing.form", form_letters)
        for attr in ("gromov", "concat", "invert"):
            self._wrap(experiments, attr, "words.gromov")
        self._wrap(cli, "emit", "experiments.emit")

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
