"""Spans recorded from outside the program, for the traced run.

:class:`Tracer` replaces a function or method of a ``repro`` module with a
wrapper that records a span (name, start, end, parent) around each call,
and puts every original back in :meth:`Tracer.restore`. A layer's self
time is the sum of its spans' durations minus the durations of their
direct children. Wrappers live in this (driver) process only; Spark's
Python workers import the modules afresh and run unwrapped code.
"""
from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, spark=None):
        self.spark = spark  # a SparkHandle, to count jobs per span
        self.spans: list[list] = []  # [name, start, end, parent, extra]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._groups = itertools.count()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, spark_jobs: bool = False, **kwargs):
        """Run ``fn`` inside a span; with ``spark_jobs`` the jobs and tasks
        it starts are counted through a job group of its own."""
        idx = self._open(name)
        group = None
        if spark_jobs and self.spark is not None:
            sc = self.spark.sc
            prev = sc.getLocalProperty("spark.jobGroup.id")
            group = f"perfbench-{next(self._groups)}"
            sc.setJobGroup(group, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            if group is not None:
                sc.setLocalProperty("spark.jobGroup.id", prev)
                # Polling the status store is the tracer's own cost: give
                # it a span so it is not charged to the caller's layer.
                own = self._open("trace.jobs")
                jobs, tasks = self.spark.jobs_and_tasks(group)
                self._close(own)
                self.spans[idx][4].update(jobs=jobs, tasks=tasks)

    def wrap(self, owner, attr: str, name, *, spark_jobs: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper. ``name`` is a
        string or ``name(args, kwargs)``; ``after(tracer, args, kwargs,
        result)`` runs after each call, to record counts."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = tracer.call(label, orig, *args, spark_jobs=spark_jobs, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Self seconds per span name, over spans ``lo`` to ``hi - 1``."""
        child = defaultdict(float)
        for name, s, e, parent, _ in self.spans[lo:hi]:
            if parent is not None:
                child[parent] += e - s
        out: dict[str, float] = defaultdict(float)
        for i, (name, s, e, _, _) in enumerate(self.spans[lo:hi], start=lo):
            out[name] += (e - s) - child[i]
        return out

    def calls(self, lo: int, hi: int) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans[lo:hi]:
            out[span[0]] += 1
        return out

    def extra_sum(self, key: str, prefix: str, lo: int, hi: int) -> int:
        return sum(sp[4].get(key, 0) for sp in self.spans[lo:hi] if sp[0].startswith(prefix))
