"""Span tracing of transduct's layers from outside the program.

``Tracer.install()`` replaces each public function of interest with a
wrapper that records a span (name, start, end, parent, exception) and
optionally a count taken from the call. A function is replaced in every
``transduct`` module namespace that holds it (``transduct.backends.build_bundle``,
``transduct.cli.build_bundle``, ``transduct.build_bundle``, ...), and a
method on its class. ``uninstall()`` puts the originals back. Spans are
kept in memory; the worker writes them out when the run ends.

A function or method the program no longer has is skipped, so the tracer
keeps working while the program's internals change; its metrics then
read 0.
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute or "Class.method", count taken from the call)
TARGETS = [
    ("cli.main", "transduct.cli", "main", None),
    ("core.load_dataset", "transduct.core", "load_dataset", None),
    ("core.ReferenceSet.build", "transduct.core", "ReferenceSet.build", None),
    ("core.ReferenceSet.subset", "transduct.core", "ReferenceSet.subset", None),
    ("core.ReferenceSet.feature_matrix", "transduct.core", "ReferenceSet.feature_matrix", "rows"),
    ("selection.build_plan", "transduct.selection", "build_plan", None),
    ("prompt.build_bundle", "transduct.prompt", "build_bundle", None),
    ("prompt.build_part1", "transduct.prompt", "build_part1", None),
    ("prompt.parse_prompt", "transduct.prompt", "parse_prompt", "lines"),
    ("prompt.parse_completion", "transduct.prompt", "parse_completion", None),
    ("backends.classify", "transduct.backends", "classify", None),
    ("backends.complete", "transduct.backends", "LocalAttentionBackend.complete", None),
    ("backends.complete", "transduct.backends", "RemoteBackend.complete", None),
    ("backends.complete", "transduct.backends", "MockBackend.complete", None),
    ("backends.RateLimiter.acquire", "transduct.backends", "RateLimiter.acquire", None),
    ("attention.nn_attention_classify", "transduct.attention", "nn_attention_classify", None),
    ("baselines.knn_classify", "transduct.baselines", "knn_classify", None),
    ("baselines.ubknn_classify", "transduct.baselines", "ubknn_classify", None),
    ("workflow.run_error_detection", "transduct.workflow", "run_error_detection", None),
    ("workflow.compute_metrics", "transduct.workflow", "compute_metrics", None),
]


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, exception name, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.limiter_wait_s = 0.0
        self.backoff_s = 0.0

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def on_virtual_sleep(self, seconds: float) -> None:
        """Split virtual sleep into rate-limiter waits and retry backoff."""
        if self.current() == "backends.RateLimiter.acquire":
            self.limiter_wait_s += seconds
        else:
            self.backoff_s += seconds

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span recorded around each call."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count == "rows":
                span[5] = len(result)
            elif count == "lines":
                span[5] = len(args[0].splitlines())
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "transduct" or n.startswith("transduct.")]
        for name, module_name, attr, count in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, count))
                else:
                    wrapped = self.wrap(name, raw, count)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapped = self.wrap(name, fn, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()
