"""In-memory span recorder and the layer wrappers of a traced run.

A span is ``(name, start_ns, end_ns, parent, op, thread, attrs)``.  Spans
are opened only by the wrappers this module installs around the public
calls into each layer (pipeline stages, portfolio dispatch, plans,
sketch, streaming oracle, service), so the library itself is untouched
and an untraced run executes exactly the library code.

Parenting: a span nests under the innermost open span of its own
thread.  A span opened on a thread with nothing open (the service's
event loop, its compute thread) nests under the most recently opened
span still open on any thread, which is what caused it: the loop is
closed, so at most one op is in flight (client waits on the reply, the
server handler waits on the compute).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time

#: Plan names the repository's engines emit; any other name is folded
#: into ``mpc.plan_ms.other`` so the metric set stays fixed.
PLAN_NAMES = (
    "scatter-input",
    "broadcast-level",
    "relabel",
    "contract",
    "engine-canonical",
    "exp-dedup",
    "exp-square",
    "exp-connect",
    "exp-resolve",
    "lt-round",
)


class Tracer:
    """Collects spans and per-op counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.counts: "dict[int, dict[str, float]]" = {}
        self.op_id: "int | None" = None
        self._stacks: "dict[int, list[int]]" = {}
        self._open_spans: "list[int]" = []
        self._lock = threading.Lock()
        self._patches: "list[tuple[object, str, object]]" = []
        self.enabled = False

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, attrs: "dict | None") -> "tuple[int, int]":
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                parent = self._open_spans[-1] if self._open_spans else None
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter_ns(), None, parent, self.op_id, thread, attrs]
            )
            stack.append(index)
            self._open_spans.append(index)
        return index, thread

    def _close(self, index: int, thread: int) -> None:
        end = time.perf_counter_ns()
        with self._lock:
            self.spans[index][2] = end
            self._stacks[thread].pop()
            self._open_spans.remove(index)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        index, thread = self._open(name, attrs or None)
        try:
            yield
        finally:
            self._close(index, thread)

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the named count of the current op."""
        if self.enabled and self.op_id is not None:
            op_counts = self.counts.setdefault(self.op_id, {})
            op_counts[name] = op_counts.get(name, 0) + value

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name: str, *, on_call=None, on_result=None, attrs_of=None):
        """Wrapper factory: a span named ``name`` around each call."""

        def make(original):
            if inspect.iscoroutinefunction(original):

                @functools.wraps(original)
                async def async_wrapper(*args, **kwargs):
                    with self.span(name):
                        return await original(*args, **kwargs)

                return async_wrapper

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                attrs = attrs_of(*args, **kwargs) if attrs_of is not None else {}
                with self.span(name, **attrs):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        return make

    def install(self) -> None:
        """Wrap the public calls into every layer (idempotent)."""
        if self._patches:
            self.enabled = True
            return
        import repro.core.pipeline as pipeline
        import repro.engines.portfolio as portfolio
        import repro.service.client as service_client
        import repro.streaming.connectivity as streaming
        from repro.mpc.engine import MPCEngine
        from repro.service.server import ServiceServer
        from repro.sketch.agm import AGMSketch

        def walk_steps(regular_graph, walk_length, *, batches, batch_half_degree, **_):
            # Independent of how the walks are drawn: every regularized
            # vertex starts batches·half_degree walks of walk_length steps.
            self.count(
                "core.walk_steps",
                regular_graph.n * batches * batch_half_degree * walk_length,
            )

        def pipeline_result(result):
            self.count("mpc.rounds", result.rounds)

        self._patch(pipeline, "regularize", self._timed("core.regularize"))
        self._patch(
            pipeline,
            "randomize_components",
            self._timed("core.randomize", on_call=walk_steps),
        )
        self._patch(
            pipeline, "random_graph_components", self._timed("core.random_graph_cc")
        )
        self._patch(pipeline, "_finalize_against_graph", self._timed("core.verify"))
        # Entered by the service's compute thread (imported at call time);
        # the benchmark's own loops hold the unwrapped function.
        self._patch(
            pipeline,
            "mpc_connected_components",
            self._timed("service.compute", on_result=pipeline_result),
        )

        self._patch(portfolio, "estimate_features", self._timed("engines.features"))

        def record_choice(name):
            self.count(f"engines.chosen.{name}", 1)
            return name

        def wrap_choose(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return record_choice(original(*args, **kwargs))

            return wrapper

        self._patch(portfolio, "choose_engine", wrap_choose)

        tracer = self

        class _Delegate:
            """The engine the portfolio picked, with its run spanned."""

            def __init__(self, engine):
                self._engine = engine

            def run(self, *args, **kwargs):
                with tracer.span("engines.run", engine=self._engine.name):
                    return self._engine.run(*args, **kwargs)

        def wrap_get_engine(original):
            @functools.wraps(original)
            def wrapper(name):
                return _Delegate(original(name))

            return wrapper

        self._patch(portfolio, "get_engine", wrap_get_engine)

        def plan_name(mpc, plan):
            return {"plan": plan.name}

        def count_plan(mpc, plan):
            self.count("mpc.plans", 1)

        self._patch(
            MPCEngine,
            "run_plan",
            self._timed("mpc.plan", on_call=count_plan, attrs_of=plan_name),
        )

        def count_events(sketch, edges, weights=None):
            self.count("sketch.events", len(edges))

        self._patch(
            AGMSketch, "update_edges", self._timed("sketch.update", on_call=count_events)
        )
        self._patch(streaming, "agm_decode_components", self._timed("sketch.decode"))
        self._patch(
            streaming,
            "mpc_connected_components",
            self._timed("streaming.oracle", on_result=pipeline_result),
        )

        self._patch(ServiceServer, "_dispatch", self._timed("service.dispatch"))
        self._patch(service_client, "send_frame", self._timed("service.client_send"))
        self._patch(service_client, "recv_frame", self._timed("service.client_recv"))
        self.enabled = True

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def finished(self) -> "list[dict]":
        """Every span as a dict (``index`` is its position, which
        ``parent`` refers to), in start order."""
        names = ("name", "start_ns", "end_ns", "parent", "op", "thread", "attrs")
        return [dict(zip(names, span), index=i) for i, span in enumerate(self.spans)]


def layer_key(span: dict) -> str:
    """The per-layer metric stem a span's time is reported under."""
    if span["name"] == "mpc.plan":
        plan = (span["attrs"] or {}).get("plan")
        return f"mpc.plan_ms.{plan if plan in PLAN_NAMES else 'other'}"
    return span["name"]


def union_ns(intervals) -> int:
    """Total length of the union of ``(lo, hi)`` intervals."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def child_cover_ns(spans: "list[dict]") -> "dict[int, int]":
    """Span index → the part of its interval its direct children cover.

    A span's self time is its duration minus this.
    """
    children: "dict[int, list[tuple[int, int]]]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start_ns"], span["end_ns"])
            )
    cover = {}
    for index, intervals in children.items():
        lo, hi = spans[index]["start_ns"], spans[index]["end_ns"]
        cover[index] = union_ns(
            (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
        )
    return cover
