"""A per-layer wall-clock timer that wraps the program's functions from outside.

Layers are named after ``repro`` modules (see :data:`LAYERS`).  Installing
the timer replaces every function and method defined in a layer's modules
with a wrapper that pushes the layer on a stack while the function runs;
the wall time between two stack changes is charged to the layer on top,
which gives each layer's *self* time.  Time with an empty stack is the
kernel loop and its event queue (``sim``).

Most entry points are generator functions driven by the kernel, so timing
the call that creates the generator would measure nothing.  A wrapped
generator function instead returns a generator that times each resume
(``send``/``throw``) of the real one.  Functions are patched wherever they
are looked up: on their class, in their module, and in every ``repro``
module that imported them by name.

Spans stay in memory: each user action gets a request id, and the spans of
a bounded sample of request ids are kept for writing out at the end.
Nothing under ``src/`` changes, and the wrappers only observe, so a traced
day's virtual outputs equal an untraced day's.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["LAYERS", "LayerTimer"]

# layer -> the repro modules whose functions belong to it.  Modules not
# listed (the kernel, schedulers, random streams, path helpers) are not
# wrapped: their time counts to whichever layer called them, or to ``sim``
# when the kernel loop runs them directly.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.resources": ("repro.sim.resources", "repro.hosts"),
    "sim.metrics": ("repro.sim.metrics",),
    "net": ("repro.net.topology", "repro.net.link", "repro.net.packet"),
    "rpc": ("repro.rpc.node", "repro.rpc.connection", "repro.rpc.messages",
            "repro.rpc.costs"),
    "rpc.marshal": ("repro.rpc.marshal",),
    "crypto": ("repro.crypto.cipher", "repro.crypto.handshake",
               "repro.crypto.keys"),
    "venus": ("repro.venus.venus", "repro.venus.hints"),
    "venus.cache": ("repro.venus.cache",),
    "vice": ("repro.vice.server", "repro.vice.fileserver", "repro.vice.volume",
             "repro.vice.location", "repro.vice.callbacks", "repro.vice.locks",
             "repro.vice.protserver", "repro.vice.costs"),
    "vice.protection": ("repro.vice.protection",),
    "vice.erasure": ("repro.vice.erasure", "repro.vice.replication"),
    "storage": ("repro.storage.disk", "repro.storage.unixfs"),
    "virtue": ("repro.virtue.workstation", "repro.virtue.session",
               "repro.virtue.surrogate", "repro.virtue.namespace"),
    "workload": ("repro.workload.synthetic",),
    "obs": ("repro.obs.live", "repro.obs.registry", "repro.obs.availability",
            "repro.obs.trace"),
    "faults": ("repro.faults.scheduler",),
}

ROOT = "sim"

# Drivers that run the kernel loop itself: wrapping them would charge the
# whole loop to the workload layer.
DRIVERS = frozenset(
    f"repro.workload.synthetic.{name}"
    for name in ("provision_campus", "launch_campus_day", "run_campus_day",
                 "_run_campus_day_single")
)

# The user action: each call opens a new request id.  Spans are kept for
# every SPAN_EVERY-th request id, up to SPAN_LIMIT spans in all.
ACTION = "repro.workload.synthetic.SyntheticUser._one_action"
SPAN_EVERY = 50
SPAN_LIMIT = 4000

# Byte counts taken at the layer boundary: qualified name -> bytes(args, result).
BYTES: Dict[str, Callable[[tuple, Any], int]] = {
    "repro.rpc.marshal.dumps": lambda a, r: len(r),
    "repro.rpc.marshal.loads": lambda a, r: len(a[0]),
    "repro.crypto.cipher.seal": lambda a, r: len(a[2]),
    "repro.crypto.cipher._verify": lambda a, r: len(a[1]),
    "repro.vice.erasure.encode": lambda a, r: len(a[0]),
    "repro.vice.erasure.decode": lambda a, r: len(r),
}


class LayerTimer:
    """Self time, call counts, boundary bytes and sampled spans per layer."""

    def __init__(self, now: Callable[[], float]):
        self.now = now  # virtual clock, for span start/end
        self.clock = time.perf_counter
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.bytes: Dict[str, int] = {}
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[list] = []
        self._last = [self.clock()]
        self._next_request = [0]
        self._next_span = [0]
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- accounting -------------------------------------------------------

    def reset(self) -> None:
        """Zero every accumulator (call with an empty stack, before a run)."""
        self.self_s.clear()
        self.calls.clear()
        self.bytes.clear()
        self.spans.clear()
        self._last[0] = self.clock()

    def finish(self) -> None:
        """Charge the time since the last stack change to the kernel."""
        now = self.clock()
        self.self_s[ROOT] = self.self_s.get(ROOT, 0.0) + now - self._last[0]
        self._last[0] = now

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        stack = self._stack
        last = self._last
        clock = self.clock
        self_s = self.self_s
        calls = self.calls
        nbytes = BYTES.get(key)
        byte_totals = self.bytes
        is_action = key == ACTION
        spans = self.spans
        span_every = SPAN_EVERY
        span_limit = SPAN_LIMIT
        next_request = self._next_request
        next_span = self._next_span
        vnow = self.now

        def charge(now: float) -> None:
            top = stack[-1][0] if stack else ROOT
            self_s[top] = self_s.get(top, 0.0) + now - last[0]
            last[0] = now

        def open_frame() -> list:
            # frame: [layer, request id, span record or None]
            calls[key] = calls.get(key, 0) + 1
            if is_action:
                next_request[0] += 1
                request = next_request[0]
            else:
                request = stack[-1][1] if stack else 0
            span = None
            if (request and request % span_every == 0
                    and len(spans) < span_limit):
                next_span[0] += 1
                parent = stack[-1][2] if stack else None
                span = {"id": next_span[0], "request": request, "layer": layer,
                        "name": key, "parent": parent["id"] if parent else None,
                        "t_start": vnow(), "t_end": None, "wall_s": 0.0}
                spans.append(span)
            return [layer, request, span]

        if inspect.isgeneratorfunction(fn):
            def timed(gen, frame):
                value = None
                error = None
                span = frame[2]
                while True:
                    start = clock()
                    charge(start)
                    stack.append(frame)
                    try:
                        if error is None:
                            item = gen.send(value)
                        else:
                            item = gen.throw(error)
                    except StopIteration as stop:
                        end = clock()
                        charge(end)
                        stack.pop()
                        if span is not None:
                            span["wall_s"] += end - start
                            span["t_end"] = vnow()
                        return stop.value
                    except BaseException:
                        end = clock()
                        charge(end)
                        stack.pop()
                        if span is not None:
                            span["wall_s"] += end - start
                            span["t_end"] = vnow()
                        raise
                    end = clock()
                    charge(end)
                    stack.pop()
                    if span is not None:
                        span["wall_s"] += end - start
                    error = None
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # thrown in by the kernel
                        error = exc
                        value = None

            def wrapper(*args, **kwargs):
                frame = open_frame()
                gen = fn(*args, **kwargs)
                outer = timed(gen, frame)
                outer.__name__ = gen.__name__
                return outer
        else:
            def wrapper(*args, **kwargs):
                frame = open_frame()
                start = clock()
                charge(start)
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    charge(end)
                    stack.pop()
                    span = frame[2]
                    if span is not None:
                        span["wall_s"] += end - start
                        span["t_end"] = vnow()
                if nbytes is not None:
                    byte_totals[key] = byte_totals.get(key, 0) + nbytes(args, result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every function and method of every layer's modules."""
        replaced: Dict[int, Callable] = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = importlib.import_module(modname)
                for name, value in list(vars(module).items()):
                    key = f"{modname}.{name}"
                    if key in DRIVERS:
                        continue
                    if inspect.isfunction(value) and value.__module__ == modname:
                        wrapped = self._wrap(value, layer, key)
                        replaced[id(value)] = wrapped
                        self._set(module, name, wrapped)
                    elif (inspect.isclass(value) and value.__module__ == modname
                          and name == value.__name__):
                        self._wrap_class(value, layer, modname)
        # Rebind names other modules imported with ``from m import f``.
        for modname, module in list(sys.modules.items()):
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    self._set(module, name, replaced[id(value)])

    def _wrap_class(self, cls: type, layer: str, modname: str) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("__") and name.endswith("__"):
                continue
            key = f"{modname}.{cls.__name__}.{name}"
            if inspect.isfunction(value):
                self._set(cls, name, self._wrap(value, layer, key))
            elif isinstance(value, staticmethod):
                self._set(cls, name,
                          staticmethod(self._wrap(value.__func__, layer, key)))
            elif isinstance(value, classmethod):
                self._set(cls, name,
                          classmethod(self._wrap(value.__func__, layer, key)))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reading ----------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        """Calls into every wrapped function of ``layer``."""
        return self.calls_under(*(f"{m}." for m in LAYERS[layer]))

    def calls_under(self, *prefixes: str) -> int:
        """Calls into wrapped functions whose names start with a prefix."""
        return sum(n for key, n in self.calls.items() if key.startswith(prefixes))

    def calls_of(self, *keys: str) -> int:
        return sum(self.calls.get(key, 0) for key in keys)

    def bytes_of(self, *keys: str) -> int:
        return sum(self.bytes.get(key, 0) for key in keys)
