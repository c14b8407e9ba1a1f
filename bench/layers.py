"""Per-layer host time of a simulation run, measured from outside ``src/``.

Two independent views of where ``run_workload()`` spends host time:

- :class:`LayerTrace` installs shims on the public entry points of every
  layer before the network is built.  Plain calls are timed per call;
  generators are timed per resumption through a proxy generator.  A layer
  stack turns the timings into self time: at every boundary crossing the
  interval since the previous crossing is charged to the layer on top of
  the stack.  The simulation kernel (``sim``) sits at the bottom, so it is
  charged whatever time no other layer's shim covers.
- :class:`FrameSampler` is a stdlib sampling profiler: a CPU-time timer
  signal interrupts the simulation at a fixed interval and charges each
  sample to the layer of the innermost ``repro.*`` frame.

Shims cost host time themselves, and that time lands on whichever layer is
on top of the stack.  While the traced run runs, a CPU-time timer samples
the interrupted frame: a sample inside this module's shim code is overhead
charged to the layer on top of the stack, any other sample is real work of
that layer.  :meth:`LayerTrace.self_seconds` scales each layer's timed self
time by its real fraction, so the two views can be compared share for
share.

The shims change which function objects are called, never what they do,
so a traced run reproduces the untraced run's schedule exactly.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import pkgutil
import signal
import sys
import time
import types
import typing

#: Module prefix -> layer, most specific first.  Other ``repro`` modules
#: (``fabric``, ``obs``, ``analysis``, ...) are off the simulation hot path
#: and their time is charged to the calling layer.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.runtime", "runtime"),
    ("repro.client", "client"),
    ("repro.peer.endorser", "peer.endorser"),
    ("repro.peer.validator", "peer.validator"),
    ("repro.peer.gossip", "peer.gossip"),
    ("repro.peer", "peer.node"),
    ("repro.chaincode", "chaincode"),
    ("repro.msp", "msp"),
    ("repro.common", "common"),
    ("repro.orderer", "orderer"),
    ("repro.ledger", "ledger"),
    ("repro.statedb", "statedb"),
    ("repro.metrics", "metrics"),
)

#: The measured layers, in report order.  ``sim`` must stay first: it is
#: the bottom of the layer stack.
LAYERS: tuple[str, ...] = tuple(layer for _prefix, layer in LAYER_PREFIXES)
SIM = 0

#: Boundary spans kept per traced run; later crossings are only timed.
SPAN_LIMIT = 250_000
#: CPU seconds between ``SIGPROF`` samples, of both views.
SAMPLE_INTERVAL_S = 0.001

#: Kernel entry points called from model code.  The kernel's own internals
#: are not shimmed: ``sim`` is the base of the stack and gets their time.
SIM_ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.resources", "Resource", "request"),
    ("repro.sim.resources", "Resource", "release"),
    ("repro.sim.resources", "Resource", "use"),
    ("repro.sim.resources", "Resource", "acquire"),
    ("repro.sim.resources", "Store", "put"),
    ("repro.sim.resources", "Store", "get"),
    ("repro.sim.network", "Network", "send"),
    ("repro.sim.network", "Network", "receive"),
    ("repro.sim.core", "Simulation", "process"),
    ("repro.sim.core", "Simulation", "timeout"),
    ("repro.sim.core", "Simulation", "event"),
    ("repro.sim.core", "Simulation", "any_of"),
    ("repro.sim.core", "Simulation", "all_of"),
    ("repro.sim.rng", "RngRegistry", "jittered"),
    ("repro.sim.events", "Timeout", "__init__"),
)


def layer_of_module(module: str) -> str | None:
    """The layer a ``repro.*`` module belongs to (``None``: unmeasured)."""
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class LayerTrace:
    """Shim-based per-layer self time, call counts and boundary spans.

    Use as a context manager around building *and* running the network:
    shims must be in place before construction, because nodes bind their
    handlers and processes at build time.  Only :meth:`measure` charges
    time; calls outside it only count.
    """

    def __init__(self) -> None:
        width = len(LAYERS)
        self.self_ns = [0] * width
        #: CPU-time samples of the measured call by the layer on top of the
        #: stack: inside shim code (overhead) or elsewhere (real work).
        self.overhead_samples = [0] * width
        self.real_samples = [0] * width
        #: The first :data:`SPAN_LIMIT` boundary spans of the measured call,
        #: four int64 each: layer, caller layer, start ns, end ns.  Kept in
        #: memory, written by :meth:`write_spans`.
        self.spans = array.array("q")
        self._limit = 4 * SPAN_LIMIT
        self._stack = [SIM]
        self._mark = [0]
        self._counters: list[int] = []
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wall_ns = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def install(self) -> None:
        """Shim every measured layer's public functions and methods."""
        import repro
        from repro.runtime.node import NodeBase
        from repro.sim.core import Process

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if layer_of_module(info.name) is not None:
                importlib.import_module(info.name)
        replaced: dict[int, typing.Callable] = {}
        for name in sorted(sys.modules):
            layer_name = layer_of_module(name)
            if layer_name in (None, "sim"):
                continue
            module = sys.modules[name]
            layer = LAYERS.index(typing.cast(str, layer_name))
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(
                        value, "__module__", None) != name:
                    continue
                if inspect.isclass(value):
                    self._shim_class(value, layer)
                elif inspect.isfunction(value):
                    wrapped = self._wrap(value, layer, f"{name}.{attr}")
                    replaced[id(value)] = wrapped
                    self._patch(module, attr, wrapped)
        for name, cls, attr in SIM_ENTRY_POINTS:
            owner = getattr(sys.modules[name], cls)
            self._patch(owner, attr, self._wrap(
                vars(owner)[attr], SIM, f"{name}.{cls}.{attr}"))
        # ``from module import function`` copies: rebind them too.
        for name in [n for n in sys.modules if n.startswith("repro.")]:
            module = sys.modules[name]
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._patch(module, attr, wrapped)
        self._hook_processes(Process)
        self._hook_handlers(NodeBase)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _shim_class(self, cls: type, layer: int) -> None:
        """Public methods, property getters and the constructor."""
        prefix = f"{cls.__module__}.{cls.__qualname__}"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(
                    self._wrap(raw.__func__, layer, name)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(
                    self._wrap(raw.__func__, layer, name)))
            elif isinstance(raw, property) and raw.fget is not None:
                self._patch(cls, attr, property(
                    self._wrap(raw.fget, layer, name), raw.fset, raw.fdel,
                    raw.__doc__))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, layer, name))

    def _hook_processes(self, process_cls: type) -> None:
        """Proxy every process generator, charged to its defining layer.

        The kernel's own start-up of the process (which for an eager spawn
        runs the generator to its first yield) is a ``sim`` call.
        """
        start = self._wrap(vars(process_cls)["__init__"], SIM,
                           f"{process_cls.__module__}.Process.__init__")
        proxy_code = self._proxy.__code__
        layer_cache: dict[str, int] = {}

        def __init__(process, sim, generator, *args, **kwargs):
            if (isinstance(generator, types.GeneratorType)
                    and generator.gi_code is not proxy_code):
                module = generator.gi_frame.f_globals.get("__name__", "")
                layer = layer_cache.get(module)
                if layer is None:
                    name = layer_of_module(module)
                    layer = SIM if name is None else LAYERS.index(name)
                    layer_cache[module] = layer
                if layer != SIM:
                    generator = self._proxy(generator, layer)
            start(process, sim, generator, *args, **kwargs)

        self._patch(process_cls, "__init__", __init__)

    def _hook_handlers(self, node_cls: type) -> None:
        """Message handlers registered through ``NodeBase.on``."""
        original = vars(node_cls)["on"]

        def on(node, msg_type, handler):
            function = getattr(handler, "__func__", handler)
            name = layer_of_module(getattr(function, "__module__", "") or "")
            if name is not None and name != "sim":
                handler = self._wrap(
                    handler, LAYERS.index(name),
                    f"{function.__module__}.{function.__qualname__}")
            return original(node, msg_type, handler)

        self._patch(node_cls, "on", on)

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------

    def _counter(self, name: str) -> int:
        self._names.append(name)
        self._counters.append(0)
        return len(self._counters) - 1

    def _wrap(self, function: typing.Callable, layer: int,
              name: str) -> typing.Callable:
        index = self._counter(name)
        counters = self._counters
        if inspect.isgeneratorfunction(getattr(function, "__func__",
                                               function)):
            proxy = self._proxy

            def generator_shim(*args, **kwargs):
                counters[index] += 1
                return proxy(function(*args, **kwargs), layer)

            return functools.wraps(function)(generator_shim)

        stack, mark, self_ns = self._stack, self._mark, self.self_ns
        spans, limit, clock = self.spans, self._limit, time.perf_counter_ns

        def shim(*args, **kwargs):
            counters[index] += 1
            top = stack[-1]
            if top == layer:
                return function(*args, **kwargs)
            start = clock()
            self_ns[top] += start - mark[0]
            mark[0] = start
            stack.append(layer)
            try:
                return function(*args, **kwargs)
            finally:
                now = clock()
                self_ns[layer] += now - mark[0]
                mark[0] = now
                stack.pop()
                if len(spans) < limit:
                    spans.extend((layer, top, start, now))

        return functools.wraps(function)(shim)

    def _proxy(self, generator, layer: int):
        """Forward ``generator``, timing each resumption as ``layer``."""
        stack, mark, self_ns = self._stack, self._mark, self.self_ns
        spans, limit, clock = self.spans, self._limit, time.perf_counter_ns
        send, throw = generator.send, generator.throw
        value: typing.Any = None
        error: BaseException | None = None
        while True:
            top = stack[-1]
            if top == layer:
                try:
                    target = send(value) if error is None else throw(error)
                except StopIteration as stop:
                    return stop.value
            else:
                start = clock()
                self_ns[top] += start - mark[0]
                mark[0] = start
                stack.append(layer)
                try:
                    target = send(value) if error is None else throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    now = clock()
                    self_ns[layer] += now - mark[0]
                    mark[0] = now
                    stack.pop()
                    if len(spans) < limit:
                        spans.extend((layer, top, start, now))
            try:
                value = yield target
                error = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value, error = None, exc

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(self, function: typing.Callable[[], typing.Any]) -> typing.Any:
        """Run ``function`` with time charging and overhead sampling on;
        returns its result."""
        for counts in (self.self_ns, self.overhead_samples,
                       self.real_samples):
            counts[:] = [0] * len(counts)
        del self.spans[:]
        self._stack[:] = [SIM]
        with _CpuTimer(self._sample):
            start = time.perf_counter_ns()
            self._mark[0] = start
            try:
                return function()
            finally:
                end = time.perf_counter_ns()
                self.self_ns[self._stack[-1]] += end - self._mark[0]
                self._wall_ns = end - start

    def _sample(self, _signum: int, frame: types.FrameType | None) -> None:
        top = self._stack[-1]
        if frame is not None and frame.f_code.co_filename == __file__:
            self.overhead_samples[top] += 1
        else:
            self.real_samples[top] += 1

    @property
    def wall_s(self) -> float:
        """Host seconds of the last :meth:`measure` call, shims included."""
        return self._wall_ns / 1e9

    def self_seconds(self, net: bool = True) -> dict[str, float]:
        """Timed self time per layer; with ``net``, less the share of it
        the samples found inside shim code."""
        seconds = {}
        for index, name in enumerate(LAYERS):
            charged = self.self_ns[index] / 1e9
            sampled = (self.real_samples[index]
                       + self.overhead_samples[index])
            if net and sampled:
                charged *= self.real_samples[index] / sampled
            seconds[name] = charged
        return seconds

    def call_counts(self) -> dict[str, int]:
        """Calls per shimmed function (summed over duplicate shims)."""
        totals: dict[str, int] = {}
        for name, count in zip(self._names, self._counters):
            totals[name] = totals.get(name, 0) + count
        return totals

    def write_spans(self, path: str) -> None:
        """Write the boundary spans: a header line, then raw int64 rows."""
        with open(path, "wb") as handle:
            handle.write((",".join(LAYERS) + "\n").encode())
            self.spans.tofile(handle)


class _CpuTimer:
    """Calls ``handler(signum, frame)`` every :data:`SAMPLE_INTERVAL_S` of
    CPU time."""

    def __init__(self, handler: typing.Callable) -> None:
        self.handler = handler
        self._previous: typing.Any = None

    def __enter__(self) -> "_CpuTimer":
        self._previous = signal.signal(signal.SIGPROF, self.handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


class FrameSampler:
    """Statistical profile of the main thread by layer.

    ``SIGPROF`` fires every :data:`SAMPLE_INTERVAL_S` of CPU time; the
    handler, which Python runs in the main thread, walks the interrupted
    stack to the innermost ``repro.*`` frame of a measured layer.  A
    sampling thread reading ``sys._current_frames()`` would only get the
    GIL when the simulation drops it, which it does mostly inside the
    hashing of signatures, so its samples land there far too often.
    """

    def __init__(self) -> None:
        self.counts = dict.fromkeys(LAYERS, 0)
        self._layer_cache: dict[str, str | None] = {}
        self._timer = _CpuTimer(self._sample)

    def __enter__(self) -> "FrameSampler":
        self._timer.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.__exit__(*exc_info)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> dict[str, float]:
        total = self.samples
        return {layer: (count / total if total else 0.0)
                for layer, count in self.counts.items()}

    def _layer(self, module: str) -> str | None:
        try:
            return self._layer_cache[module]
        except KeyError:
            layer = layer_of_module(module)
            self._layer_cache[module] = layer
            return layer

    def _sample(self, _signum: int, frame: types.FrameType | None) -> None:
        layer = "sim"
        while frame is not None:
            found = self._layer(frame.f_globals.get("__name__", ""))
            if found is not None:
                layer = found
                break
            frame = frame.f_back
        self.counts[layer] += 1
