"""Layer attribution for the traced pass: timing shims on public calls.

The benchmark times the calls into each ``repro.<package>`` layer from
its own files; nothing under ``src/`` is instrumented.  A shim records
a span around the call.  A layer's *self* time is its span time minus
the time of the spans nested inside it, so the layers' self times plus
the harness remainder add up to the pass wall time.

Three details keep the split honest:

* Callbacks handed to ``Scheduler.schedule``/``call_at`` (and so
  ``call_later``) and the handlers stored on UDP sockets run inside
  ``netsim``'s delivery loop.  They run in a span of the package of
  ``callback.__module__``; otherwise resolver and nameserver handlers
  would bill to ``netsim``.
* ``decode_message``/``encode_message`` and the other shimmed module
  functions are bound by name in several modules, so the shim rebinds
  every loaded ``repro`` module that holds the original function
  (except, for uncounted functions, the other modules of their own
  package, whose calls never leave the layer).
* Shims cost time, and the layer making the most shimmed calls would
  absorb most of it.  A span measures its own bookkeeping and bills it
  to no layer; the small rest is calibrated (:func:`calibrated`), and
  :meth:`Tracer.discounted` takes it out before scaling the layers to
  the untraced pass's wall time.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


def package_of(module: str) -> str:
    """``repro.dns.wire`` -> ``dns``; anything outside repro -> harness."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "harness"


class Tracer:
    """Span stack with self-time and inclusive-time accounting.

    A frame is ``[layer, key, start, child, nested, below, began,
    lost]``: ``child`` sums the wall time of the spans closed directly
    inside it, ``nested`` counts them and ``below`` counts every span
    inside it at any depth.  ``key`` names a shimmed call (``None`` for
    callbacks); keyed spans also count calls and keep self and inclusive
    time per key.  A call nested inside another call of the same key
    adds no inclusive time, so re-entrant calls are not counted twice.

    The span's own time runs from ``start``, read after :meth:`enter`'s
    bookkeeping, to the first clock read of :meth:`exit`.  Its parent is
    charged from ``began``, read before that bookkeeping, to a clock
    read after :meth:`exit`'s.  The difference is the shim's own cost:
    it is billed to no layer but summed in ``lost`` (per frame for the
    spans below it, and in total).  What the clock reads cannot see is
    small and calibrated: ``inside`` seconds a span, ``outside`` in its
    caller's frame, and ``through`` for a shimmed call that opens no
    span (``passed`` counts those per layer).  :meth:`discounted` takes
    it out, from the counts kept here.
    """

    def __init__(self, inside: float = 0.0, outside: float = 0.0,
                 through: float = 0.0):
        self.inside = inside
        self.outside = outside
        self.through = through
        self.stack: list[list] = []
        self.layer_self: defaultdict[str, float] = defaultdict(float)
        self.opened: Counter = Counter()
        self.nested: Counter = Counter()
        self.passed: Counter = Counter()
        self.key_self: defaultdict[str, float] = defaultdict(float)
        self.key_nested: Counter = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.inclusive_calls: Counter = Counter()
        self.inclusive_below: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.lost = 0.0
        self._depth: Counter = Counter()
        self._layers: dict = {}
        self._runners: dict[str, object] = {}

    def enter(self, layer: str, key: str | None = None) -> None:
        began = _clock()
        if key is not None:
            self.calls[key] += 1
            self._depth[key] += 1
        frame = [layer, key, 0.0, 0.0, 0, 0, began, 0.0]
        self.stack.append(frame)
        frame[2] = _clock()

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = _clock()
        layer, key, start, child, nested, below, began, lost = \
            self.stack.pop()
        elapsed = end - start
        self.layer_self[layer] += elapsed - child
        self.opened[layer] += 1
        self.nested[layer] += nested
        if key is not None:
            self.key_self[key] += elapsed - child
            self.key_nested[key] += nested
            depth = self._depth[key] - 1
            self._depth[key] = depth
            if not depth:
                self.inclusive[key] += elapsed - lost
                self.inclusive_calls[key] += 1
                self.inclusive_below[key] += below
        if not self.stack:
            self.lost += lost
            return elapsed
        parent = self.stack[-1]
        parent[4] += 1
        parent[5] += below + 1
        spent = _clock() - began
        parent[3] += spent
        parent[7] += lost + spent - elapsed
        return elapsed

    @property
    def spans(self) -> int:
        return sum(self.opened.values())

    def discounted(self, traced_wall: float, untraced_wall: float):
        """``(layer self, key self, key inclusive)`` seconds as an
        untraced pass would spend them.

        The calibrated cost of every span and pass-through call is taken
        out first (the measured ``lost`` time is in no layer).  The
        traced pass also runs slower beyond those costs
        (colder caches, more allocation), and that slows all code alike:
        so the net times, with the harness time outside any span, are
        then scaled to sum to ``untraced_wall``.  Scaling the shim cost
        to the measured slowdown instead would over-charge the layers
        that make many short calls, and would carry the run-to-run noise
        of two separate passes into every layer's share.  Inclusive
        times lose only the cost of the spans inside them.
        """
        inside, outside, through = self.inside, self.outside, self.through
        layer = {name: max(0.0, seconds - self.opened[name] * inside
                           - self.nested[name] * outside
                           - self.passed[name] * through)
                 for name, seconds in self.layer_self.items()}
        harness = max(0.0, traced_wall - self.lost
                      - sum(self.layer_self.values()))
        net = sum(layer.values()) + harness
        scale = untraced_wall / net if net > 0 else 0.0
        layer = {name: seconds * scale for name, seconds in layer.items()}
        key = {name: scale * max(0.0, seconds - self.calls[name] * inside
                                 - self.key_nested[name] * outside)
               for name, seconds in self.key_self.items()}
        inclusive = {
            name: scale * max(0.0, seconds
                              - self.inclusive_calls[name] * inside
                              - self.inclusive_below[name]
                              * (inside + outside))
            for name, seconds in self.inclusive.items()}
        return layer, key, inclusive

    def wrap(self, fn, layer: str, key: str | None = None,
             count_only: bool = False):
        """``fn`` inside a span of ``layer`` (and ``key``).

        A call made from inside the same layer opens no span when it is
        unkeyed or ``count_only`` (then it is only counted): it would
        change no layer's self time, only add shim cost.
        """
        enter, leave, stack, calls, passed = \
            self.enter, self.exit, self.stack, self.calls, self.passed

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                if key is None:
                    passed[layer] += 1
                    return fn(*args, **kwargs)
                if count_only:
                    calls[key] += 1
                    passed[layer] += 1
                    return fn(*args, **kwargs)
            enter(layer, key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def layer_of(self, fn) -> str:
        """The package that defined a callable (memoised)."""
        # Bound methods (most callbacks) hit on their function, so the
        # common case is one attribute read and one dict probe.
        target = getattr(fn, "__func__", fn)
        layer = self._layers.get(target)
        if layer is None:
            # Closures made per event are keyed by their shared code
            # object: keying them by identity would keep each alive.
            code = getattr(target, "__code__", None)
            if code is not None and target.__closure__ is not None:
                layer = self._layers.get(code)
                if layer is None:
                    layer = package_of(target.__module__)
                    self._layers[code] = layer
                return layer
            layer = package_of(getattr(getattr(target, "func", target),
                                       "__module__", None) or "")
            if code is not None:
                self._layers[target] = layer
        return layer

    def runner(self, callback):
        """A per-layer trampoline: scheduling ``runner(cb), cb, *args``
        runs ``cb(*args)`` in a span of ``cb``'s package without
        allocating a closure per event."""
        layer = self.layer_of(callback)
        run = self._runners.get(layer)
        if run is None:
            enter, leave = self.enter, self.exit

            def run(callback, *args):
                enter(layer)
                try:
                    callback(*args)
                finally:
                    leave()

            self._runners[layer] = run
        return run


def _scheduling(tracer: Tracer, original):
    """``Scheduler.schedule``/``call_at`` as a ``core`` span whose
    callback runs in its own package's span."""
    enter, leave, runner = tracer.enter, tracer.exit, tracer.runner

    def traced(self, when, callback, *args):
        enter("core")
        try:
            return original(self, when, runner(callback), callback, *args)
        finally:
            leave()

    return traced


def calibrated(calls: int = 20_000, rounds: int = 5) -> Tracer:
    """A tracer that knows its own cost per span.

    Times ``calls`` empty loop turns, direct calls of a no-op, and
    wrapped calls of it inside an outer span: the wrapped span's extra
    self time is the inside cost, the outer span's extra self time the
    outside cost.  The same wrapped calls made from a span of their own
    layer open no span; their extra time is the pass-through cost.  The
    median of ``rounds`` rounds is kept, since a shared host makes any
    one round noisy.  Every span is charged the same.
    """
    def noop():
        return None

    insides, outsides, throughs = [], [], []
    turns = range(calls)
    for _ in range(rounds):
        probe = Tracer()
        wrapped = probe.wrap(noop, "inner")
        started = _clock()
        for _ in turns:
            pass
        loop = _clock() - started
        started = _clock()
        for _ in turns:
            noop()
        direct = _clock() - started
        probe.enter("outer")
        for _ in turns:
            wrapped()
        probe.exit()
        insides.append((probe.layer_self["inner"] - (direct - loop))
                       / calls)
        outsides.append((probe.layer_self["outer"] - loop) / calls)
        probe.enter("inner")
        inner = probe.layer_self["inner"]
        for _ in turns:
            wrapped()
        probe.exit()
        throughs.append((probe.layer_self["inner"] - inner - direct)
                        / calls)
    return Tracer(inside=max(statistics.median(insides), 0.0),
                  outside=max(statistics.median(outsides), 0.0),
                  through=max(statistics.median(throughs), 0.0))


def _patch(undo: list, owner, name: str, value) -> None:
    """Set ``owner.name`` and remember how to put it back."""
    if name in vars(owner):
        undo.append((setattr, owner, name, vars(owner)[name]))
    else:
        undo.append((delattr, owner, name))
    setattr(owner, name, value)


def _rebind(undo: list, original, replacement,
            skip_package: str | None = None) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement``, except in the modules of ``skip_package`` other
    than the one defining it: their calls stay inside the layer, where
    the shim would only pass through at a cost."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        if package_of(module_name) == skip_package \
                and module_name != original.__module__:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _patch(undo, module, attr, replacement)


def install(tracer: Tracer):
    """Install every shim; returns a function that removes them all."""
    from repro.atlas import pipeline
    from repro.atlas.aggregate import ScanAggregate
    from repro.atlas.store import AtlasStore
    from repro.attacks.fragdns import FragDnsAttack
    from repro.attacks.hijackdns import HijackDnsAttack
    from repro.attacks.saddns import SadDnsAttack
    from repro.core.clock import Scheduler
    from repro.core.rng import DeterministicRNG
    from repro.dns import names, wire
    from repro.dns.cache import DnsCache
    from repro.dns.message import make_query
    from repro.dns.records import type_code
    from repro.netsim import wire as netsim_wire
    from repro.netsim.addresses import ip_in_prefix
    from repro.netsim.host import Host, UdpSocket
    from repro.netsim.packet import Ipv4Packet, UdpDatagram
    from repro.parallel import mt
    from repro.parallel.kernel import VectorScanner
    from repro.scenario.spec import AttackScenario, BuiltScenario
    from repro.store.db import RunStore
    from repro.testbed import Testbed
    from repro.workload.engine import WorkloadEngine

    undo: list = []

    def method(owner, name: str, layer: str, key: str | None = None):
        _patch(undo, owner, name,
               tracer.wrap(vars(owner)[name], layer, key))

    def function(original, layer: str, key: str | None = None,
                 count_only: bool = False):
        # Keyed calls are counted and timed wherever they come from.
        _rebind(undo, original,
                tracer.wrap(original, layer, key, count_only),
                skip_package=None if key else layer)

    # core: the event loop and the scheduling calls (every callback runs
    # in a span of the package that defined it), and the RNG's own
    # draws; the random.Random methods they inherit bill to whichever
    # layer draws, as they do in a cProfile fold.
    for name in ("run_next", "run_until", "run_until_idle"):
        method(Scheduler, name, "core")
    for name in ("schedule", "call_at"):
        _patch(undo, Scheduler, name,
               _scheduling(tracer, vars(Scheduler)[name]))
    for name in ("derive", "rederive", "uniform_int", "pick_port",
                 "pick_txid", "chance"):
        method(DeterministicRNG, name, "core")

    # Socket handlers: whatever is stored on a socket (by open_udp or by
    # a resolver re-arming its socket) runs in its own package's span.
    # Hooking the store rather than the read keeps delivery itself free
    # of shim cost.
    def set_attribute(sock, name, value):
        if name == "handler" and value is not None:
            value = tracer.wrap(value, tracer.layer_of(value))
        object.__setattr__(sock, name, value)

    _patch(undo, UdpSocket, "__setattr__", set_attribute)

    # netsim: the packet path and packet construction, as other layers
    # call into them.
    for name in ("open_udp", "send_udp", "send_icmp", "raw_send"):
        method(Host, name, "netsim")
    for name in ("sendto", "close"):
        method(UdpSocket, name, "netsim")
    for cls in (Ipv4Packet, UdpDatagram):
        method(cls, "__post_init__", "netsim")
    for original in (ip_in_prefix, netsim_wire.make_udp_packet,
                     netsim_wire.make_icmp_packet):
        function(original, "netsim")

    # dns: the wire codec, wherever it is bound (calls made inside dns
    # are only counted), and the helpers other layers call directly.
    for name in ("decode_message", "encode_message"):
        function(getattr(wire, name), "dns", f"dns.{name}", count_only=True)
    for original in (make_query, names.same_name, names.is_subdomain,
                     type_code):
        function(original, "dns")
    method(DnsCache, "entry", "dns")

    # testbed: zones the workload engine adds at install time.
    method(Testbed, "add_domain", "testbed")

    # attacks
    for cls in (SadDnsAttack, FragDnsAttack, HijackDnsAttack):
        method(cls, "execute", "attacks")
    method(SadDnsAttack, "flood_txids", "attacks", "attacks.flood_txids")

    # scenario
    method(AttackScenario, "build", "scenario", "scenario.build")
    method(AttackScenario, "make_world", "scenario")
    method(BuiltScenario, "execute", "scenario")

    # workload
    for name in ("install", "begin", "finish"):
        method(WorkloadEngine, name, "workload")

    # store
    method(RunStore, "record", "store", "store.write")
    method(RunStore, "record_many", "store", "store.write")
    method(RunStore, "load_cells", "store", "store.load")

    # atlas
    function(pipeline.scan_dataset, "atlas")
    method(AtlasStore, "append", "atlas", "atlas.store_write")
    method(AtlasStore, "load", "atlas", "atlas.store_load")
    merged = vars(ScanAggregate)["merged"].__func__
    _patch(undo, ScanAggregate, "merged", classmethod(
        tracer.wrap(merged, "atlas", "atlas.merge")))
    method(ScanAggregate, "to_summary", "atlas", "atlas.merge")

    # parallel: the lockstep Mersenne Twister and the vector kernel.
    function(mt.seed_states, "parallel", "parallel.mt")
    words = mt.LockstepMT.words

    def traced_words(self, rows):
        before = self._rows
        tracer.enter("parallel", "parallel.mt")
        try:
            return words(self, rows)
        finally:
            tracer.exit()
            tracer.counts["parallel.mt_words"] += \
                (self._rows - before) * self.batch

    _patch(undo, mt.LockstepMT, "words", traced_words)
    method(VectorScanner, "__init__", "parallel")
    method(VectorScanner, "scan_spans", "parallel", "parallel.scan_spans")

    def remove() -> None:
        while undo:
            action, *target = undo.pop()
            action(*target)

    return remove
