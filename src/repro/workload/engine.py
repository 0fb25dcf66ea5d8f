"""The workload engine: a query trace driving a testbed's resolver.

:class:`WorkloadEngine` turns a compiled :class:`QueryTrace` into
scheduler events on the world's virtual clock: per-arrival it attaches
an ephemeral UDP socket on the querying client's host, sends a real DNS
query to the resolver's client service, and records what the client
experienced (latency, timeout, a poisoned answer).  Because arrivals
share the attack's scheduler, benign load and attack traffic interleave
exactly as they would on a busy resolver — cache churn opens and closes
the poisoning window while the attack races it.

Lifecycle (driven by :class:`repro.scenario.spec.BuiltScenario`):

* :meth:`install` — add the background-name zones to the testbed, apply
  the victim-TTL override, attach the client hosts;
* :meth:`begin` — schedule every arrival, then run the warmup slice so
  the cache is primed before the attack starts;
* :meth:`finish` — drain the remaining arrivals plus the client-timeout
  tail and finalize the :class:`LoadReport`.

An *empty* trace (``qps=0``, or a replay of an empty log) makes all
three methods complete no-ops: no hosts, no zones, no clock advance, no
RNG draws — so a loaded scenario at qps=0 reproduces the idle-world
attack bit-for-bit, which is the subsystem's key acceptance criterion.
"""

from __future__ import annotations

from repro.core.rng import DeterministicRNG
from repro.dns import names
from repro.dns.message import make_query
from repro.dns.records import TYPE_A, rr_a, type_code
from repro.dns.resolver import DNS_PORT, RecursiveResolver
from repro.dns.wire import encode_message, well_formed
from repro.netsim.packet import UdpDatagram
from repro.obs import OBS
from repro.obs.profile import stage
from repro.testbed import Testbed
from repro.workload.population import WorkloadSpec
from repro.workload.report import CurvePoint, LoadReport
from repro.workload.trace import QueryTrace, TraceQuery, load_or_synthesize

#: Client hosts occupy 30.0.0.(CLIENT_IP_BASE + i) — inside the victim
#: /24 (so the resolver ACL admits them) and clear of the resolver (.1)
#: and service host (.25).
CLIENT_IP_BASE = 100

#: Resolution of the cache-behaviour curve (time buckets per run).
CURVE_BUCKETS = 8

#: Zone TTL for replayed names that are not in any synthesis catalog.
REPLAY_TTL = 60


class WorkloadEngine:
    """Drives one scenario run's benign query load."""

    def __init__(self, spec: WorkloadSpec, world: dict, victim_qname: str,
                 rng: DeterministicRNG | None = None):
        self.spec = spec
        self.world = world
        self.testbed: Testbed = world["testbed"]
        self.resolver: RecursiveResolver = world["resolver"]
        self.network = self.testbed.network
        self.victim_qname = names.normalise(victim_qname)
        # derive() is stateless, so taking a workload stream never
        # perturbs the world's other RNG consumers.
        self.rng = rng if rng is not None \
            else self.testbed.rng.derive("workload")
        self.trace: QueryTrace = load_or_synthesize(
            spec, self.rng, self.victim_qname)
        self.report = LoadReport(label=spec.label)
        self.active = bool(self.trace)
        self.origin = 0.0
        self.finished = False
        self._installed = False
        self._clients: dict[int, object] = {}
        # Encoded query bytes after the TXID word, per (qname, qtype).
        self._query_tails: dict[tuple[str, int], bytes] = {}
        self._pending = 0
        # Synthesis stops at spec.horizon (the last arrival lands just
        # short of it); a replayed log defines its own horizon.
        self._span_end = self.trace.horizon if spec.trace_path is not None \
            else max(self.trace.horizon, spec.horizon)
        self._measured_span = self._span_end - spec.warmup
        if self._measured_span <= 0:
            self._measured_span = spec.duration
        self._bucket_width = self._measured_span / CURVE_BUCKETS
        self._bucket_queries = [0] * CURVE_BUCKETS
        self._bucket_hits = [0] * CURVE_BUCKETS
        self._bucket_absent = [0] * CURVE_BUCKETS
        self._expirations_at_begin = 0

    # -- lifecycle -------------------------------------------------------------

    def install(self) -> None:
        """Create client hosts and background zones (idempotent)."""
        if not self.active or self._installed:
            return
        self._installed = True
        self._apply_victim_ttl()
        self._install_background_domains()
        self._clients = {}
        for client in self.trace.clients():
            address = f"30.0.0.{CLIENT_IP_BASE + client}"
            self._clients[client] = self.testbed.make_host(
                f"load-client-{client}", address)

    def begin(self) -> None:
        """Schedule every arrival, then run the cache-priming warmup."""
        if not self.active:
            return
        with stage("workload.begin"):
            self.install()
            scheduler = self.network.scheduler
            self.origin = self.network.now
            self._expirations_at_begin = \
                self.resolver.cache.stats.expirations
            for query in self.trace:
                scheduler.call_later(query.at, self._fire, query)
                self._pending += 1
            if self.spec.warmup > 0:
                self.network.run(self.spec.warmup)

    def finish(self) -> LoadReport:
        """Drain remaining load and finalize the report."""
        if self.finished:
            return self.report
        self.finished = True
        if self.active:
            with stage("workload.drain"):
                tail = self.origin + self._span_end \
                    + self.spec.client_timeout + 0.001
                if self.network.now < tail:
                    self.network.run(tail - self.network.now)
            self.report.duration = self._measured_span
            self.report.cache_expirations = (
                self.resolver.cache.stats.expirations
                - self._expirations_at_begin)
            self.report.curve = [
                CurvePoint(
                    start=index * self._bucket_width,
                    queries=self._bucket_queries[index],
                    cache_hits=self._bucket_hits[index],
                    window_absent=self._bucket_absent[index],
                )
                for index in range(CURVE_BUCKETS)
            ]
            if OBS.enabled:
                # Mirror the finished report's aggregates only — the
                # per-arrival hot path records nothing, so a loaded run
                # costs the same with the plane on.
                report = self.report
                OBS.counter("workload.offered_total").inc(
                    report.offered)
                OBS.counter("workload.answered_total").inc(
                    report.answered)
                OBS.counter("workload.timeouts_total").inc(
                    report.timeouts)
                OBS.counter("workload.poisoned_answers_total").inc(
                    report.poisoned_answers)
                OBS.counter("workload.cache_hits_total").inc(
                    report.cache_hits)
                OBS.histogram("workload.latency_ms").observe_bins(
                    report.latency_bins)
        return self.report

    # -- world preparation -----------------------------------------------------

    def _apply_victim_ttl(self) -> None:
        """Rewrite the victim name's zone TTL to the spec's override.

        The standard testbed serves the target names with TTL 300 —
        longer than any workload run, so the cache entry would never
        churn and the poisoning window would never reopen.  The
        override puts the victim name on the workload's timescale.
        """
        if self.spec.victim_ttl is None:
            return
        target = self.world.get("target")
        if target is None:
            return
        target.zone.set_ttl(self.victim_qname, TYPE_A, self.spec.victim_ttl)

    def _install_background_domains(self) -> None:
        """One tiny authoritative domain per background name in the trace.

        Synthesized traces query ``load-NNN.bg`` names from the spec's
        catalog (whose TTLs drive cache churn); replayed logs may name
        anything, so unknown names get a default-TTL zone.  Names the
        testbed already serves (the victim domain above all) are left
        alone.
        """
        catalog_ttl = {
            names.normalise(entry.qname): entry.ttl
            for entry in self.spec.catalog(self.victim_qname)
        }
        existing = set(self.testbed.domains)
        for index, qname in enumerate(self.trace.qnames()):
            qname = names.normalise(qname)
            if qname == self.victim_qname or qname in existing:
                continue
            if any(names.is_subdomain(qname, domain)
                   for domain in existing):
                continue
            ttl = catalog_ttl.get(qname, REPLAY_TTL)
            self.testbed.add_domain(
                qname,
                f"77.{index // 200}.{index % 200 + 1}.53",
                records=[rr_a(qname, f"88.{index // 200}"
                                     f".{index % 200 + 1}.80", ttl=ttl)],
            )
            existing.add(qname)

    # -- per-arrival machinery -------------------------------------------------

    def _fire(self, query: TraceQuery) -> None:
        """One client arrival: send the query, watch for the answer."""
        now = self.network.now
        measured = query.at >= self.spec.warmup
        qtype = type_code(query.qtype)
        if measured:
            self.report.offered += 1
            self._sample_window(query)
            self._predict_cache(query, qtype)
        else:
            self.report.warmup_queries += 1
        host = self._clients[query.client]
        txid = (query.client * 8191 + int(query.at * 1000)) & 0xFFFF
        state = {"done": False}

        def settle() -> None:
            state["done"] = True
            self._pending -= 1
            timer.cancel()
            socket.close()

        def on_answer(datagram: UdpDatagram, src: str, dst: str) -> None:
            if state["done"] or src != self.resolver.address:
                return
            # Only QR and the TXID matter, and a well-formed message
            # has both in its header: no decoded copy is needed.
            payload = datagram.payload
            if not well_formed(payload) or not payload[2] & 0x80 \
                    or (payload[0] << 8 | payload[1]) != txid:
                return
            settle()
            if measured:
                self._record_answer(query, now)

        def on_timeout() -> None:
            if state["done"]:
                return
            settle()
            if measured:
                self.report.timeouts += 1

        socket = host.open_udp(None, on_answer)
        timer = self.network.scheduler.call_later(
            self.spec.client_timeout, on_timeout)
        # A name's query differs only in its TXID from one arrival to
        # the next: encode it once and splice each TXID in front.
        tail = self._query_tails.get((query.qname, qtype))
        if tail is None:
            tail = encode_message(make_query(query.qname, qtype, 0))[2:]
            self._query_tails[query.qname, qtype] = tail
        socket.sendto(self.resolver.address, DNS_PORT,
                      txid.to_bytes(2, "big") + tail)

    def _bucket(self, query: TraceQuery) -> int:
        offset = query.at - self.spec.warmup
        index = int(offset / self._bucket_width) if self._bucket_width \
            else 0
        return min(max(index, 0), CURVE_BUCKETS - 1)

    def _sample_window(self, query: TraceQuery) -> None:
        """PASTA sample: is the poisoning window open right now?

        Arrivals are Poisson, so the fraction of arrivals that find the
        victim name cache-absent estimates the fraction of wall-clock
        the window is open — no dedicated probe events needed.  Uses
        :meth:`DnsCache.entry` (raw access), so sampling never touches
        the cache's hit/miss accounting.
        """
        now = self.network.now
        entry = self.resolver.cache.entry(self.victim_qname, TYPE_A)
        absent = entry is None or not entry.alive(now)
        self.report.window_samples += 1
        bucket = self._bucket(query)
        self._bucket_queries[bucket] += 1
        if absent:
            self.report.window_absent += 1
            self._bucket_absent[bucket] += 1

    def _predict_cache(self, query: TraceQuery, qtype: int) -> None:
        """Will this arrival be served from cache?  (Checked pre-send.)"""
        entry = self.resolver.cache.entry(query.qname, qtype)
        hit = entry is not None and entry.alive(self.network.now)
        if hit:
            self.report.cache_hits += 1
            self._bucket_hits[self._bucket(query)] += 1
        else:
            self.report.cache_misses += 1
        if names.same_name(query.qname, self.victim_qname):
            self.report.victim_queries += 1

    def _record_answer(self, query: TraceQuery, sent_at: float) -> None:
        self.report.answered += 1
        self.report.record_latency((self.network.now - sent_at) * 1000.0)
        if names.same_name(query.qname, self.victim_qname):
            entry = self.resolver.cache.entry(self.victim_qname, TYPE_A)
            if entry is not None and entry.poisoned \
                    and entry.alive(self.network.now):
                # Ground truth: the benign client just consumed a
                # poisoned record — the kill-chain outcome under load.
                self.report.poisoned_answers += 1
