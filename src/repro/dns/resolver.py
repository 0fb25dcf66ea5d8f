"""The recursive DNS resolver — the victim of every attack in the paper.

Implements genuine iterative resolution over the simulated network with
the RFC 5452 defences: random source ports, random TXIDs, bailiwick
filtering, response source validation and in-flight deduplication (anti
birthday attack) always, and 0x20 query-case encoding, the EDNS buffer
size and DNSSEC validation as policy switches, with TCP fallback on
truncation.

The resolver also runs the client-facing service (port 53): that is the
surface through which attackers *trigger* queries and through which
victim applications later consume poisoned records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.clock import TimerHandle
from repro.core.errors import WireFormatError
from repro.core.rng import DeterministicRNG
from repro.dns import names
from repro.dns.cache import DnsCache
from repro.dns.dnssec import DnssecRegistry, validate_rrsets
from repro.dns.message import (
    DnsMessage,
    Question,
    RCODE_NOERROR,
    RCODE_NOTIMP,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
    make_query,
)
from repro.dns.records import (
    QTYPE_ANY,
    ResourceRecord,
    TYPE_A,
    TYPE_CNAME,
    TYPE_NS,
    TYPE_RRSIG,
)
from repro.dns.wire import decode_message, encode_message, well_formed
from repro.netsim.host import Host, UdpSocket
from repro.netsim.packet import TxidSweep, UdpDatagram

DNS_PORT = 53

ResolveCallback = Callable[["ResolutionResult"], None]


@dataclass
class ResolverConfig:
    """Policy knobs; defaults match a typical post-Kaminsky resolver."""

    use_0x20: bool = False
    validates_dnssec: bool = False
    edns_udp_size: int | None = 4096
    any_caching: str = "cache"      # "cache" | "no-cache" | "refuse"
    timeout: float = 2.0
    retries: int = 2                # attempts per nameserver
    max_cname_depth: int = 8
    max_referral_depth: int = 24
    open_to_world: bool = False
    allowed_clients: list[str] = field(default_factory=list)  # prefixes


@dataclass
class ResolverStats:
    """Query/response accounting for one resolver.

    Upstream datagrams that parse but fail an RFC 5452 check are counted
    by the first check they fail: ``rejected_source`` (not from the
    server queried), ``rejected_txid`` (wrong TXID),
    ``rejected_question`` (not a response, or not to the question
    asked) and ``rejected_case`` (the question's 0x20 letter case does
    not echo the query's).  Datagrams that do not parse are dropped
    uncounted.
    """

    client_queries: int = 0
    client_refused: int = 0
    cache_answers: int = 0
    upstream_queries: int = 0
    upstream_timeouts: int = 0
    rejected_source: int = 0
    rejected_txid: int = 0
    rejected_question: int = 0
    rejected_case: int = 0
    dnssec_failures: int = 0
    resolutions: int = 0
    servfails: int = 0

    @property
    def rejected_responses(self) -> int:
        """All rejected upstream responses, whatever the reason."""
        return (self.rejected_source + self.rejected_txid
                + self.rejected_question + self.rejected_case)


@dataclass
class ResolutionResult:
    """Outcome of one recursive resolution."""

    qname: str
    qtype: int
    rcode: int
    records: list[ResourceRecord] = field(default_factory=list)
    from_cache: bool = False
    queries_sent: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        """True when resolution succeeded (possibly with zero records)."""
        return self.rcode == RCODE_NOERROR

    def addresses(self) -> list[str]:
        """All A-record addresses in the result."""
        return [r.data for r in self.records if r.rtype == TYPE_A]


class _Resolution:
    """State machine for one in-flight recursive lookup."""

    def __init__(self, resolver: "RecursiveResolver", qname: str, qtype: int,
                 depth: int = 0):
        self.resolver = resolver
        self.qname = qname
        self.qtype = qtype
        self.depth = depth
        self.callbacks: list[ResolveCallback] = []
        self.servers: list[str] = list(resolver.root_hints)
        self.bailiwick = ""
        self.referrals = 0
        self.attempt = 0
        self.server_index = 0
        self.queries_sent = 0
        self.started_at = resolver.host.now
        self.socket: UdpSocket | None = None
        self.timer: TimerHandle | None = None
        self.sent_name = qname
        self.txid = 0
        self.current_server = ""
        self.finished = False
        resolver.rng.shuffle(self.servers)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._send_query()

    def _send_query(self) -> None:
        resolver = self.resolver
        config = resolver.config
        if self.server_index >= len(self.servers):
            self._finish(RCODE_SERVFAIL, [])
            return
        self.current_server = self.servers[self.server_index]
        self.txid = resolver.rng.pick_txid()
        if config.use_0x20:
            self.sent_name = names.encode_0x20(
                self.qname, resolver.rng.derive(f"0x20-{self.queries_sent}")
            )
        else:
            self.sent_name = names.normalise(self.qname)
        self._open_socket()
        query = make_query(self.sent_name, self.qtype, self.txid,
                           edns_udp_size=config.edns_udp_size,
                           recursion_desired=False)
        assert self.socket is not None
        self.socket.sendto(self.current_server, DNS_PORT,
                           encode_message(query))
        self.queries_sent += 1
        resolver.stats.upstream_queries += 1
        self.timer = resolver.host.network.scheduler.call_later(
            config.timeout, self._on_timeout
        )

    def _open_socket(self) -> None:
        if self.socket is not None and not self.socket.closed:
            # Keep the same socket (and source port) across
            # retransmissions — the behaviour SadDNS depends on.
            self._take(self.socket)
            return
        self._take(self.resolver.host.open_udp(None))

    def _take(self, socket: UdpSocket) -> None:
        """Make ``socket`` this lookup's, for single datagrams and for
        TXID sweeps alike."""
        socket.handler = self._on_datagram
        socket.sweep_handler = self._on_sweep
        self.socket = socket

    def _close_socket(self) -> None:
        if self.socket is not None and not self.socket.closed:
            self.socket.close()
        self.socket = None

    def _cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def _on_timeout(self) -> None:
        if self.finished:
            return
        self.resolver.stats.upstream_timeouts += 1
        self.attempt += 1
        if self.attempt >= self.resolver.config.retries:
            self.attempt = 0
            self.server_index += 1
        self._send_query()

    # -- response handling ---------------------------------------------------

    def _on_datagram(self, datagram: UdpDatagram, src: str, dst: str) -> None:
        if self.finished:
            return
        stats = self.resolver.stats
        payload = datagram.payload
        # Source and TXID are checked on the raw header bytes, so a
        # flood of forged responses is never decoded: a datagram that
        # fails either check only needs to parse to count as rejected.
        if src != self.current_server:
            if well_formed(payload):
                stats.rejected_source += 1
            return
        if len(payload) < 2:
            return
        if (payload[0] << 8) | payload[1] != self.txid:
            if well_formed(payload):
                stats.rejected_txid += 1
            return
        try:
            response = decode_message(payload)
        except WireFormatError:
            return
        question = response.question
        if not response.is_response or question is None \
                or question.qtype != self.qtype:
            stats.rejected_question += 1
            return
        if self.resolver.config.use_0x20:
            if not names.case_matches(self.sent_name, question.name):
                if names.same_name(self.sent_name, question.name):
                    stats.rejected_case += 1
                else:
                    stats.rejected_question += 1
                return
        elif not names.same_name(self.sent_name, question.name):
            stats.rejected_question += 1
            return
        self._cancel_timer()
        if response.truncated:
            self._retry_over_tcp()
            return
        self._close_socket()
        self._process(response)

    def _on_sweep(self, sweep: TxidSweep, index: int, src: str,
                  dst: str) -> int:
        """:meth:`_on_datagram` for ``sweep[index:]``, in bulk.

        The datagrams share everything but the TXID, so the checks that
        reject them on header bytes have one answer for all of them,
        and the TXID check has one datagram that passes, found by
        arithmetic.  The datagrams before it are counted as rejected
        (if the shared tail parses) and that one goes through
        :meth:`_on_datagram`.  Returns the index after the last datagram
        taken: the host asks the socket again for the rest, since the
        accepted datagram may have closed it.
        """
        end = len(sweep)
        if self.finished:
            return end
        stats = self.resolver.stats
        if src != self.current_server:
            if well_formed(b"\x00\x00" + sweep.tail):
                stats.rejected_source += end - index
            return end
        match = self.txid - sweep.txids.start
        stop = match if index <= match < end else end
        if stop > index and well_formed(b"\x00\x00" + sweep.tail):
            stats.rejected_txid += stop - index
        if stop == end:
            return end
        self._on_datagram(sweep[match], src, dst)
        return match + 1

    def _retry_over_tcp(self) -> None:
        resolver = self.resolver
        query = make_query(self.sent_name, self.qtype, self.txid,
                           edns_udp_size=None, recursion_desired=False)

        def on_bytes(data: bytes | None) -> None:
            if self.finished:
                return
            if data is None:
                self._on_timeout()
                return
            try:
                response = decode_message(data)
            except WireFormatError:
                self._on_timeout()
                return
            self._close_socket()
            self._process(response)

        self._close_socket()
        resolver.host.network.stream_request(
            resolver.host, self.current_server, DNS_PORT,
            encode_message(query), on_bytes,
        )
        self.queries_sent += 1
        resolver.stats.upstream_queries += 1

    def _process(self, response: DnsMessage) -> None:
        resolver = self.resolver
        config = resolver.config
        now = resolver.host.now
        if response.rcode == RCODE_NXDOMAIN:
            self._finish(RCODE_NXDOMAIN, [])
            return
        if response.rcode != RCODE_NOERROR:
            # Try the next server before giving up.
            self.server_index += 1
            self._send_query()
            return
        direct = [
            r for r in response.answers
            if names.same_name(r.name, self.qname)
            and (self.qtype == QTYPE_ANY or r.rtype == self.qtype
                 or r.rtype == TYPE_RRSIG)
        ]
        cnames = [
            r for r in response.answers
            if names.same_name(r.name, self.qname) and r.rtype == TYPE_CNAME
        ]
        if config.validates_dnssec and response.answers:
            if not validate_rrsets(response.answers, self.bailiwick,
                                   resolver.dnssec):
                resolver.stats.dnssec_failures += 1
                self.server_index += 1
                self._send_query()
                return
        if direct and (self.qtype == QTYPE_ANY or self.qtype == TYPE_CNAME
                       or any(r.rtype == self.qtype for r in direct)):
            cache_it = not (self.qtype == QTYPE_ANY
                            and config.any_caching != "cache")
            if cache_it:
                resolver.cache.put(response.answers, now,
                                   bailiwick=self.bailiwick,
                                   source=self.current_server)
            self._finish(RCODE_NOERROR,
                         [r for r in direct if r.rtype != TYPE_RRSIG])
            return
        if cnames:
            resolver.cache.put(cnames, now, bailiwick=self.bailiwick,
                               source=self.current_server)
            if self.depth >= config.max_cname_depth:
                self._finish(RCODE_SERVFAIL, [])
                return
            target = str(cnames[0].data)
            chained = [
                r for r in response.answers
                if names.same_name(r.name, target)
                and (r.rtype == self.qtype or self.qtype == QTYPE_ANY)
            ]
            if chained:
                resolver.cache.put(chained, now, bailiwick=self.bailiwick,
                                   source=self.current_server)
                self._finish(RCODE_NOERROR, list(cnames) + chained)
                return
            self._restart_for_cname(target, cnames)
            return
        ns_records = [r for r in response.authority if r.rtype == TYPE_NS]
        if ns_records and not response.authoritative:
            self._follow_referral(response, ns_records)
            return
        # Authoritative NOERROR with no matching answers: NODATA.
        self._finish(RCODE_NOERROR, [])

    def _restart_for_cname(self, target: str,
                           cnames: list[ResourceRecord]) -> None:
        resolver = self.resolver

        def on_target(result: ResolutionResult) -> None:
            records = list(cnames) + list(result.records)
            self._finish(result.rcode, records)

        resolver.resolve(target, self.qtype, on_target, depth=self.depth + 1)

    def _follow_referral(self, response: DnsMessage,
                         ns_records: list[ResourceRecord]) -> None:
        resolver = self.resolver
        config = resolver.config
        now = resolver.host.now
        child = names.normalise(ns_records[0].name)
        if not names.is_subdomain(child, self.bailiwick) \
                or names.normalise(child) == self.bailiwick:
            # Upward or sideways referral: treat as lame, try next server.
            self.server_index += 1
            self._send_query()
            return
        self.referrals += 1
        if self.referrals > config.max_referral_depth:
            self._finish(RCODE_SERVFAIL, [])
            return
        glue = [
            r for r in response.additional
            if r.rtype == TYPE_A and names.is_subdomain(r.name, child)
            and any(names.same_name(r.name, str(ns.data))
                    for ns in ns_records)
        ]
        resolver.cache.put(ns_records, now, bailiwick=self.bailiwick,
                           source=self.current_server)
        if glue:
            resolver.cache.put(glue, now, bailiwick=child,
                               source=self.current_server)
            addresses = [str(r.data) for r in glue]
        else:
            self._resolve_ns_addresses(ns_records, child)
            return
        self.bailiwick = child
        self.servers = addresses
        resolver.rng.shuffle(self.servers)
        self.server_index = 0
        self.attempt = 0
        self._send_query()

    def _resolve_ns_addresses(self, ns_records: list[ResourceRecord],
                              child: str) -> None:
        """Out-of-bailiwick NS without glue: resolve the NS name first."""
        resolver = self.resolver
        target = str(ns_records[0].data)
        if self.depth >= resolver.config.max_cname_depth:
            self._finish(RCODE_SERVFAIL, [])
            return

        def on_ns(result: ResolutionResult) -> None:
            addresses = result.addresses()
            if not addresses:
                self._finish(RCODE_SERVFAIL, [])
                return
            self.bailiwick = child
            self.servers = addresses
            self.server_index = 0
            self.attempt = 0
            self._send_query()

        resolver.resolve(target, TYPE_A, on_ns, depth=self.depth + 1)

    def _finish(self, rcode: int, records: list[ResourceRecord]) -> None:
        if self.finished:
            return
        self.finished = True
        self._cancel_timer()
        self._close_socket()
        resolver = self.resolver
        if rcode == RCODE_SERVFAIL:
            resolver.stats.servfails += 1
        resolver.stats.resolutions += 1
        result = ResolutionResult(
            qname=self.qname, qtype=self.qtype, rcode=rcode,
            records=records, queries_sent=self.queries_sent,
            duration=resolver.host.now - self.started_at,
        )
        resolver._resolution_done(self)
        for callback in self.callbacks:
            callback(result)


class RecursiveResolver:
    """A caching recursive resolver with a client-facing service."""

    def __init__(self, host: Host, root_hints: list[str],
                 config: ResolverConfig | None = None,
                 dnssec: DnssecRegistry | None = None,
                 rng: DeterministicRNG | None = None):
        self.host = host
        self.root_hints = list(root_hints)
        self.config = config if config is not None else ResolverConfig()
        self.dnssec = dnssec if dnssec is not None else DnssecRegistry()
        self.rng = rng if rng is not None else DeterministicRNG(host.name)
        self.cache = DnsCache()
        self.stats = ResolverStats()
        self._inflight: dict[tuple[str, int], _Resolution] = {}
        self.service_socket: UdpSocket = host.open_udp(
            DNS_PORT, self._on_client_query
        )
        host.stream_handlers[DNS_PORT] = self._on_client_stream

    # -- public API ----------------------------------------------------------

    @property
    def address(self) -> str:
        """Client-facing address of the resolver."""
        return self.host.address

    def resolve(self, qname: str, qtype: int, callback: ResolveCallback,
                depth: int = 0) -> None:
        """Resolve (qname, qtype), invoking ``callback`` with the result."""
        now = self.host.now
        cached = self.cache.get(qname, qtype, now)
        if cached is not None:
            direct = [r for r in cached if r.rtype == qtype
                      or qtype == QTYPE_ANY]
            if direct or not any(r.rtype == TYPE_CNAME for r in cached):
                self.stats.cache_answers += 1
                callback(ResolutionResult(
                    qname=qname, qtype=qtype, rcode=RCODE_NOERROR,
                    records=cached, from_cache=True,
                ))
                return
            # Cached CNAME: chase the target.
            target = str(cached[0].data)

            def on_target(result: ResolutionResult) -> None:
                callback(ResolutionResult(
                    qname=qname, qtype=qtype, rcode=result.rcode,
                    records=cached + result.records,
                    queries_sent=result.queries_sent,
                ))

            self.resolve(target, qtype, on_target, depth=depth + 1)
            return
        key = (names.normalise(qname), qtype)
        if key in self._inflight and depth == 0:
            self._inflight[key].callbacks.append(callback)
            return
        task = _Resolution(self, qname, qtype, depth=depth)
        task.callbacks.append(callback)
        if depth == 0:
            self._inflight[key] = task
        task.start()

    def _resolution_done(self, task: _Resolution) -> None:
        key = (names.normalise(task.qname), task.qtype)
        if self._inflight.get(key) is task:
            del self._inflight[key]

    def inflight_count(self) -> int:
        """Number of live recursive lookups (ground truth for tests)."""
        return len(self._inflight)

    # -- client-facing service -------------------------------------------------

    def _client_allowed(self, src: str) -> bool:
        if self.config.open_to_world:
            return True
        from repro.netsim.addresses import ip_in_prefix

        return any(ip_in_prefix(src, prefix)
                   for prefix in self.config.allowed_clients)

    def _on_client_query(self, datagram: UdpDatagram, src: str,
                         dst: str) -> None:
        try:
            query = decode_message(datagram.payload)
        except WireFormatError:
            return
        if query.is_response or query.question is None:
            return
        self.stats.client_queries += 1
        response_to = (src, datagram.sport)

        def send(response: DnsMessage) -> None:
            self.service_socket.sendto(
                response_to[0], response_to[1], encode_message(response)
            )

        if not self._client_allowed(src):
            self.stats.client_refused += 1
            refusal = query.reply_skeleton()
            refusal.rcode = RCODE_REFUSED
            send(refusal)
            return
        question = query.question
        if question.qtype == QTYPE_ANY \
                and self.config.any_caching == "refuse":
            reply = query.reply_skeleton()
            reply.rcode = RCODE_NOTIMP
            send(reply)
            return

        def on_result(result: ResolutionResult) -> None:
            reply = query.reply_skeleton()
            reply.recursion_available = True
            reply.rcode = result.rcode
            reply.answers.extend(result.records)
            send(reply)

        self.resolve_for_client(question, on_result)

    def resolve_for_client(self, question: Question,
                           callback: ResolveCallback) -> None:
        """Resolve on behalf of a client (ANY served from cache if possible)."""
        if question.qtype == QTYPE_ANY:
            cached = self.cache.get_any(question.name, self.host.now)
            if cached:
                self.stats.cache_answers += 1
                callback(ResolutionResult(
                    qname=question.name, qtype=QTYPE_ANY,
                    rcode=RCODE_NOERROR, records=cached, from_cache=True,
                ))
                return
        self.resolve(question.name, question.qtype, callback)

    def _on_client_stream(self, payload: bytes, src: str) -> bytes | None:
        # DNS-over-TCP service for clients; reuse the UDP logic minus
        # the socket plumbing by resolving synchronously-ish.
        try:
            query = decode_message(payload)
        except WireFormatError:
            return None
        if query.question is None or not self._client_allowed(src):
            refusal = query.reply_skeleton()
            refusal.rcode = RCODE_REFUSED
            return encode_message(refusal)
        holder: dict[str, DnsMessage] = {}

        def on_result(result: ResolutionResult) -> None:
            reply = query.reply_skeleton()
            reply.recursion_available = True
            reply.rcode = result.rcode
            reply.answers.extend(result.records)
            holder["reply"] = reply

        self.resolve_for_client(query.question, on_result)
        if "reply" in holder:
            return encode_message(holder["reply"])
        # The lookup is asynchronous; a real TCP client would wait.  The
        # simulation answers SERVFAIL for not-yet-cached stream queries.
        pending = query.reply_skeleton()
        pending.rcode = RCODE_SERVFAIL
        return encode_message(pending)
