"""HijackDNS: cache poisoning via BGP prefix hijack (paper Section 3.1).

The attacker announces (a sub-prefix of) the prefix holding the target
domain's nameserver, diverting the victim resolver's query to itself.  It
answers the query with malicious records — trivially valid, because it
*saw* the challenge values — and relays all other diverted traffic to the
genuine destination to stay stealthy.

Effectiveness is what Table 6 reports: hitrate 100%, one triggered query,
two packets (the announcement and the spoofed response).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.base import AttackResult, OffPathAttacker, cache_poisoned
from repro.attacks.trigger import QueryTrigger
from repro.bgp.hijack import ATTACKER_ASN, HijackCampaign
from repro.bgp.prefix import Prefix
from repro.bgp.rpki import INVALID
from repro.dns import names
from repro.dns.records import ResourceRecord, TYPE_A, rr_a
from repro.dns.resolver import RecursiveResolver
from repro.dns.wire import WireFormatError, decode_message
from repro.netsim.network import Network
from repro.netsim.packet import Ipv4Packet, PROTO_UDP

DNS_PORT = 53


@dataclass
class HijackDnsConfig:
    """Tunables for the hijack attack."""

    hijack_duration: float = 5.0  # keep the announcement short-lived
    max_iterations: int = 3
    # The AS the malicious announcement claims to originate from; ROV
    # deployments validate (prefix, origin) pairs against their ROAs.
    attacker_asn: int = ATTACKER_ASN


class HijackDnsAttack:
    """Execute HijackDNS against one resolver/domain pair."""

    method_name = "HijackDNS"

    def __init__(self, attacker: OffPathAttacker, network: Network,
                 resolver: RecursiveResolver, target_domain: str,
                 nameserver_ip: str, malicious_records: list[ResourceRecord],
                 config: HijackDnsConfig | None = None,
                 capture_possible: bool = True,
                 rov_filter=None):
        self.attacker = attacker
        self.network = network
        self.resolver = resolver
        self.target_domain = names.normalise(target_domain)
        self.nameserver_ip = nameserver_ip
        self.malicious_records = list(malicious_records)
        self.config = config if config is not None else HijackDnsConfig()
        # Whether the control-plane hijack actually captures the path
        # between resolver and nameserver.  Sub-prefix hijacks of
        # >/24-announced space capture everyone; same-prefix capture is
        # topology-dependent and decided by the BGP simulation upstream.
        self.capture_possible = capture_possible
        # Deployed route-origin validation (a
        # :class:`repro.defenses.rov.RovFilter` or anything with its
        # ``validate(prefix, origin) -> str`` surface).  The paper's
        # point survives intact: only an *invalid* verdict filters the
        # announcement — ``unknown`` (no covering ROA, or a poisoned
        # relying party with an empty cache) propagates.
        self.rov_filter = rov_filter
        self._campaign: HijackCampaign | None = None
        self._answered = 0

    # -- packet handling while the hijack is live --------------------------------

    def _on_diverted(self, packet: Ipv4Packet) -> None:
        if packet.dst != self.nameserver_ip:
            return
        handled = False
        if packet.proto == PROTO_UDP and packet.udp is not None \
                and packet.udp.dport == DNS_PORT:
            handled = self._try_answer_query(packet)
        if not handled and self._campaign is not None:
            # Stealth: everything that is not the raced DNS query flows on.
            self._campaign.relay(packet)

    def _try_answer_query(self, packet: Ipv4Packet) -> bool:
        assert packet.udp is not None
        try:
            query = decode_message(packet.udp.payload)
        except WireFormatError:
            return False
        question = query.question
        if query.is_response or question is None:
            return False
        if not names.is_subdomain(question.name, self.target_domain):
            return False
        # The intercepted query hands us every challenge value: TXID,
        # source port, exact question case.  Forge and answer.
        response = self.attacker.forge_response(
            question.name, question.qtype, query.txid,
            self._records_for(question.name),
            edns_udp_size=query.edns_udp_size,
        )
        self.attacker.spoof_dns(
            src=self.nameserver_ip, dst=packet.src,
            dport=packet.udp.sport, message=response,
        )
        self._answered += 1
        return True

    def _planted_ip(self, qname: str) -> str:
        """The address the forged answers map ``qname`` to.

        Success must be judged against what the attack actually plants:
        custom malicious records may point somewhere other than the
        attacker's own host.
        """
        for record in self.malicious_records:
            if record.rtype == TYPE_A and names.same_name(record.name,
                                                          qname):
                return record.data
        return self.attacker.address

    def _records_for(self, qname: str) -> list[ResourceRecord]:
        # The attacker authors the entire forged response, so once the
        # raced question is answered it plants every in-domain record it
        # brought along (a replacement TXT, an IPSECKEY, ...) in the
        # same answer — the resolver's bailiwick check accepts them all.
        related = [
            r for r in self.malicious_records
            if names.is_subdomain(r.name, self.target_domain)
        ]
        if any(names.same_name(r.name, qname) for r in related):
            return related
        return [rr_a(qname, self.attacker.address, ttl=86400)]

    # -- execution ----------------------------------------------------------------

    def execute(self, trigger: QueryTrigger,
                qname: str | None = None) -> AttackResult:
        """Run the attack: hijack, trigger, answer, withdraw."""
        qname = qname if qname is not None else self.target_domain
        started = self.network.now
        packets_before = self.attacker.packets_sent
        result = AttackResult(method=self.method_name, success=False)
        if not self.capture_possible:
            result.detail["reason"] = (
                "control-plane hijack does not capture the resolver-to-"
                "nameserver path (prefix filtered or topology unfavourable)"
            )
            return result
        prefix = Prefix.parse(f"{self.nameserver_ip}/24")
        if self.rov_filter is not None:
            state = self.rov_filter.validate(prefix,
                                             self.config.attacker_asn)
            result.detail["rov_state"] = state
            if state == INVALID:
                # RFC 6811 origin validation rejects the announcement
                # before it propagates: the one control-plane packet was
                # sent, but the data-plane capture never happens.
                result.detail["reason"] = (
                    f"ROV: announcement {prefix} from AS"
                    f"{self.config.attacker_asn} validates invalid "
                    "against the published ROAs and is filtered"
                )
                result.packets_sent = 1
                return result
        self._campaign = HijackCampaign(
            self.network, self.attacker.host, prefix,
        )
        self.attacker.host.packet_tap = self._on_diverted
        # The malicious announcement itself is one control-plane packet.
        announcement_packets = 1
        try:
            with self._campaign:
                for iteration in range(self.config.max_iterations):
                    result.iterations = iteration + 1
                    trigger.fire(qname, "A")
                    result.queries_triggered += 1
                    self.network.run(self.config.hijack_duration)
                    if cache_poisoned(self.resolver, qname,
                                      self._planted_ip(qname)):
                        result.success = True
                        break
        finally:
            self.attacker.host.packet_tap = None
        result.packets_sent = (
            self.attacker.packets_sent - packets_before + announcement_packets
        )
        result.duration = self.network.now - started
        result.detail.update({
            "diverted": self._campaign.diverted,
            "relayed": self._campaign.relayed,
            "answered_queries": self._answered,
            "hijack_kind": "sub-prefix",
        })
        return result
