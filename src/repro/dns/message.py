"""DNS message model (header, question, sections, EDNS).

The challenge-response fields the paper's attacks guess or bypass — the
16-bit TXID, the question name's exact case, the EDNS advertised UDP
payload size — are all first-class here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dns.records import ResourceRecord, type_name

RCODE_NOERROR = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_NOTIMP = 4
RCODE_REFUSED = 5

RCODE_NAMES = {
    RCODE_NOERROR: "NOERROR",
    RCODE_FORMERR: "FORMERR",
    RCODE_SERVFAIL: "SERVFAIL",
    RCODE_NXDOMAIN: "NXDOMAIN",
    RCODE_NOTIMP: "NOTIMP",
    RCODE_REFUSED: "REFUSED",
}


@dataclass(frozen=True)
class Question:
    """The question section entry: name (case preserved!) and qtype."""

    name: str
    qtype: int

    @property
    def qtype_name(self) -> str:
        """Presentation name of the qtype."""
        return type_name(self.qtype)


@dataclass
class DnsMessage:
    """A DNS query or response.

    ``edns_udp_size`` of ``None`` means no OPT record is attached; a
    value advertises the sender's reassembly buffer per EDNS0, which is
    the resolver-side half of the Figure 4 measurement.
    """

    txid: int = 0
    is_response: bool = False
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    rcode: int = RCODE_NOERROR
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)
    edns_udp_size: int | None = None
    dnssec_ok: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.txid <= 0xFFFF:
            raise ValueError(f"TXID out of range: {self.txid}")

    @property
    def question(self) -> Question | None:
        """First (usually only) question."""
        return self.questions[0] if self.questions else None

    @property
    def rcode_name(self) -> str:
        """Presentation name of the rcode."""
        return RCODE_NAMES.get(self.rcode, f"RCODE{self.rcode}")

    def reply_skeleton(self) -> "DnsMessage":
        """A response template echoing txid and question (case included)."""
        return DnsMessage(
            txid=self.txid,
            is_response=True,
            recursion_desired=self.recursion_desired,
            questions=list(self.questions),
            edns_udp_size=self.edns_udp_size,
            dnssec_ok=self.dnssec_ok,
        )

    def with_txid(self, txid: int) -> "DnsMessage":
        """Copy of this message with a different TXID (attacker helper)."""
        return replace(self, txid=txid,
                       questions=list(self.questions),
                       answers=list(self.answers),
                       authority=list(self.authority),
                       additional=list(self.additional))

    def describe(self) -> str:
        """One-line summary for traces."""
        kind = "resp" if self.is_response else "query"
        q = self.question
        qtext = f"{q.name}/{q.qtype_name}" if q else "<no question>"
        extra = f" rcode={self.rcode_name}" if self.is_response else ""
        return (f"{kind} txid={self.txid:#06x} {qtext}{extra}"
                f" ans={len(self.answers)} auth={len(self.authority)}"
                f" add={len(self.additional)}")


def make_query(name: str, qtype: int, txid: int,
               edns_udp_size: int | None = 4096,
               recursion_desired: bool = True) -> DnsMessage:
    """Build a standard query message."""
    return DnsMessage(
        txid=txid,
        is_response=False,
        recursion_desired=recursion_desired,
        questions=[Question(name=name, qtype=qtype)],
        edns_udp_size=edns_udp_size,
    )
