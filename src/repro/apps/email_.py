"""Email: SMTP delivery, bounce triggering, SPF/DKIM/DMARC (Table 1).

Three attack surfaces from the paper live here:

* **SMTP delivery** ("Hijack: eavesdropping") — MX/A poisoning redirects
  outgoing mail to the attacker.
* **Bounce triggering** (§4.3.1) — mail to a non-existent recipient
  makes the server send a Delivery Status Notification, which requires
  resolving the *sender's* (attacker-chosen) domain: the classic
  external query trigger.
* **Anti-spam downgrade** ("Downgrade: spoofing") — SPF, DKIM and DMARC
  consult TXT records; both SPF and DMARC fail *open* when no record is
  found, so deleting/replacing the record via poisoning makes spoofed
  mail pass (§4.5, "secure fallback" discussion in §6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_TARGET,
    Table1Row,
    USE_AUTHORISATION,
    USE_FEDERATION,
)
from repro.apps.driver import AppDriver, host_at
from repro.attacks.planner import TargetProfile
from repro.dns.records import TYPE_MX, TYPE_TXT
from repro.dns.stub import StubResolver
from repro.netsim.host import Host

SMTP_PORT = 25


@dataclass
class Email:
    """One mail message."""

    sender: str
    recipient: str
    body: str
    source_address: str = ""        # connecting SMTP client address
    dkim_domain: str | None = None  # domain that (claims to have) signed
    dkim_key_id: str | None = None  # key the signature verifies against
    is_bounce: bool = False

    @property
    def sender_domain(self) -> str:
        """Domain part of the sender address."""
        return self.sender.rsplit("@", 1)[-1].lower()

    @property
    def recipient_domain(self) -> str:
        """Domain part of the recipient address."""
        return self.recipient.rsplit("@", 1)[-1].lower()


def _encode_mail(mail: Email) -> bytes:
    fields = [mail.sender, mail.recipient, mail.dkim_domain or "",
              mail.dkim_key_id or "", "1" if mail.is_bounce else "0",
              mail.body]
    return "\x00".join(fields).encode("utf-8")


def _decode_mail(payload: bytes, source_address: str) -> Email:
    (sender, recipient, dkim_domain, dkim_key_id, bounce,
     body) = payload.decode("utf-8").split("\x00", 5)
    return Email(sender=sender, recipient=recipient, body=body,
                 source_address=source_address,
                 dkim_domain=dkim_domain or None,
                 dkim_key_id=dkim_key_id or None,
                 is_bounce=bounce == "1")


@dataclass
class SpamPolicy:
    """Which anti-spam checks the receiving server enforces."""

    check_spf: bool = True
    check_dkim: bool = True
    check_dmarc: bool = True
    # RFC 7208: "none" results (no SPF record) do not reject — this
    # fail-open default is exactly what the downgrade attack exploits.
    fail_open_on_missing: bool = True


class SmtpServer(Application):
    """A mail server for one domain: sends, receives, bounces, filters."""

    row = Table1Row(
        category="Email", protocol="SMTP", use_case="Mail",
        query_name=QUERY_TARGET, query_known=True,
        trigger_method="direct/bounce", record_types=["A", "MX"],
        dns_use=USE_FEDERATION, impact="Hijack: eavesdropping",
    )

    def __init__(self, host: Host, stub: StubResolver, domain: str,
                 users: list[str] | None = None,
                 policy: SpamPolicy | None = None,
                 dkim_keys: dict[str, str] | None = None):
        self.host = host
        self.stub = stub
        self.domain = domain.lower()
        self.users = set(users or [])
        self.policy = policy if policy is not None else SpamPolicy()
        # Published DKIM keys of *this* domain (selector -> key id).
        self.dkim_keys = dkim_keys or {}
        self.inboxes: dict[str, list[Email]] = {}
        self.outcomes: list[AppOutcome] = []
        self.bounces_sent = 0
        host.stream_handlers[SMTP_PORT] = self._accept

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    # -- sending ---------------------------------------------------------------

    def resolve_mx(self, domain: str) -> str | None:
        """MX → A resolution of the receiving server for ``domain``."""
        mx = self.stub.lookup(domain, TYPE_MX)
        exchange = None
        best_pref = None
        for record in mx.records:
            if record.rtype == TYPE_MX:
                preference, hostname = record.data
                if best_pref is None or preference < best_pref:
                    best_pref, exchange = preference, hostname
        if exchange is None:
            exchange = domain  # implicit MX (RFC 5321 §5.1)
        answer = self.stub.lookup(exchange, "A")
        return answer.first_address()

    def send(self, mail: Email) -> AppOutcome:
        """Deliver ``mail`` to the recipient domain's mail exchanger."""
        address = self.resolve_mx(mail.recipient_domain)
        if address is None:
            outcome = AppOutcome(
                app="smtp", action="send", ok=False,
                detail={"error": f"no MX for {mail.recipient_domain}"},
            )
            self.outcomes.append(outcome)
            return outcome
        network = self.host.network
        assert network is not None
        box: dict[str, bytes | None] = {}
        mail.source_address = self.host.address
        network.stream_request(self.host, address, SMTP_PORT,
                               _encode_mail(mail),
                               lambda data: box.update(data=data))
        deadline = network.now + 3.0
        while "data" not in box and network.now < deadline:
            if not network.scheduler.run_next():
                break
        accepted = box.get("data") in (b"250 OK", b"250 BOUNCED")
        outcome = AppOutcome(
            app="smtp", action="send", ok=accepted, used_address=address,
            detail={"recipient": mail.recipient,
                    "response": (box.get("data") or b"").decode("utf-8",
                                                                "replace")},
        )
        self.outcomes.append(outcome)
        return outcome

    # -- receiving ----------------------------------------------------------------

    def _accept(self, payload: bytes, src: str) -> bytes:
        mail = _decode_mail(payload, src)
        verdict = self.filter_inbound(mail)
        if not verdict.ok:
            return b"550 rejected"
        user = mail.recipient.rsplit("@", 1)[0]
        if user not in self.users:
            if not mail.is_bounce:
                self._send_bounce(mail)
                return b"250 BOUNCED"
            return b"550 no such user"
        self.inboxes.setdefault(user, []).append(mail)
        return b"250 OK"

    def _send_bounce(self, original: Email) -> None:
        """Delivery Status Notification back to the (alleged) sender.

        Resolving the sender's domain here is the paper's §4.3.1 bounce
        trigger: the sender address — and therefore the queried name —
        is chosen by whoever sent the undeliverable mail.
        """
        self.bounces_sent += 1
        bounce = Email(
            sender=f"mailer-daemon@{self.domain}",
            recipient=original.sender,
            body=f"Undeliverable: no user {original.recipient}",
            is_bounce=True,
        )
        self.send(bounce)

    # -- anti-spam ---------------------------------------------------------------

    def filter_inbound(self, mail: Email) -> AppOutcome:
        """Apply SPF, DKIM and DMARC; record downgrades.

        The security_degraded flag is set when a check was configured
        but could not run because the DNS record was missing — the
        fail-open path the paper's downgrade attack forces.
        """
        degraded = False
        if self.policy.check_spf:
            spf = self._spf_verdict(mail)
            if spf == "fail":
                return AppOutcome(app="smtp", action="filter", ok=False,
                                  detail={"reason": "SPF fail"})
            degraded = degraded or spf == "none"
        if self.policy.check_dkim and mail.dkim_domain:
            dkim = self._dkim_verdict(mail)
            if dkim == "fail":
                return AppOutcome(app="smtp", action="filter", ok=False,
                                  detail={"reason": "DKIM fail"})
            degraded = degraded or dkim == "none"
        if self.policy.check_dmarc:
            dmarc = self._dmarc_policy(mail.sender_domain)
            degraded = degraded or dmarc == "none"
        return AppOutcome(app="smtp", action="filter", ok=True,
                          security_degraded=degraded)

    def _spf_verdict(self, mail: Email) -> str:
        answer = self.stub.lookup(mail.sender_domain, TYPE_TXT)
        spf_records = [
            r.data for r in answer.records
            if r.rtype == TYPE_TXT and str(r.data).startswith("v=spf1")
        ]
        if not spf_records:
            return "none" if self.policy.fail_open_on_missing else "fail"
        record = spf_records[0]
        if "+all" in record:
            return "pass"
        allowed = [
            token[len("ip4:"):] for token in record.split()
            if token.startswith("ip4:")
        ]
        return "pass" if mail.source_address in allowed else "fail"

    def _dkim_verdict(self, mail: Email) -> str:
        answer = self.stub.lookup(
            f"default._domainkey.{mail.dkim_domain}", TYPE_TXT
        )
        keys = [
            str(r.data).removeprefix("k=")
            for r in answer.records if r.rtype == TYPE_TXT
        ]
        if not keys:
            return "none"
        return "pass" if mail.dkim_key_id in keys else "fail"

    def _dmarc_policy(self, domain: str) -> str:
        answer = self.stub.lookup(f"_dmarc.{domain}", TYPE_TXT)
        for record in answer.records:
            if record.rtype == TYPE_TXT and "p=" in str(record.data):
                return str(record.data).split("p=", 1)[1].split(";")[0]
        return "none"


class SpfApplication(Application):
    """Table 1 row object for the SPF/DMARC anti-spam use-case."""

    row = Table1Row(
        category="Email", protocol="SPF,DMARC", use_case="Anti-Spam",
        query_name=QUERY_TARGET, query_known=True,
        trigger_method="authentication", record_types=["TXT"],
        dns_use=USE_AUTHORISATION, impact="Downgrade: spoofing",
    )

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)


class DkimApplication(Application):
    """Table 1 row object for the DKIM integrity use-case."""

    row = Table1Row(
        category="Email", protocol="DKIM", use_case="Integrity Checking",
        query_name=QUERY_TARGET, query_known=True,
        trigger_method="direct/bounce", record_types=["TXT"],
        dns_use=USE_AUTHORISATION, impact="Downgrade: spoofing",
    )

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)


# -- kill-chain drivers --------------------------------------------------------


class SmtpDriver(AppDriver):
    """Outgoing mail follows the poisoned (implicit-)MX route."""

    name = "smtp"
    application = SmtpServer

    def _accept_all(self) -> SpamPolicy:
        return SpamPolicy(check_spf=False, check_dkim=False,
                          check_dmarc=False)

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        bed = ctx["testbed"]
        ctx["sender"] = SmtpServer(ctx["app_host"], ctx["stub"],
                                   "sender.example", users=["alice"],
                                   policy=self._accept_all())
        genuine_host = host_at(world, ctx["genuine_ip"], "mail-origin")
        ctx["genuine_mail"] = SmtpServer(
            genuine_host,
            StubResolver(genuine_host, ctx["resolver_ip"],
                         rng=bed.rng.derive("app-stub-genuine")),
            qname, users=["bob"], policy=self._accept_all())
        evil_host = host_at(world, malicious_ip, "evil-mail")
        ctx["evil_mail"] = SmtpServer(
            evil_host,
            StubResolver(evil_host, ctx["resolver_ip"],
                         rng=bed.rng.derive("app-stub-evil")),
            qname, users=["bob"], policy=self._accept_all())
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        mail = Email(sender="alice@sender.example",
                     recipient=f"bob@{ctx['qname']}",
                     body="confidential contract")
        return (ctx["sender"].send(mail),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        sent = outcomes[0]
        # Interception: the sender believes delivery succeeded, but the
        # mail sits in the attacker's inbox, not the genuine server's.
        return sent.ok and sent.used_address == ctx["malicious_ip"] \
            and bool(ctx["evil_mail"].inboxes.get("bob"))


class SpfDriver(AppDriver):
    """Poisoning away the SPF TXT record forces the fail-open path.

    FragDNS can only rewrite A rdata, so the TXT replacement this
    workload observes is plantable by HijackDNS and SadDNS forgeries
    only.
    """

    name = "spf"
    application = SpfApplication
    methods = ("HijackDNS", "SadDNS")

    def malicious_records(self, qname: str, attacker_ip: str):
        from repro.dns.records import rr_a, rr_txt

        return (rr_a(qname, attacker_ip, ttl=86400),
                rr_txt(qname, "spf-record-replaced-by-attacker", ttl=86400))

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        from repro.dns.records import rr_txt

        ctx = self.base_ctx(world, qname, malicious_ip)
        world["target"].zone.add(
            rr_txt(qname, f"v=spf1 ip4:{ctx['genuine_ip']} -all", ttl=300))
        ctx["receiver"] = SmtpServer(
            ctx["app_host"], ctx["stub"], "corp.example", users=["alice"],
            policy=SpamPolicy(check_spf=True, check_dkim=False,
                              check_dmarc=False))
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        spoofed = Email(sender=f"ceo@{ctx['qname']}",
                        recipient="alice@corp.example",
                        body="please wire the money",
                        source_address=ctx["malicious_ip"])
        return (ctx["receiver"].filter_inbound(spoofed),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        verdict = outcomes[0]
        # The spoofed mail passes because the check could not run — the
        # fail-open downgrade, visible as ok + security_degraded.
        return verdict.ok and verdict.security_degraded


class DkimDriver(AppDriver):
    """Substituting the published DKIM key makes forged signatures pass."""

    name = "dkim"
    application = DkimApplication
    methods = ("HijackDNS", "SadDNS")

    def malicious_records(self, qname: str, attacker_ip: str):
        from repro.dns.records import rr_a, rr_txt

        return (rr_a(qname, attacker_ip, ttl=86400),
                rr_txt(f"default._domainkey.{qname}", "k=attacker-key",
                       ttl=86400))

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        from repro.dns.records import rr_txt

        ctx = self.base_ctx(world, qname, malicious_ip)
        world["target"].zone.add(
            rr_txt(f"default._domainkey.{qname}", "k=genuine-key", ttl=300))
        ctx["receiver"] = SmtpServer(
            ctx["app_host"], ctx["stub"], "corp.example", users=["alice"],
            policy=SpamPolicy(check_spf=False, check_dkim=True,
                              check_dmarc=False))
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        forged = Email(sender=f"newsletter@{ctx['qname']}",
                       recipient="alice@corp.example",
                       body="forged but 'signed'",
                       source_address=ctx["malicious_ip"],
                       dkim_domain=ctx["qname"],
                       dkim_key_id="attacker-key")
        return (ctx["receiver"].filter_inbound(forged),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        # Integrity checking verified the attacker's signature against
        # the attacker's planted key: the forged mail is accepted.
        return outcomes[0].ok


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (
    SmtpDriver(), SpfDriver(), DkimDriver())}
