"""PKI: domain validation, OCSP, and the RPKI relying party (Table 1).

The paper's strongest claim is that DNS poisoning *bypasses
cryptographic defences*:

* **Domain validation (DV)** — a CA that resolves the target domain
  through a poisoned cache performs its HTTP-01-style challenge against
  the attacker's host and issues a fraudulent — but cryptographically
  genuine — certificate ("Hijack: fraud. certificate").
* **OCSP** — revocation checking soft-fails when the responder's name
  does not resolve to a live responder ("Downgrade: no check").
* **RPKI** — the relying party's repository synchronisation is reached
  by DNS name; see :mod:`repro.bgp.rpki` for the downgrade-to-unknown
  mechanics ("Downgrade: no ROV").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_KNOWN,
    QUERY_TARGET,
    Table1Row,
    USE_AUTHORISATION,
    USE_LOCATION,
)
from repro.apps.driver import AppDriver, host_at
from repro.bgp.hijack import ATTACKER_ASN as HIJACKER_ASN
from repro.apps.tls import Certificate, TlsAuthority
from repro.apps.web import HTTP_PORT
from repro.attacks.planner import TargetProfile
from repro.core.rng import DeterministicRNG
from repro.dns.stub import StubResolver
from repro.netsim.host import Host

OCSP_PORT = 8888


class CertificateAuthority(Application):
    """A CA performing HTTP-01-style domain validation."""

    row = Table1Row(
        category="PKI", protocol="DV", use_case="Domain Validation",
        query_name=QUERY_TARGET, query_known=True,
        trigger_method="authentication", record_types=["A", "MX", "TXT"],
        dns_use=USE_AUTHORISATION, impact="Hijack: fraud. certificate",
    )

    def __init__(self, host: Host, stub: StubResolver, tls: TlsAuthority,
                 name: str = "Model CA",
                 rng: DeterministicRNG | None = None):
        self.host = host
        self.stub = stub
        self.tls = tls
        self.name = name
        self.rng = rng if rng is not None else DeterministicRNG("ca")
        self.issued: list[Certificate] = []
        self.challenges: dict[str, str] = {}

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def begin_order(self, domain: str) -> str:
        """Start an order; returns the token the requester must publish."""
        token = f"acme-{self.rng.randint(10**8, 10**9 - 1)}"
        self.challenges[domain.lower()] = token
        return token

    def validate_and_issue(self, domain: str,
                           requester_address: str) -> AppOutcome:
        """Resolve the domain, fetch the challenge, issue on success.

        The CA trusts its own resolver: if that cache is poisoned, the
        "domain owner" it validates is the attacker, and the resulting
        certificate is genuine in every cryptographic sense.
        """
        domain = domain.lower()
        token = self.challenges.get(domain)
        if token is None:
            return AppOutcome(app="ca", action="issue", ok=False,
                              detail={"error": "no order for domain"})
        answer = self.stub.lookup(domain, "A")
        address = answer.first_address()
        if address is None:
            return AppOutcome(app="ca", action="issue", ok=False,
                              detail={"error": "domain did not resolve"})
        network = self.host.network
        assert network is not None
        box: dict[str, bytes | None] = {}
        network.stream_request(
            self.host, address, HTTP_PORT,
            f"/.well-known/acme-challenge/{token}".encode("ascii"),
            lambda data: box.update(data=data),
        )
        deadline = network.now + 3.0
        while "data" not in box and network.now < deadline:
            if not network.scheduler.run_next():
                break
        data = box.get("data") or b""
        if not data.startswith(b"200 ") or token.encode() not in data:
            return AppOutcome(app="ca", action="issue", ok=False,
                              used_address=address,
                              detail={"error": "challenge mismatch"})
        # Ground truth the CA itself cannot see: the issuance is
        # fraudulent when the name already belonged to someone else —
        # the CA was simply shown the attacker's host by its resolver.
        previous = self.tls.certificate_for(domain)
        fraudulent = (previous is not None
                      and previous.holder_address != requester_address)
        certificate = self.tls.issue(domain, requester_address,
                                     issuer=self.name,
                                     fraudulent=fraudulent)
        self.issued.append(certificate)
        del self.challenges[domain]
        return AppOutcome(
            app="ca", action="issue", ok=True, used_address=address,
            security_degraded=fraudulent,
            detail={"domain": domain, "holder": requester_address,
                    "fraudulent": fraudulent},
        )


class OcspResponder:
    """An OCSP responder knowing which serials are revoked."""

    def __init__(self, host: Host, revoked: set[str] | None = None):
        self.host = host
        self.revoked = set(revoked or ())
        host.stream_handlers[OCSP_PORT] = self._respond

    def _respond(self, payload: bytes, src: str) -> bytes:
        serial = payload.decode("ascii", "replace")
        return b"revoked" if serial in self.revoked else b"good"


class OcspClient(Application):
    """A TLS client checking revocation before trusting a certificate."""

    row = Table1Row(
        category="PKI", protocol="OCSP", use_case="Revocation checking",
        query_name=QUERY_TARGET, query_known=True, trigger_method="direct",
        record_types=["A"], dns_use=USE_LOCATION,
        impact="Downgrade: no check",
    )

    def __init__(self, host: Host, stub: StubResolver,
                 responder_name: str, hard_fail: bool = False):
        self.host = host
        self.stub = stub
        self.responder_name = responder_name
        self.hard_fail = hard_fail

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def check(self, serial: str) -> AppOutcome:
        """Query revocation status; soft-fail accepts when unreachable."""
        answer = self.stub.lookup(self.responder_name, "A")
        address = answer.first_address()
        network = self.host.network
        assert network is not None
        data: bytes | None = None
        if address is not None:
            box: dict[str, bytes | None] = {}
            network.stream_request(self.host, address, OCSP_PORT,
                                   serial.encode("ascii"),
                                   lambda d: box.update(data=d))
            deadline = network.now + 2.0
            while "data" not in box and network.now < deadline:
                if not network.scheduler.run_next():
                    break
            data = box.get("data")
        if data == b"revoked":
            return AppOutcome(app="ocsp", action="check", ok=False,
                              used_address=address,
                              detail={"status": "revoked"})
        if data == b"good":
            return AppOutcome(app="ocsp", action="check", ok=True,
                              used_address=address,
                              detail={"status": "good"})
        # Responder unreachable or nonsense: the infamous soft-fail.
        if self.hard_fail:
            return AppOutcome(app="ocsp", action="check", ok=False,
                              used_address=address,
                              detail={"status": "unreachable (hard-fail)"})
        return AppOutcome(
            app="ocsp", action="check", ok=True, security_degraded=True,
            used_address=address,
            detail={"status": "unreachable, accepted without check"},
        )


class RpkiApplication(Application):
    """Table 1 row object for RPKI repository synchronisation.

    The executable behaviour lives in
    :class:`repro.bgp.rpki.RelyingParty`; this class contributes the
    taxonomy row and planner profile.
    """

    row = Table1Row(
        category="PKI", protocol="RPKI", use_case="Repository sync.",
        query_name=QUERY_KNOWN, query_known=True, trigger_method="waiting",
        record_types=["A"], dns_use=USE_LOCATION,
        impact="Downgrade: no ROV",
    )

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)


# -- kill-chain drivers --------------------------------------------------------


class DvDriver(AppDriver):
    """Domain validation against a poisoned resolver: fraudulent issuance.

    The CA's HTTP-01 challenge lands on the attacker's host, so the
    attacker "proves" control of a domain it never owned and receives a
    certificate that is cryptographically genuine — the paper's
    strongest bypass of a cryptographic defence.
    """

    name = "dv"
    application = CertificateAuthority

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        from repro.apps.web import HttpServer

        ctx = self.base_ctx(world, qname, malicious_ip)
        tls = TlsAuthority()
        # The incumbent certificate: the genuine owner already holds
        # one, which is what makes the re-issuance fraudulent.
        tls.issue(qname, ctx["genuine_ip"])
        HttpServer(host_at(world, ctx["genuine_ip"], "dv-origin"))
        ctx["evil_web"] = HttpServer(
            host_at(world, malicious_ip, "evil-dv"))
        ctx["tls"] = tls
        ctx["ca"] = CertificateAuthority(ctx["app_host"], ctx["stub"],
                                         tls, rng=ctx["app_rng"])
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        ca = ctx["ca"]
        token = ca.begin_order(ctx["qname"])
        # The attacker publishes the challenge on its own host — it
        # requested the certificate and knows the token.
        ctx["evil_web"].publish(
            f"/.well-known/acme-challenge/{token}", token.encode("ascii"))
        return (ca.validate_and_issue(ctx["qname"],
                                      requester_address=ctx["malicious_ip"]),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        issued = outcomes[0]
        return issued.ok and issued.security_degraded \
            and issued.used_address == ctx["malicious_ip"]


class OcspDriver(AppDriver):
    """An unreachable (redirected) responder triggers the soft-fail."""

    name = "ocsp"
    application = OcspClient

    REVOKED_SERIAL = "serial-1337"

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        OcspResponder(host_at(world, ctx["genuine_ip"], "ocsp-origin"),
                      revoked={self.REVOKED_SERIAL})
        ctx["client"] = OcspClient(ctx["app_host"], ctx["stub"],
                                   responder_name=qname)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["client"].check(self.REVOKED_SERIAL),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        check = outcomes[0]
        # The genuine responder would answer "revoked"; the redirect
        # made the check silently pass without running.
        return check.ok and check.security_degraded \
            and check.used_address == ctx["malicious_ip"]


class RpkiDriver(AppDriver):
    """Repository sync fails, ROAs expire, hijacks validate UNKNOWN."""

    name = "rpki"
    application = RpkiApplication

    VICTIM_PREFIX = "30.0.0.0/22"
    VICTIM_ASN = 500
    # The shared testbed adversary AS: ROV verdicts everywhere depend
    # on this one origin story.
    ATTACKER_ASN = HIJACKER_ASN

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        from repro.bgp.rpki import RelyingParty, Roa, RpkiRepository
        from repro.bgp.prefix import Prefix

        ctx = self.base_ctx(world, qname, malicious_ip)
        repository = RpkiRepository(
            host_at(world, ctx["genuine_ip"], "rpki-repo"), qname)
        repository.publish(Roa(prefix=Prefix.parse(self.VICTIM_PREFIX),
                               max_length=23, origin=self.VICTIM_ASN))
        ctx["relying_party"] = RelyingParty(ctx["app_host"], ctx["stub"],
                                            qname)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        relying_party = ctx["relying_party"]
        synced = relying_party.synchronise()
        verdict = relying_party.validate(self.VICTIM_PREFIX,
                                         self.ATTACKER_ASN)
        return (AppOutcome(
            app="rpki", action="sync", ok=synced,
            security_degraded=not synced,
            detail={"hijack_verdict": verdict,
                    "validated_roas": len(relying_party.validated),
                    "error": relying_party.log.last_error},
        ),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        sync = outcomes[0]
        # With the ROA set gone, the attacker's announcement validates
        # UNKNOWN — which route origin validation does not filter.
        return not sync.ok \
            and sync.detail.get("hijack_verdict") == "unknown"


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (
    DvDriver(), OcspDriver(), RpkiDriver())}
