"""Web: HTTP fetching and account password recovery (Table 1, Web rows).

Two attack paths:

* plain HTTP fetch — A-record poisoning redirects the client
  ("Hijack: eavesdropping");
* password recovery — the paper's §4.5 account-takeover: poison the MX
  of the account holder's mail domain at the *service provider's*
  resolver, run "forgot password", and the reset token lands on the
  attacker's mail server ("Hijack: account hijack").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_TARGET,
    Table1Row,
    USE_LOCATION,
)
from repro.apps.driver import AppDriver, host_at
from repro.apps.email_ import Email, SmtpServer, SpamPolicy
from repro.apps.tls import TlsAuthority
from repro.attacks.planner import TargetProfile
from repro.core.rng import DeterministicRNG
from repro.dns.stub import StubResolver
from repro.netsim.host import Host

HTTP_PORT = 80
HTTPS_PORT = 443


class HttpServer:
    """A host serving path→content mappings over the stream transport."""

    def __init__(self, host: Host, pages: dict[str, bytes] | None = None,
                 port: int = HTTP_PORT):
        self.host = host
        self.pages = dict(pages or {})
        self.requests: list[tuple[str, str]] = []  # (client, path)
        host.stream_handlers[port] = self._serve

    def publish(self, path: str, content: bytes) -> None:
        """Add or replace a page."""
        self.pages[path] = content

    def _serve(self, payload: bytes, src: str) -> bytes:
        path = payload.decode("utf-8", "replace")
        self.requests.append((src, path))
        content = self.pages.get(path)
        if content is None:
            return b"404 not found"
        return b"200 " + content


class HttpClient(Application):
    """A web client resolving and fetching URLs."""

    row = Table1Row(
        category="Web", protocol="HTTP", use_case="Web sites",
        query_name=QUERY_TARGET, query_known=True, trigger_method="direct",
        record_types=["A"], dns_use=USE_LOCATION,
        impact="Hijack: eavesdropping",
    )

    def __init__(self, host: Host, stub: StubResolver,
                 tls: TlsAuthority | None = None):
        self.host = host
        self.stub = stub
        self.tls = tls
        self.history: list[AppOutcome] = []

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def fetch(self, hostname: str, path: str = "/",
              https: bool = False) -> AppOutcome:
        """Resolve ``hostname`` and fetch ``path`` from it."""
        answer = self.stub.lookup(hostname, "A")
        address = answer.first_address()
        if address is None:
            outcome = AppOutcome(app="http", action="fetch", ok=False,
                                 detail={"error": f"NXDOMAIN {hostname}"})
            self.history.append(outcome)
            return outcome
        if https:
            if self.tls is None or not self.tls.handshake(hostname, address):
                outcome = AppOutcome(
                    app="http", action="fetch", ok=False,
                    used_address=address,
                    detail={"error": "certificate verification failed"},
                )
                self.history.append(outcome)
                return outcome
        network = self.host.network
        assert network is not None
        box: dict[str, bytes | None] = {}
        port = HTTPS_PORT if https else HTTP_PORT
        network.stream_request(self.host, address, port,
                               path.encode("utf-8"),
                               lambda data: box.update(data=data))
        deadline = network.now + 3.0
        while "data" not in box and network.now < deadline:
            if not network.scheduler.run_next():
                break
        data = box.get("data")
        outcome = AppOutcome(
            app="http", action="fetch",
            ok=data is not None and data.startswith(b"200 "),
            used_address=address,
            detail={"body": (data or b"")[4:].decode("utf-8", "replace")},
        )
        self.history.append(outcome)
        return outcome


@dataclass
class Account:
    """A user account at a web service."""

    username: str
    email: str
    password: str


class PasswordRecoveryService(Application):
    """A web service (e.g. an RIR portal) with email password recovery."""

    row = Table1Row(
        category="Web", protocol="SMTP", use_case="Password recovery",
        query_name=QUERY_TARGET, query_known=True, trigger_method="direct",
        record_types=["A", "MX", "TXT"], dns_use=USE_LOCATION,
        impact="Hijack: account hijack",
    )

    def __init__(self, mailer: SmtpServer,
                 rng: DeterministicRNG | None = None):
        self.mailer = mailer
        self.rng = rng if rng is not None else DeterministicRNG("recovery")
        self.accounts: dict[str, Account] = {}
        self.pending_tokens: dict[str, str] = {}

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def register(self, account: Account) -> None:
        """Create an account."""
        self.accounts[account.username] = account

    def request_recovery(self, username: str) -> AppOutcome:
        """Run "forgot password": email a reset token to the account.

        The mail goes wherever the service's resolver says the account
        domain's MX lives — the cross-layer attack surface.
        """
        account = self.accounts.get(username)
        if account is None:
            return AppOutcome(app="recovery", action="request", ok=False,
                              detail={"error": "no such account"})
        token = f"reset-{self.rng.randint(10**8, 10**9 - 1)}"
        self.pending_tokens[username] = token
        mail = Email(
            sender=f"no-reply@{self.mailer.domain}",
            recipient=account.email,
            body=f"Your password reset token: {token}",
        )
        sent = self.mailer.send(mail)
        return AppOutcome(
            app="recovery", action="request", ok=sent.ok,
            used_address=sent.used_address,
            detail={"username": username},
        )

    def redeem(self, username: str, token: str,
               new_password: str) -> AppOutcome:
        """Complete recovery with the emailed token."""
        expected = self.pending_tokens.get(username)
        if expected is None or token != expected:
            return AppOutcome(app="recovery", action="redeem", ok=False,
                              detail={"error": "bad token"})
        self.accounts[username].password = new_password
        del self.pending_tokens[username]
        return AppOutcome(app="recovery", action="redeem", ok=True,
                          detail={"username": username})

    def login(self, username: str, password: str) -> bool:
        """Password check — what the attacker ultimately wants to pass."""
        account = self.accounts.get(username)
        return account is not None and account.password == password


# -- kill-chain drivers --------------------------------------------------------


class HttpDriver(AppDriver):
    """Plain HTTP fetch: a poisoned A record serves the attacker's page."""

    name = "http"
    application = HttpClient

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        HttpServer(host_at(world, ctx["genuine_ip"], "web-origin"),
                   {"/": b"genuine page"})
        HttpServer(host_at(world, malicious_ip, "evil-web"),
                   {"/": b"attacker page"})
        ctx["client"] = HttpClient(ctx["app_host"], ctx["stub"])
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["client"].fetch(ctx["qname"]),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        fetch = outcomes[0]
        return fetch.ok and fetch.used_address == ctx["malicious_ip"] \
            and fetch.detail.get("body") == "attacker page"


class RecoveryDriver(AppDriver):
    """The §4.5 account takeover: poisoned MX route steals the token."""

    name = "recovery"
    application = PasswordRecoveryService

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        bed = ctx["testbed"]
        # Spam filtering is a separate Table 1 row (the spf/dkim
        # drivers); here every hop accepts so the routing is the story.
        accept_all = SpamPolicy(check_spf=False, check_dkim=False,
                                check_dmarc=False)
        portal_mail = SmtpServer(ctx["app_host"], ctx["stub"],
                                 "portal.example", users=[],
                                 policy=accept_all)
        genuine_host = host_at(world, ctx["genuine_ip"], "mail-origin")
        ctx["genuine_mail"] = SmtpServer(
            genuine_host,
            StubResolver(genuine_host, ctx["resolver_ip"],
                         rng=bed.rng.derive("app-stub-genuine")),
            qname, users=["bob"], policy=accept_all)
        evil_host = host_at(world, malicious_ip, "evil-mail")
        ctx["evil_mail"] = SmtpServer(
            evil_host,
            StubResolver(evil_host, ctx["resolver_ip"],
                         rng=bed.rng.derive("app-stub-evil")),
            qname, users=["bob"], policy=accept_all)
        service = PasswordRecoveryService(portal_mail, rng=ctx["app_rng"])
        service.register(Account("bob-account", f"bob@{qname}",
                                 "correct-horse"))
        ctx["service"] = service
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        service = ctx["service"]
        outcomes = [service.request_recovery("bob-account")]
        stolen = ctx["evil_mail"].inboxes.get("bob")
        if stolen:
            token = stolen[-1].body.rsplit(": ", 1)[-1]
            outcomes.append(service.redeem("bob-account", token,
                                           "attacker-pw"))
            outcomes.append(AppOutcome(
                app="recovery", action="login",
                ok=service.login("bob-account", "attacker-pw"),
                detail={"username": "bob-account"},
            ))
        return tuple(outcomes)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        # Takeover means the stolen token redeemed AND the new password
        # logs in — not merely that the recovery mail was misrouted.
        return len(outcomes) == 3 and outcomes[1].ok and outcomes[2].ok


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (
    HttpDriver(), RecoveryDriver())}
