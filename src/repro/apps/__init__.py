"""The nine application categories attacked in the paper (Table 1).

Each application's kill-chain driver (see :mod:`repro.apps.driver`)
lives in its application module; ``resolve_driver`` imports the one
module a scenario's :class:`AppSpec` names.
"""

from repro import _lazy_exports

#: The public names, each imported on first use from the module named
#: here, so a campaign loads only the application modules it runs.
_EXPORTS = {
    "ALL_APPLICATIONS": "repro.apps.table1",
    "Account": "repro.apps.web",
    "AliasProvider": "repro.apps.middlebox",
    "AppDriver": "repro.apps.driver",
    "AppOutcome": "repro.apps.base",
    "AppSpec": "repro.apps.driver",
    "AppStageResult": "repro.apps.driver",
    "AppTrigger": "repro.apps.driver",
    "Application": "repro.apps.base",
    "BitcoinNode": "repro.apps.bitcoin",
    "BitcoinPeer": "repro.apps.bitcoin",
    "CdnEdge": "repro.apps.middlebox",
    "Certificate": "repro.apps.tls",
    "CertificateAuthority": "repro.apps.pki",
    "ChainTip": "repro.apps.bitcoin",
    "DkimApplication": "repro.apps.email_",
    "Email": "repro.apps.email_",
    "Firewall": "repro.apps.middlebox",
    "HttpClient": "repro.apps.web",
    "HttpServer": "repro.apps.web",
    "IkeApplication": "repro.apps.vpn",
    "LoadBalancer": "repro.apps.middlebox",
    "MiddleboxProfile": "repro.apps.middlebox",
    "NtpClient": "repro.apps.ntp",
    "NtpServer": "repro.apps.ntp",
    "OcspClient": "repro.apps.pki",
    "OcspResponder": "repro.apps.pki",
    "OpenVpnClient": "repro.apps.vpn",
    "OpportunisticIpsecPeer": "repro.apps.vpn",
    "PasswordRecoveryService": "repro.apps.web",
    "Proxy": "repro.apps.middlebox",
    "QUERY_CONFIG": "repro.apps.base",
    "QUERY_KNOWN": "repro.apps.base",
    "QUERY_TARGET": "repro.apps.base",
    "RadiusServer": "repro.apps.radius",
    "ResolvingMiddlebox": "repro.apps.middlebox",
    "RpkiApplication": "repro.apps.pki",
    "SmtpServer": "repro.apps.email_",
    "SpamPolicy": "repro.apps.email_",
    "SpfApplication": "repro.apps.email_",
    "TABLE2_PROFILES": "repro.apps.middlebox",
    "Table1Row": "repro.apps.base",
    "TlsAuthority": "repro.apps.tls",
    "USE_AUTHORISATION": "repro.apps.base",
    "USE_FEDERATION": "repro.apps.base",
    "USE_LOCATION": "repro.apps.base",
    "VpnGateway": "repro.apps.vpn",
    "XmppMailbox": "repro.apps.xmpp",
    "XmppMessage": "repro.apps.xmpp",
    "XmppServer": "repro.apps.xmpp",
    "available_apps": "repro.apps.driver",
    "driver_for": "repro.apps.driver",
    "impact_class": "repro.apps.driver",
    "resolve_driver": "repro.apps.driver",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
