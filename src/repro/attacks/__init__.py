"""The three off-path DNS cache poisoning methodologies (paper Section 3).

* :class:`HijackDnsAttack` — intercept queries via BGP prefix hijack.
* :class:`SadDnsAttack` — infer the source port via the global ICMP rate
  limit side channel, then brute-force the TXID.
* :class:`FragDnsAttack` — plant spoofed second fragments in the IP
  defragmentation cache.

Plus the query-triggering strategies of Section 4.3 and the Table 1
applicability planner.
"""

from repro.attacks.base import (
    AttackResult,
    OffPathAttacker,
    cache_poisoned,
)
from repro.attacks.fragdns import FragDnsAttack, FragDnsConfig
from repro.attacks.hijackdns import HijackDnsAttack, HijackDnsConfig
from repro.attacks.planner import (
    ApplicabilityVerdict,
    AttackPlanner,
    MethodChoice,
    TargetProfile,
)
from repro.attacks.saddns import SadDnsAttack, SadDnsConfig
from repro.attacks.trigger import (
    CallableTrigger,
    OpenResolverTrigger,
    QueryTrigger,
    SpoofedClientTrigger,
)

__all__ = [
    "ApplicabilityVerdict",
    "AttackPlanner",
    "AttackResult",
    "CallableTrigger",
    "FragDnsAttack",
    "FragDnsConfig",
    "HijackDnsAttack",
    "HijackDnsConfig",
    "MethodChoice",
    "OffPathAttacker",
    "OpenResolverTrigger",
    "QueryTrigger",
    "SadDnsAttack",
    "SadDnsConfig",
    "SpoofedClientTrigger",
    "TargetProfile",
    "cache_poisoned",
]
