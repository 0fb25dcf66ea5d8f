"""Gao-Rexford route propagation and selection.

Routes propagate under the standard export policy — routes learned from
customers are exported to everyone; routes learned from peers or
providers are exported only to customers — and each AS selects by local
preference (customer > peer > provider), then shortest AS-path, then a
deterministic tie-break.  This is the same class of simulator the paper
uses for its same-prefix hijack evaluation ([39], Section 5.1.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.bgp.prefix import Prefix, PrefixTable
from repro.bgp.topology import AsTopology, Relationship

# Route classes ordered by preference (lower is better).
_PREF = {
    Relationship.CUSTOMER: 0,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 2,
}
_ORIGIN_PREF = -1  # the origin's own route beats everything


@dataclass(frozen=True)
class Route:
    """A selected route at some AS toward an announced prefix."""

    origin: int
    learned_via: Relationship | None  # None when self-originated
    path_length: int                  # AS hops to the origin
    next_hop: int                     # neighbour toward the origin

    @property
    def preference(self) -> int:
        """Gao-Rexford class preference (lower wins)."""
        if self.learned_via is None:
            return _ORIGIN_PREF
        return _PREF[self.learned_via]

    def better_than(self, other: "Route | None") -> bool:
        """Standard decision process against another candidate."""
        if other is None:
            return True
        if self.preference != other.preference:
            return self.preference < other.preference
        if self.path_length != other.path_length:
            return self.path_length < other.path_length
        return (self.origin, self.next_hop) < (other.origin, other.next_hop)


def propagate(topology: AsTopology, origin: int) -> dict[int, Route]:
    """Routes every AS selects for a prefix originated at ``origin``.

    Classic three-phase computation:

    1. customer routes climb provider links from the origin;
    2. peer routes cross one peering link from any customer-routed AS;
    3. provider routes descend customer links from any routed AS.
    """
    routes: dict[int, Route] = {
        origin: Route(origin=origin, learned_via=None, path_length=0,
                      next_hop=origin)
    }
    # Phase 1: customer routes (traffic flows down, announcements flow up).
    queue: deque[int] = deque([origin])
    while queue:
        current = queue.popleft()
        current_route = routes[current]
        if current_route.learned_via not in (None, Relationship.CUSTOMER):
            continue
        for provider in topology.get(current).providers:
            candidate = Route(
                origin=origin, learned_via=Relationship.CUSTOMER,
                path_length=current_route.path_length + 1, next_hop=current,
            )
            existing = routes.get(provider)
            if candidate.better_than(existing):
                routes[provider] = candidate
                queue.append(provider)
    # Phase 2: peer routes (single lateral hop from customer-routed ASes).
    customer_routed = [
        asn for asn, route in routes.items()
        if route.learned_via in (None, Relationship.CUSTOMER)
    ]
    for asn in customer_routed:
        base = routes[asn]
        for peer in topology.get(asn).peers:
            candidate = Route(
                origin=origin, learned_via=Relationship.PEER,
                path_length=base.path_length + 1, next_hop=asn,
            )
            if candidate.better_than(routes.get(peer)):
                routes[peer] = candidate
    # Phase 3: provider routes descend customer links from every routed AS.
    queue = deque(sorted(routes, key=lambda a: routes[a].path_length))
    while queue:
        current = queue.popleft()
        base = routes[current]
        for customer in topology.get(current).customers:
            candidate = Route(
                origin=origin, learned_via=Relationship.PROVIDER,
                path_length=base.path_length + 1, next_hop=current,
            )
            if candidate.better_than(routes.get(customer)):
                routes[customer] = candidate
                queue.append(customer)
    return routes


@dataclass
class Announcement:
    """A prefix announcement by an origin AS."""

    prefix: Prefix
    origin: int


class BgpSimulation:
    """Announcement store + per-AS best-route resolution.

    Multiple origins may announce the same prefix (that *is* a same-prefix
    hijack); :meth:`best_origin` answers which origin a given source AS
    routes toward, and :meth:`forwarding_origin` adds longest-prefix-match
    across different prefixes (sub-prefix hijacks win here).
    """

    def __init__(self, topology: AsTopology):
        self.topology = topology
        self._announcements: list[Announcement] = []
        self._routes_cache: dict[int, dict[int, Route]] = {}
        self._filters: dict[int, object] = {}  # asn -> ROV filter callable

    def announce(self, prefix: Prefix | str, origin: int) -> Announcement:
        """Announce ``prefix`` from ``origin``."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        announcement = Announcement(prefix=prefix, origin=origin)
        self._announcements.append(announcement)
        return announcement

    def withdraw(self, prefix: Prefix | str, origin: int) -> None:
        """Withdraw a previous announcement."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self._announcements = [
            a for a in self._announcements
            if not (a.prefix == prefix and a.origin == origin)
        ]

    def set_rov_filter(self, asn: int, validator) -> None:
        """Install route-origin validation at ``asn``.

        ``validator(prefix, origin)`` must return one of the strings
        'valid', 'invalid', 'unknown'; announcements validating to
        'invalid' are ignored by this AS.  This is the enforcement the
        RPKI downgrade attack switches off.
        """
        self._filters[asn] = validator

    def routes_from(self, origin: int) -> dict[int, Route]:
        """Cached Gao-Rexford propagation from one origin."""
        if origin not in self._routes_cache:
            self._routes_cache[origin] = propagate(self.topology, origin)
        return self._routes_cache[origin]

    def _acceptable(self, source: int, announcement: Announcement) -> bool:
        validator = self._filters.get(source)
        if validator is None:
            return True
        return validator(announcement.prefix, announcement.origin) != "invalid"

    def best_origin(self, source: int, prefix: Prefix | str) -> int | None:
        """Which origin ``source`` routes to for exactly ``prefix``."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        best: Route | None = None
        for announcement in self._announcements:
            if announcement.prefix != prefix:
                continue
            if not self._acceptable(source, announcement):
                continue
            route = self.routes_from(announcement.origin).get(source)
            if route is not None and route.better_than(best):
                best = route
        return best.origin if best is not None else None

    def forwarding_origin(self, source: int, address: str) -> int | None:
        """Where packets from ``source`` to ``address`` end up (origin AS).

        Longest-prefix match across all announcements first, then the
        route decision process among origins of that most-specific
        prefix.
        """
        table = PrefixTable()
        for announcement in self._announcements:
            if not announcement.prefix.contains_ip(address):
                continue
            if not self._acceptable(source, announcement):
                continue
            route = self.routes_from(announcement.origin).get(source)
            if route is None:
                continue
            existing = table.lookup(address)
            if existing is not None and existing[0] == announcement.prefix:
                previous: Route = existing[1]  # type: ignore[assignment]
                if not route.better_than(previous):
                    continue
            table.insert(announcement.prefix, route)
        match = table.lookup(address)
        if match is None:
            return None
        route = match[1]
        assert isinstance(route, Route)
        return route.origin
