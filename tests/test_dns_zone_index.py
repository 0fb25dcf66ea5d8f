"""The zone index against the linear scans it replaced.

``Zone`` answers lookups from an owner-name index, ``delegation_for``
and ``ZoneSet.zone_for`` walk the qname's suffixes, and
``names.is_subdomain`` is a string-suffix test.  The ``ref_*`` functions
below are the scans over every record (or zone) and the label-list
subdomain test that came before; generated zones with mixed case,
trailing dots, nested delegations and apex NS must get the same
answers from both.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns import names
from repro.dns.message import make_query
from repro.dns.nameserver import AuthoritativeServer
from repro.dns.records import (
    QTYPE_ANY,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_NS,
    TYPE_RRSIG,
    TYPE_SOA,
    TYPE_TXT,
    rr_a,
    rr_cname,
    rr_mx,
    rr_ns,
    rr_rrsig,
    rr_txt,
    rrset_digest,
)
from repro.dns.zones import Zone, ZoneSet
from repro.netsim.host import Host

# -- the linear scans the index replaced -----------------------------------


def ref_is_subdomain(name, ancestor):
    name_l = names.labels_of(names.normalise(name))
    anc_l = names.labels_of(names.normalise(ancestor))
    if len(anc_l) > len(name_l):
        return False
    return name_l[len(name_l) - len(anc_l):] == anc_l


def ref_lookup(zone, qname, qtype, _depth=0):
    wanted = names.normalise(qname)
    matched = [
        r for r in zone.records
        if names.normalise(r.name) == wanted
        and (qtype == QTYPE_ANY or r.rtype == qtype)
        and r.rtype != TYPE_RRSIG
    ]
    if not matched and qtype not in (QTYPE_ANY, TYPE_CNAME) \
            and _depth < 8:
        aliases = [
            r for r in zone.records
            if names.normalise(r.name) == wanted and r.rtype == TYPE_CNAME
        ]
        if aliases:
            target = str(aliases[0].data)
            chain = list(aliases)
            if zone.signed:
                chain.append(rr_rrsig(qname, TYPE_CNAME, zone.origin or ".",
                                      digest=rrset_digest(aliases)))
            if ref_is_subdomain(target, zone.origin):
                chain.extend(ref_lookup(zone, target, qtype, _depth + 1))
            return chain
    if zone.signed and matched:
        matched = matched + [
            rr_rrsig(qname, rtype, zone.origin or ".",
                     digest=rrset_digest(
                         [r for r in matched if r.rtype == rtype]))
            for rtype in sorted({r.rtype for r in matched})
        ]
    return matched


def ref_delegation_for(zone, qname):
    wanted = names.normalise(qname)
    if not ref_is_subdomain(wanted, zone.origin):
        return None
    best = None
    for record in zone.records:
        if record.rtype != TYPE_NS:
            continue
        owner = names.normalise(record.name)
        if owner == zone.origin:
            continue
        if ref_is_subdomain(wanted, owner):
            if best is None or len(owner) > len(best):
                best = owner
    if best is None:
        return None
    return (best, [r for r in zone.records
                   if r.rtype == TYPE_NS
                   and names.normalise(r.name) == best])


def ref_has_name(zone, qname):
    wanted = names.normalise(qname)
    return any(names.normalise(r.name) == wanted for r in zone.records)


def ref_zone_for(zones, qname):
    wanted = names.normalise(qname)
    best = None
    for zone in zones:
        if ref_is_subdomain(wanted, zone.origin):
            if best is None or len(zone.origin) > len(best.origin):
                best = zone
    return best


def ref_sections(zone, qname, qtype):
    """(answers, authority, additional) of the server's old response."""
    delegation = ref_delegation_for(zone, qname)
    if delegation is not None:
        _child, ns_records = delegation
        glue = [r for ns in ns_records for r in zone.records
                if r.rtype == TYPE_A and names.same_name(r.name, str(ns.data))]
        return [], ns_records, glue
    answers = ref_lookup(zone, qname, qtype)
    if answers:
        return answers, [], []
    return [], ref_lookup(zone, zone.origin, TYPE_SOA), []


# -- generated zones --------------------------------------------------------

ORIGINS = ["", "im", "vict.im", "Child.Vict.IM.", "example.com"]
LABELS = ["a", "B", "ns1", "Www", "child", "x"]
OUTSIDE = ["elsewhere.example", "ns.other.net", "evilvict.im", "vict.im.evil"]
QTYPES = [TYPE_A, TYPE_NS, TYPE_CNAME, TYPE_MX, TYPE_TXT, TYPE_SOA,
          TYPE_AAAA, QTYPE_ANY]
SPELLINGS = [str, str.lower, str.upper, str.swapcase,
             lambda name: name + "."]


@st.composite
def names_under(draw, origin, max_labels=3):
    """A name at or below ``origin`` in a random spelling."""
    labels = draw(st.lists(st.sampled_from(LABELS), max_size=max_labels))
    name = ".".join(labels + ([origin.rstrip(".")] if origin.rstrip(".")
                              else []))
    return draw(st.sampled_from(SPELLINGS))(name)


@st.composite
def zone_records(draw, origin):
    name = draw(names_under(origin, max_labels=2))
    # Few targets, so delegations often name servers with glue.
    target = draw(st.one_of(names_under(origin, max_labels=1),
                            st.sampled_from(OUTSIDE)))
    return draw(st.sampled_from([
        rr_a(name, "192.0.2.1"), rr_a(name, "192.0.2.2"),
        rr_ns(name, target), rr_ns(name, target),
        rr_cname(name, target), rr_mx(name, 10, target),
        rr_txt(name, "t"),
    ]))


@st.composite
def zones(draw):
    origin = draw(st.sampled_from(ORIGINS))
    records = draw(st.lists(zone_records(origin), max_size=25))
    signed = draw(st.booleans())
    if draw(st.booleans()):
        return Zone(origin, records, signed=signed)
    return Zone(origin, signed=signed).add_all(records)


@st.composite
def zone_and_queries(draw):
    zone = draw(zones())
    queries = draw(st.lists(
        st.one_of(names_under(zone.origin, max_labels=4),
                  st.sampled_from(OUTSIDE + ORIGINS)),
        min_size=1, max_size=10))
    return zone, queries


class TestZoneIndex:
    @given(zone_and_queries(), st.lists(st.sampled_from(QTYPES),
                                        min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_lookups_match_the_linear_scans(self, zone_queries, qtypes):
        zone, queries = zone_queries
        for qname in queries:
            assert zone.delegation_for(qname) \
                == ref_delegation_for(zone, qname)
            assert zone.has_name(qname) == ref_has_name(zone, qname)
            for qtype in qtypes:
                assert zone.lookup(qname, qtype) \
                    == ref_lookup(zone, qname, qtype)

    @given(zone_and_queries(), st.sampled_from(QTYPES))
    @settings(max_examples=80, deadline=None)
    def test_server_sections_match(self, zone_queries, qtype):
        zone, queries = zone_queries
        server = AuthoritativeServer(Host("ns", "10.0.0.53"))
        server.add_zone(zone)
        for qname in queries:
            if not ref_is_subdomain(qname, zone.origin):
                continue
            response = server.build_response(make_query(qname, qtype, 1),
                                             via_tcp=True)
            assert (response.answers, response.authority,
                    response.additional) == ref_sections(zone, qname, qtype)

    @given(st.sets(st.sampled_from(ORIGINS + ["com", "other.net"]),
                   max_size=5),
           st.lists(st.one_of(names_under("vict.im", max_labels=4),
                              names_under("example.com"),
                              st.sampled_from(OUTSIDE + ORIGINS)),
                    min_size=1, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_zone_for_matches_the_linear_scan(self, origins, queries):
        zone_set = ZoneSet()
        for origin in {names.normalise(origin) for origin in origins}:
            zone_set.add(Zone(origin))
        for qname in queries:
            assert zone_set.zone_for(qname) \
                is ref_zone_for(list(zone_set), qname)

    def test_set_ttl_keeps_index_and_order(self):
        zone = Zone("vict.im")
        zone.add_all([rr_a("Www.vict.im", "192.0.2.1"),
                      rr_txt("www.vict.im", "t"),
                      rr_a("www.vict.im.", "192.0.2.2")])
        before = zone.records
        zone.set_ttl("WWW.vict.im", TYPE_A, 6)
        assert [r.ttl for r in zone.records] \
            == [before[0].ttl, 6, before[2].ttl, 6]
        assert [r.name for r in zone.records] == [r.name for r in before]
        assert zone.lookup("www.vict.im", TYPE_A) \
            == ref_lookup(zone, "www.vict.im", TYPE_A)
        assert [r.ttl for r in zone.lookup("www.vict.im", TYPE_A)] == [6, 6]

    def test_records_are_read_only(self):
        zone = Zone("vict.im")
        assert isinstance(zone.records, tuple)
        with pytest.raises(TypeError):
            zone.records[0] = rr_a("vict.im", "192.0.2.1")


label_or_empty = st.sampled_from(["", "a", "B", "ab", "vict", "im"])


class TestIsSubdomain:
    @given(st.lists(label_or_empty, max_size=4),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=2),
           st.sampled_from(SPELLINGS))
    @settings(max_examples=400)
    def test_matches_the_label_list_definition(self, labels, cut, dots,
                                               anc_dots, spelling):
        name = ".".join(labels) + "." * dots
        # A suffix of the name's own labels (often a true ancestor) ...
        ancestor = spelling(".".join(labels[cut:])) + "." * anc_dots
        assert names.is_subdomain(name, ancestor) \
            == ref_is_subdomain(name, ancestor)
        # ... and the other way round (mostly not one).
        assert names.is_subdomain(ancestor, name) \
            == ref_is_subdomain(ancestor, name)

    @given(st.lists(label_or_empty, max_size=4).map(".".join),
           st.lists(label_or_empty, max_size=4).map(".".join))
    @settings(max_examples=300)
    def test_matches_on_unrelated_names(self, name, ancestor):
        assert names.is_subdomain(name, ancestor) \
            == ref_is_subdomain(name, ancestor)

    def test_root_and_edge_cases(self):
        for name, ancestor in [("", ""), (".", ""), ("", "."), ("a", ""),
                               ("", "a"), ("a..b", "b"), ("a..b", ".b"),
                               ("..", ""), ("..", "."), ("A.B.", "b"),
                               ("ab", "b"), ("b", "ab")]:
            assert names.is_subdomain(name, ancestor) \
                == ref_is_subdomain(name, ancestor), (name, ancestor)
