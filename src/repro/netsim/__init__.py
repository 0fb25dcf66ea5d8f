"""Byte-accurate IPv4/UDP/ICMP substrate with simulated hosts and links.

This package is the "operating system and wire" of the reproduction.  The
three attack methodologies in the paper manipulate concrete kernel
mechanisms — the global ICMP rate limit (SadDNS), the IP defragmentation
cache and UDP checksum (FragDNS) and plain spoofed delivery (HijackDNS) —
so those mechanisms are implemented here for real, over real byte
encodings, with the same constants the paper exploits (50 ICMP errors per
second, 64-slot reassembly cache, 68-byte minimum MTU, 16-bit IP-ID).
"""

from repro import _lazy_exports

#: The public names, each imported on first use from the module named
#: here, so importing one netsim module (as the atlas scan imports
#: ``repro.netsim.ratelimit``) does not load the packet stack.
_EXPORTS = {
    "GlobalCounterIPID": "repro.netsim.ipid",
    "Host": "repro.netsim.host",
    "ICMP_DEST_UNREACHABLE": "repro.netsim.packet",
    "ICMP_ECHO_REPLY": "repro.netsim.packet",
    "ICMP_ECHO_REQUEST": "repro.netsim.packet",
    "ICMP_FRAG_NEEDED": "repro.netsim.packet",
    "ICMP_PORT_UNREACHABLE": "repro.netsim.packet",
    "IPIDAllocator": "repro.netsim.ipid",
    "IcmpMessage": "repro.netsim.packet",
    "Ipv4Packet": "repro.netsim.packet",
    "Network": "repro.netsim.network",
    "PROTO_ICMP": "repro.netsim.packet",
    "PROTO_UDP": "repro.netsim.packet",
    "PerDestinationIPID": "repro.netsim.ipid",
    "RandomIPID": "repro.netsim.ipid",
    "ReassemblyCache": "repro.netsim.fragmentation",
    "TokenBucket": "repro.netsim.ratelimit",
    "UdpDatagram": "repro.netsim.packet",
    "UdpSocket": "repro.netsim.host",
    "decode_ipv4": "repro.netsim.wire",
    "decode_udp_payload": "repro.netsim.wire",
    "encode_ipv4": "repro.netsim.wire",
    "encode_udp": "repro.netsim.wire",
    "fragment_packet": "repro.netsim.fragmentation",
    "int_to_ip": "repro.netsim.addresses",
    "internet_checksum": "repro.netsim.checksum",
    "ip_in_prefix": "repro.netsim.addresses",
    "ip_to_int": "repro.netsim.addresses",
    "udp_checksum": "repro.netsim.checksum",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
