"""DNS wire format: RFC 1035 encoding/decoding with name compression.

FragDNS rewrites the tail bytes of real DNS responses, so responses must
round-trip through a genuine byte encoding: a spoofed second fragment has
to splice into a first fragment at an 8-byte boundary and still parse.
Compression pointers, EDNS OPT records and per-type rdata codecs are
implemented for every type in :mod:`repro.dns.records`.
"""

from __future__ import annotations

import struct

from repro.core.errors import WireFormatError
from repro.dns.message import DnsMessage, Question
from repro.dns.records import (
    QTYPE_ANY,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_DNSKEY,
    TYPE_DS,
    TYPE_IPSECKEY,
    TYPE_MX,
    TYPE_NAPTR,
    TYPE_NS,
    TYPE_OPT,
    TYPE_PTR,
    TYPE_RRSIG,
    TYPE_SOA,
    TYPE_SRV,
    TYPE_TXT,
    ResourceRecord,
)
from repro.netsim.addresses import int_to_ip, ip_to_int

CLASS_IN = 1
_POINTER_MASK = 0xC0


class _Encoder:
    """Stateful encoder holding the compression offset table."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self._offsets: dict[str, int] = {}

    def name(self, name: str, compress: bool = True) -> None:
        """Append a (possibly compressed) domain name."""
        name = name.rstrip(".")
        remaining = name
        while remaining:
            key = remaining.lower()
            if compress and key in self._offsets:
                pointer = 0xC000 | self._offsets[key]
                self.buffer += struct.pack("!H", pointer)
                return
            if len(self.buffer) < 0x3FFF:
                self._offsets[key] = len(self.buffer)
            label, _, remaining = remaining.partition(".")
            encoded = label.encode("ascii")
            if not 1 <= len(encoded) <= 63:
                raise WireFormatError(f"bad label {label!r} in {name!r}")
            self.buffer.append(len(encoded))
            self.buffer += encoded
        self.buffer.append(0)

    def u8(self, value: int) -> None:
        self.buffer += struct.pack("!B", value)

    def u16(self, value: int) -> None:
        self.buffer += struct.pack("!H", value)

    def u32(self, value: int) -> None:
        self.buffer += struct.pack("!I", value)

    def raw(self, data: bytes) -> None:
        self.buffer += data

    def char_string(self, text: str) -> None:
        data = text.encode("utf-8")
        if len(data) > 255:
            raise WireFormatError("character-string longer than 255 bytes")
        self.buffer.append(len(data))
        self.buffer += data


def _encode_rdata(encoder: _Encoder, record: ResourceRecord) -> None:
    """Append rdata with a length prefix (patching rdlength afterwards)."""
    length_at = len(encoder.buffer)
    encoder.u16(0)  # placeholder
    start = len(encoder.buffer)
    rtype, data = record.rtype, record.data
    if rtype == TYPE_A:
        encoder.u32(ip_to_int(data))
    elif rtype == TYPE_AAAA:
        encoder.raw(bytes.fromhex(data.replace(":", "").ljust(32, "0"))[:16])
    elif rtype in (TYPE_NS, TYPE_CNAME, TYPE_PTR):
        encoder.name(data)
    elif rtype == TYPE_MX:
        preference, exchange = data
        encoder.u16(preference)
        encoder.name(exchange)
    elif rtype == TYPE_TXT:
        text = data
        for i in range(0, max(len(text), 1), 255):
            encoder.char_string(text[i:i + 255])
    elif rtype == TYPE_SRV:
        priority, weight, port, target = data
        encoder.u16(priority)
        encoder.u16(weight)
        encoder.u16(port)
        encoder.name(target, compress=False)
    elif rtype == TYPE_NAPTR:
        order, preference, flags, service, regexp, replacement = data
        encoder.u16(order)
        encoder.u16(preference)
        encoder.char_string(flags)
        encoder.char_string(service)
        encoder.char_string(regexp)
        encoder.name(replacement, compress=False)
    elif rtype == TYPE_SOA:
        mname, rname, serial, refresh, retry, expire, minimum = data
        encoder.name(mname)
        encoder.name(rname)
        for value in (serial, refresh, retry, expire, minimum):
            encoder.u32(value)
    elif rtype == TYPE_IPSECKEY:
        gateway, public_key = data
        encoder.u8(10)       # precedence
        encoder.u8(1)        # gateway type: IPv4
        encoder.u8(2)        # algorithm
        encoder.u32(ip_to_int(gateway))
        encoder.raw(public_key.encode("utf-8"))
    elif rtype == TYPE_RRSIG:
        covered, signer, valid, digest = data
        encoder.u16(covered)
        encoder.u8(1 if valid else 0)
        encoder.name(signer, compress=False)
        encoder.raw(digest.encode("ascii"))
    elif rtype in (TYPE_DNSKEY, TYPE_DS):
        encoder.raw(data if isinstance(data, bytes)
                    else str(data).encode("utf-8"))
    else:
        encoder.raw(data if isinstance(data, bytes)
                    else str(data).encode("utf-8"))
    rdlength = len(encoder.buffer) - start
    encoder.buffer[length_at:length_at + 2] = struct.pack("!H", rdlength)


def _encode_record(encoder: _Encoder, record: ResourceRecord) -> None:
    encoder.name(record.name)
    encoder.u16(record.rtype)
    encoder.u16(CLASS_IN)
    encoder.u32(record.ttl)
    _encode_rdata(encoder, record)


def _encode_opt(encoder: _Encoder, udp_size: int, dnssec_ok: bool) -> None:
    encoder.buffer.append(0)          # root name
    encoder.u16(TYPE_OPT)
    encoder.u16(udp_size)             # "class" carries the UDP size
    flags = 0x8000 if dnssec_ok else 0
    encoder.u32(flags)                # ext-rcode/version/DO in "ttl"
    encoder.u16(0)                    # empty rdata


# Memoisation for the wire codecs.  Retransmission storms and TXID
# floods move thousands of *value-identical* messages (modulo the 16-bit
# TXID in the first two bytes), so both caches key on the message with
# the TXID stripped: the remaining bytes are TXID-independent, and the
# header word is spliced back per call.  Keys are built from the
# messages' (frozen, hashable) questions and records by value, which
# makes the caches immune to callers mutating section lists afterwards —
# a mutated message simply produces a different key.
_ENCODE_CACHE: dict[tuple, bytes] = {}
_DECODE_CACHE: dict[bytes, DnsMessage] = {}
_WIRE_CACHE_MAX = 2048


def _message_cache_key(message: DnsMessage) -> tuple | None:
    """Value key of everything but the TXID; None if rdata is unhashable."""
    key = (
        message.is_response, message.authoritative, message.truncated,
        message.recursion_desired, message.recursion_available,
        message.rcode, tuple(message.questions),
        tuple(message.answers), tuple(message.authority),
        tuple(message.additional), message.edns_udp_size,
        message.dnssec_ok,
    )
    try:
        # Building the tuple never hashes the records; force it here so
        # unhashable rdata (e.g. list-valued data) degrades to the
        # uncached encoder instead of blowing up at dict lookup.
        hash(key)
    except TypeError:
        return None
    return key


def _encode_tail(message: DnsMessage) -> bytes:
    """Encode everything after the TXID word (TXID-independent bytes)."""
    encoder = _Encoder()
    flags = 0
    if message.is_response:
        flags |= 0x8000
    if message.authoritative:
        flags |= 0x0400
    if message.truncated:
        flags |= 0x0200
    if message.recursion_desired:
        flags |= 0x0100
    if message.recursion_available:
        flags |= 0x0080
    flags |= message.rcode & 0xF
    arcount = len(message.additional) \
        + (1 if message.edns_udp_size is not None else 0)
    # The compression offset table must see offsets relative to the full
    # message, so the encoder starts with a 2-byte placeholder where the
    # TXID will be spliced in.
    encoder.raw(struct.pack(
        "!HHHHHH", 0, flags, len(message.questions),
        len(message.answers), len(message.authority), arcount,
    ))
    for question in message.questions:
        encoder.name(question.name)
        encoder.u16(question.qtype)
        encoder.u16(CLASS_IN)
    for record in message.answers:
        _encode_record(encoder, record)
    for record in message.authority:
        _encode_record(encoder, record)
    for record in message.additional:
        _encode_record(encoder, record)
    if message.edns_udp_size is not None:
        _encode_opt(encoder, message.edns_udp_size, message.dnssec_ok)
    return bytes(encoder.buffer[2:])


def encode_message(message: DnsMessage) -> bytes:
    """Serialise a :class:`DnsMessage` to wire bytes (memoised)."""
    key = _message_cache_key(message)
    tail = _ENCODE_CACHE.get(key) if key is not None else None
    if tail is None:
        tail = _encode_tail(message)
        if key is not None:
            if len(_ENCODE_CACHE) >= _WIRE_CACHE_MAX:
                _ENCODE_CACHE.clear()
            _ENCODE_CACHE[key] = tail
    return struct.pack("!H", message.txid) + tail


class _Decoder:
    """Cursor over wire bytes with pointer-chasing name parsing."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise WireFormatError(
                f"truncated message at offset {self.pos} (+{count})"
            )

    def u8(self) -> int:
        self.need(1)
        value = self.data[self.pos]
        self.pos += 1
        return value

    def u16(self) -> int:
        self.need(2)
        value = struct.unpack_from("!H", self.data, self.pos)[0]
        self.pos += 2
        return value

    def u32(self) -> int:
        self.need(4)
        value = struct.unpack_from("!I", self.data, self.pos)[0]
        self.pos += 4
        return value

    def raw(self, count: int) -> bytes:
        self.need(count)
        value = self.data[self.pos:self.pos + count]
        self.pos += count
        return value

    def char_string(self) -> str:
        length = self.u8()
        return self.raw(length).decode("utf-8", errors="replace")

    def name(self) -> str:
        labels: list[str] = []
        position = self.pos
        jumped = False
        hops = 0
        while True:
            if position >= len(self.data):
                raise WireFormatError("name runs past end of message")
            length = self.data[position]
            if length & _POINTER_MASK == _POINTER_MASK:
                if position + 1 >= len(self.data):
                    raise WireFormatError("truncated compression pointer")
                pointer = struct.unpack_from("!H", self.data,
                                             position)[0] & 0x3FFF
                if not jumped:
                    self.pos = position + 2
                    jumped = True
                position = pointer
                hops += 1
                if hops > 64:
                    raise WireFormatError("compression pointer loop")
                continue
            if length & _POINTER_MASK:
                raise WireFormatError(f"bad label length byte {length:#04x}")
            position += 1
            if length == 0:
                if not jumped:
                    self.pos = position
                return ".".join(labels)
            if position + length > len(self.data):
                raise WireFormatError("label runs past end of message")
            labels.append(
                self.data[position:position + length].decode(
                    "ascii", errors="replace")
            )
            position += length


def _decode_rdata(decoder: _Decoder, rtype: int, rdlength: int):
    end = decoder.pos + rdlength
    if rtype == TYPE_A:
        return int_to_ip(decoder.u32())
    if rtype == TYPE_AAAA:
        return decoder.raw(16).hex()
    if rtype in (TYPE_NS, TYPE_CNAME, TYPE_PTR):
        return decoder.name()
    if rtype == TYPE_MX:
        return (decoder.u16(), decoder.name())
    if rtype == TYPE_TXT:
        chunks = []
        while decoder.pos < end:
            chunks.append(decoder.char_string())
        return "".join(chunks)
    if rtype == TYPE_SRV:
        return (decoder.u16(), decoder.u16(), decoder.u16(), decoder.name())
    if rtype == TYPE_NAPTR:
        return (decoder.u16(), decoder.u16(), decoder.char_string(),
                decoder.char_string(), decoder.char_string(), decoder.name())
    if rtype == TYPE_SOA:
        return (decoder.name(), decoder.name(), decoder.u32(), decoder.u32(),
                decoder.u32(), decoder.u32(), decoder.u32())
    if rtype == TYPE_IPSECKEY:
        decoder.u8()  # precedence
        decoder.u8()  # gateway type
        decoder.u8()  # algorithm
        gateway = int_to_ip(decoder.u32())
        key = decoder.raw(end - decoder.pos).decode("utf-8", "replace")
        return (gateway, key)
    if rtype == TYPE_RRSIG:
        covered = decoder.u16()
        valid = bool(decoder.u8())
        signer = decoder.name()
        digest = decoder.raw(end - decoder.pos).decode("ascii", "replace")
        return (covered, signer, valid, digest)
    return decoder.raw(rdlength)


def _decode_record(decoder: _Decoder) -> ResourceRecord | tuple[int, bool]:
    """Decode one RR; OPT records return (udp_size, dnssec_ok) instead."""
    name = decoder.name()
    rtype = decoder.u16()
    klass = decoder.u16()
    ttl = decoder.u32()
    rdlength = decoder.u16()
    if rtype == TYPE_OPT:
        decoder.raw(rdlength)
        return (klass, bool(ttl & 0x8000))
    start = decoder.pos
    data = _decode_rdata(decoder, rtype, rdlength)
    if decoder.pos != start + rdlength:
        # Names inside rdata may use compression into earlier bytes, which
        # can legitimately make parsing shorter than rdlength is wrong —
        # treat any mismatch as malformed.
        raise WireFormatError(
            f"rdata length mismatch for type {rtype}: "
            f"declared {rdlength}, consumed {decoder.pos - start}"
        )
    return ResourceRecord(name=name, rtype=rtype, ttl=ttl, data=data)


def _copy_message(template: DnsMessage, txid: int) -> DnsMessage:
    """Fresh message equal to ``template`` but for the TXID.

    Handing out copies (fresh section lists over the same frozen
    records) keeps the decode cache safe against callers mutating the
    result.
    """
    message = DnsMessage(
        txid=txid,
        is_response=template.is_response,
        authoritative=template.authoritative,
        truncated=template.truncated,
        recursion_desired=template.recursion_desired,
        recursion_available=template.recursion_available,
        rcode=template.rcode,
        questions=list(template.questions),
        answers=list(template.answers),
        authority=list(template.authority),
        additional=list(template.additional),
        edns_udp_size=template.edns_udp_size,
        dnssec_ok=template.dnssec_ok,
    )
    return message


def decode_message(data: bytes) -> DnsMessage:
    """Parse wire bytes into a :class:`DnsMessage` (memoised).

    Raises :class:`WireFormatError` on malformed input; resolvers treat
    that as a silent drop, which is what makes badly-spliced attack
    fragments fail harmlessly.

    A TXID flood is 2^16 parses of the same bytes with a different
    header word, so successful parses are cached keyed on ``data[2:]``
    (compression offsets count from the message start, which the TXID
    never shifts) and replayed as cheap copies.
    """
    if len(data) >= 2:
        template = _DECODE_CACHE.get(data[2:])
        if template is not None:
            return _copy_message(template, (data[0] << 8) | data[1])
    message = _decode_message_uncached(data)
    if len(_DECODE_CACHE) >= _WIRE_CACHE_MAX:
        _DECODE_CACHE.clear()
    _DECODE_CACHE[data[2:]] = _copy_message(message, 0)
    return message


def well_formed(data: bytes) -> bool:
    """True when ``data`` parses as a DNS message.

    The TXID never affects parsing, so a hit in the decode cache
    answers without decoding; otherwise this tries a (memoised) decode.
    Lets a receiver that rejects on header bytes alone still tell a
    message from garbage.
    """
    if len(data) >= 2 and data[2:] in _DECODE_CACHE:
        return True
    try:
        decode_message(data)
    except WireFormatError:
        return False
    return True


def _decode_message_uncached(data: bytes) -> DnsMessage:
    decoder = _Decoder(data)
    txid = decoder.u16()
    flags = decoder.u16()
    qdcount = decoder.u16()
    ancount = decoder.u16()
    nscount = decoder.u16()
    arcount = decoder.u16()
    message = DnsMessage(
        txid=txid,
        is_response=bool(flags & 0x8000),
        authoritative=bool(flags & 0x0400),
        truncated=bool(flags & 0x0200),
        recursion_desired=bool(flags & 0x0100),
        recursion_available=bool(flags & 0x0080),
        rcode=flags & 0xF,
    )
    for _ in range(qdcount):
        name = decoder.name()
        qtype = decoder.u16()
        decoder.u16()  # class
        message.questions.append(Question(name=name, qtype=qtype))
    for _ in range(ancount):
        record = _decode_record(decoder)
        if isinstance(record, ResourceRecord):
            message.answers.append(record)
    for _ in range(nscount):
        record = _decode_record(decoder)
        if isinstance(record, ResourceRecord):
            message.authority.append(record)
    for _ in range(arcount):
        record = _decode_record(decoder)
        if isinstance(record, ResourceRecord):
            message.additional.append(record)
        else:
            message.edns_udp_size, message.dnssec_ok = record
    return message


def response_size(message: DnsMessage) -> int:
    """Encoded size in bytes (used by fragmentation feasibility checks)."""
    return len(encode_message(message))
