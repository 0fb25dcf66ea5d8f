"""Domain-name handling: normalisation, subdomain math, 0x20 encoding.

Names are handled as presentation-form strings without the trailing dot
(``"ns1.vict.im"``); the root is the empty string.  Comparison is always
case-insensitive per RFC 1035, but *case itself is preserved* through the
resolver pipeline because 0x20 encoding (Dagon et al., used as a
countermeasure in Section 6 of the paper) turns the query's case pattern
into entropy the attacker must guess.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.rng import DeterministicRNG

MAX_NAME_LENGTH = 255
MAX_LABEL_LENGTH = 63


@lru_cache(maxsize=4096)
def normalise(name: str) -> str:
    """Canonical lowercase form without the trailing dot.

    Memoised in a bounded LRU table: a loaded resolver canonicalises
    the same few dozen names hundreds of thousands of times (cache
    keys, bailiwick tests, name comparisons).  Sharing the table
    across resolvers, worlds and threads is safe because the result
    depends on the immutable argument alone.
    """
    return name.rstrip(".").lower()


def labels_of(name: str) -> list[str]:
    """Split a name into labels, most-specific first.  Root gives []."""
    name = name.rstrip(".")
    if not name:
        return []
    return name.split(".")


def validate(name: str) -> None:
    """Raise ``ValueError`` if the name violates RFC 1035 length limits."""
    stripped = name.rstrip(".")
    if len(stripped) > MAX_NAME_LENGTH - 1:
        raise ValueError(f"name too long ({len(stripped)} chars): {name!r}")
    for label in labels_of(stripped):
        if not label:
            raise ValueError(f"empty label in {name!r}")
        if len(label) > MAX_LABEL_LENGTH:
            raise ValueError(f"label too long in {name!r}: {label!r}")


@lru_cache(maxsize=4096)
def is_subdomain(name: str, ancestor: str) -> bool:
    """True if ``name`` equals or lies under ``ancestor`` (bailiwick test).

    Memoised like :func:`normalise`, for the same reason: cache
    inserts and referrals ask it about the same few pairs per query.

    >>> is_subdomain("ns1.vict.im", "vict.im")
    True
    >>> is_subdomain("vict.im", "vict.im")
    True
    >>> is_subdomain("evil.com", "vict.im")
    False
    """
    # The label-list suffix test, on strings: the root contains every
    # name, and otherwise a whole trailing run of labels must match.
    name = normalise(name)
    ancestor = normalise(ancestor)
    return not ancestor or name == ancestor \
        or name.endswith("." + ancestor)


def parent_of(name: str) -> str:
    """The name with its leftmost label removed; '' for TLDs and root."""
    parts = labels_of(name)
    return ".".join(parts[1:])


def encode_0x20(name: str, rng: DeterministicRNG) -> str:
    """Randomise the case of every alphabetic character (0x20 encoding).

    Each letter contributes one bit of entropy that a spoofed response
    must reproduce, which is what makes SadDNS "no longer viable"
    against 0x20-protected queries (paper Section 6.1).
    """
    out = []
    for char in name:
        if char.isalpha():
            out.append(char.upper() if rng.chance(0.5) else char.lower())
        else:
            out.append(char)
    return "".join(out)


def case_entropy_bits(name: str) -> int:
    """Number of alphabetic characters = 0x20 entropy bits of the name."""
    return sum(1 for c in name if c.isalpha())


def same_name(a: str, b: str) -> bool:
    """Case-insensitive name equality."""
    return a == b or normalise(a) == normalise(b)


def case_matches(query_name: str, response_name: str) -> bool:
    """Exact (case-preserving) match used by 0x20-validating resolvers."""
    return query_name.rstrip(".") == response_name.rstrip(".")


def random_label(rng: DeterministicRNG, length: int = 12) -> str:
    """A random lowercase a-z label (used for cache-busting subqueries)."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return "".join(rng.choice(alphabet) for _ in range(length))


def bloat_name(base: str, total_length: int = MAX_NAME_LENGTH - 1,
               rng: DeterministicRNG | None = None) -> str:
    """Prepend subdomain labels until the name approaches ``total_length``.

    This reproduces the paper's "bloat query" trick (Section 5.2.2): a
    longer qname is echoed in the question section of the response, which
    pushes the response size over the nameserver's fragmentation limit.
    Labels are capped at 63 chars and the result at 254 chars.
    """
    rng = rng if rng is not None else DeterministicRNG("bloat")
    name = base.rstrip(".")
    while len(name) < total_length:
        room = total_length - len(name) - 1  # dot separator
        if room < 1:
            break
        label = random_label(rng, min(MAX_LABEL_LENGTH, room))
        name = f"{label}.{name}"
    validate(name)
    return name
