"""Deterministic randomness for reproducible experiments.

All stochastic behaviour in the library flows through
:class:`DeterministicRNG`, a thin wrapper over :class:`random.Random` that
adds namespaced derivation.  Components never share one RNG stream
directly; instead each derives its own child stream from a label, so the
order in which components consume randomness cannot perturb each other.
This is what makes the Internet-scale measurement benchmarks bit-stable
across runs.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence
from math import ceil as _ceil, log as _log

_sha256 = hashlib.sha256
# The C-level Mersenne seeding, bypassing random.py's seed() wrapper on
# the re-derive fast path (the wrapper's type dispatch is pure overhead
# for an int seed; gauss_next is reset explicitly instead).
_mersenne_seed = random.Random.__bases__[0].seed

#: Fewer :meth:`DeterministicRNG.below_many` draws than this loop.
BULK_DRAWS = 1024


class DeterministicRNG(random.Random):
    """A seeded RNG that can spawn independent child streams.

    >>> rng = DeterministicRNG(42)
    >>> child = rng.derive("resolver-ports")
    >>> isinstance(child, DeterministicRNG)
    True

    Two children derived with the same label from the same parent produce
    identical streams; children with different labels are statistically
    independent.
    """

    def __init__(self, seed: int | str | bytes = 0):
        self._seed_material = _seed_bytes(seed)
        super().__init__(int.from_bytes(self._seed_material, "big"))

    def derive(self, label: str) -> "DeterministicRNG":
        """Return a child RNG whose stream depends on ``label`` and our seed.

        Derivation is stateless: it depends only on this RNG's seed
        material, never on how much of its stream has been consumed, so
        children may be derived at any time (or re-derived — see
        :meth:`rederive`) with identical results.
        """
        mixed = hashlib.sha256(self._seed_material + label.encode("utf-8"))
        return DeterministicRNG(mixed.digest())

    def rederive(self, parent: "DeterministicRNG", label: str) -> None:
        """Re-seed *this* RNG in place as ``parent.derive(label)``.

        Bit-identical to building a fresh child — same seed material,
        same Mersenne state, ``gauss_next`` reset by ``seed()`` — but
        without allocating a new generator (whose ``__new__`` also pays
        an urandom seeding).  Population-scale scans derive one RNG per
        entity; re-deriving a scratch generator in place halves that
        per-entity cost.  Only safe when this RNG does not escape the
        current loop iteration.
        """
        material = _sha256(
            _sha256(parent._seed_material + label.encode("utf-8")).digest()
        ).digest()
        self._seed_material = material
        _mersenne_seed(self, int.from_bytes(material, "big"))
        self.gauss_next = None

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer from ``[low, high]``, both ends included.

        Bit-identical to ``randint(low, high)`` — this inlines CPython's
        ``_randbelow`` rejection loop to skip three frames of
        ``randint``/``randrange`` overhead on the per-packet and
        per-entity paths.
        """
        width = high - low + 1
        if width <= 0:
            raise ValueError(f"empty range: [{low}, {high}]")
        bits = width.bit_length()
        getrandbits = self.getrandbits
        value = getrandbits(bits)
        while value >= width:
            value = getrandbits(bits)
        return low + value

    def pick_port(self, low: int = 1024, high: int = 65535) -> int:
        """Draw a UDP source port uniformly from ``[low, high]``."""
        width = high - low + 1
        if width <= 0:
            raise ValueError(f"empty range: [{low}, {high}]")
        bits = width.bit_length()
        getrandbits = self.getrandbits
        value = getrandbits(bits)
        while value >= width:
            value = getrandbits(bits)
        return low + value

    def pick_txid(self) -> int:
        """Draw a 16-bit DNS transaction identifier.

        Bit-identical to ``randint(0, 0xFFFF)`` (see :meth:`pick_port`).
        """
        getrandbits = self.getrandbits
        value = getrandbits(17)
        while value >= 0x10000:
            value = getrandbits(17)
        return value

    def pick_txids(self, n: int) -> list[int]:
        """Draw ``n`` 16-bit identifiers at once.

        Bit-identical to ``[pick_txid() for _ in range(n)]``, values and
        final state alike (see :meth:`below_many`).
        """
        return self.below_many(0x10000, n)

    def below_many(self, width: int, n: int) -> list[int]:
        """Draw ``n`` integers from ``[0, width)`` at once.

        Bit-identical to ``[randint(0, width - 1) for _ in range(n)]``,
        values and final state alike, for ``width`` of at most 32 bits.
        Each ``randint`` keeps the top ``width.bit_length()`` bits of one
        32-bit Mersenne word and rejects the word when they reach
        ``width``.  Short runs (or any, without numpy) loop so.  From
        :data:`BULK_DRAWS` draws on, one ``getrandbits`` draws more words
        than needed, numpy filters them, and the saved state is advanced
        by exactly the words up to the ``n``-th accepted one.
        """
        bits = width.bit_length()
        if width <= 0 or bits > 32:
            raise ValueError(f"below_many needs 0 < width < 2**32,"
                             f" got {width}")
        getrandbits = self.getrandbits
        np = None
        if n >= BULK_DRAWS:
            try:
                import numpy as np      # lazily: ``import repro`` needs none
            except ImportError:
                pass
        if np is not None:
            state = self.getstate()
            # The expected word count plus over 3 standard deviations.
            count = (n << bits) // width + n // 16 + 64
            raw, kept = b"", ()
            while len(kept) < n:
                raw += getrandbits(32 * count).to_bytes(4 * count, "little")
                words = np.frombuffer(raw, "<u4")
                kept = np.flatnonzero(words < width << (32 - bits))[:n]
            self.setstate(state)
            getrandbits(32 * (int(kept[-1]) + 1))
            return (words[kept] >> (32 - bits)).tolist()
        out: list[int] = []
        for _ in range(n):
            value = getrandbits(bits)
            while value >= width:
                value = getrandbits(bits)
            out.append(value)
        return out

    def pick_sample(self, population, k: int) -> list:
        """``sample(population, k)``, with its draws made in bulk.

        Bit-identical to :meth:`random.Random.sample`, values and final
        state alike.  For a population large against ``k``, ``sample``
        draws indices with ``randbelow(n)`` and redraws each one already
        taken; that is the stream of :meth:`below_many` draws with the
        repeats dropped, so each round draws as many indices as are
        still missing.  The small-population path (a shrinking pool)
        and populations wider than 32 bits go to ``sample`` itself.
        """
        n = len(population)
        setsize = 21
        if k > 5:
            setsize += 4 ** _ceil(_log(k * 3, 4))
        if not isinstance(population, Sequence) or not 0 <= k <= n \
                or n <= setsize or n.bit_length() > 32:
            return self.sample(population, k)
        picked: dict[int, None] = {}
        need = k
        while need:
            picked.update(dict.fromkeys(self.below_many(n, need)))
            need = k - len(picked)
        return [population[index] for index in picked]

    def chance(self, probability: float) -> bool:
        """Return True with the given probability (clamped to [0, 1])."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.random() < probability


def _seed_bytes(seed: int | str | bytes) -> bytes:
    if isinstance(seed, bytes):
        return hashlib.sha256(seed).digest()
    if isinstance(seed, str):
        return hashlib.sha256(seed.encode("utf-8")).digest()
    return hashlib.sha256(seed.to_bytes(32, "big", signed=True)).digest()


def derive_rng(seed: int | str | bytes, label: str) -> DeterministicRNG:
    """Convenience: build a root RNG from ``seed`` and derive ``label``."""
    return DeterministicRNG(seed).derive(label)
