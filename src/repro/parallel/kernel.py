"""Batch-vectorised atlas scan kernel.

The per-entity scan is a pure function of the entity's derived RNG
stream, so instead of materialising profiles one at a time the kernel
synthesises *columns* — one attribute array per draw over a whole batch
of entities — and evaluates the Section 5 verdict predicates over the
columns.  The RNG streams run in lockstep on a
:class:`repro.parallel.mt.LockstepMT` state matrix, consuming words in
exactly the order the scalar kernels
(:func:`repro.measurements.population.draw_resolver_profile` /
:func:`draw_domain_profile` plus the pruned SadDNS replay) consume
them, so the folded :class:`repro.atlas.aggregate.ScanAggregate` is
bit-identical to the serial scan — the atlas store checksums prove it
on every CI run.

Exactness escapes: streams the vector path cannot reproduce exactly
(short ``init_by_array`` keys, a rejection-loop runaway past the word
budget) fall back to the scalar per-entity scan for just those
entities.  That scalar scan is also the whole-range reference
(``kernel="scalar"``), and the only path when numpy is missing.
"""

from __future__ import annotations

import hashlib
import math
import random

from repro.atlas.aggregate import _STRATUM_KEYS, ScanAggregate
from repro.atlas.shards import dataset_kind
from repro.atlas.synth import iter_entities
from repro.core.rng import DeterministicRNG
from repro.measurements.population import (
    EDNS_BIG_CHOICES,
    EDNS_MID_CHOICES,
    MIN_FRAG_CHOICES,
    MixSampler,
    NameserverProfile,
    _deterministic_burst_errors,
    domain_rates,
    resolver_prefix_mix,
    resolver_rates,
)
from repro.measurements.scanner import (
    FRAG_TEST_RESPONSE_SIZE,
    SADDNS_PROBE_BURST,
    SUBPREFIX_HIJACKABLE_BELOW,
    scan_nameserver_rrl,
)
from repro.parallel.mt import HAVE_NUMPY, LockstepMT, WordBudgetExceeded

if HAVE_NUMPY:
    import numpy as np

#: The ``kernel`` choices every scan entry point and CLI accepts.
KERNELS = ("auto", "vector", "scalar")

#: Streams per lockstep batch.  Each of the 1,247 seeding steps is one
#: vector op over the batch, so a wider batch amortises numpy's per-call
#: dispatch.  The (624, B) state matrix (30 MB here) is far from cache-
#: resident at any useful width; seeding streams through it row by row.
#: A sweep of the ``open`` scan on a 2-vCPU host: 4,096 scans about 25%
#: slower, 8,192 to 24,576 sit within the host's noise of each other.
#: One state is live at a time (a resolver batch frees its main state
#: before the ICMP replay seeds), so a batch's traced peak is about 1.25
#: states: 36 MB here, and 16,384 adds about 12 MB of it for no gain.
VEC_BATCH = 12288

_TWO_PI = 6.283185307179586

#: The ICMP token bucket every generated resolver carries
#: (:class:`repro.measurements.population.IcmpBehaviour` defaults).
_ICMP_RATE = 1000.0
_ICMP_BURST = 50.0


def vector_available() -> bool:
    """Whether the numpy lockstep path is importable here."""
    return HAVE_NUMPY


def check_kernel(kernel: str) -> None:
    """Raise ``ValueError`` unless this host can run ``kernel``."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; pick one of {KERNELS}")
    if kernel == "vector" and not HAVE_NUMPY:
        raise ValueError("numpy is not available for kernel='vector'")


def _det_saddns_verdict() -> bool:
    """The scan verdict for a non-randomised (deterministic) limiter."""
    return _deterministic_burst_errors(
        _ICMP_RATE, _ICMP_BURST, SADDNS_PROBE_BURST) == int(_ICMP_BURST)


def _rrl_verdict() -> bool:
    """The burst-scan verdict for any RRL-enabled nameserver."""
    probe = NameserverProfile(
        address="", asn=0, prefix_length=24, honours_ptb=False,
        min_frag_size=1500, rrl_enabled=True, ipid_global=False,
        supports_any=False, base_response_size=0)
    return scan_nameserver_rrl(probe)


def _root_material(seed, kind: str, key: str) -> bytes:
    """Seed material of the per-dataset atlas root RNG."""
    return DeterministicRNG(seed).derive(
        f"atlas/{kind}/{key}")._seed_material


def _derive_material(parent: bytes, label: bytes) -> bytes:
    """The ``DeterministicRNG.derive`` material chain, bytes-in/out."""
    return hashlib.sha256(hashlib.sha256(parent + label).digest()).digest()


# -- scalar SadDNS replay (fallback + reference) -----------------------------

def _scalar_saddns_replay(material: bytes) -> bool:
    """Exact randomised-budget replay for one ICMP stream material."""
    rng = random.Random(int.from_bytes(material, "big"))
    getrandbits = rng.getrandbits
    tokens = _ICMP_BURST
    errors = 0
    for _ in range(SADDNS_PROBE_BURST):
        draw = getrandbits(3)
        while draw >= 6:
            draw = getrandbits(3)
        cost = 1 + draw
        if tokens >= cost:
            tokens -= cost
            errors += 1
    return errors == int(_ICMP_BURST)


# -- numpy lockstep path -----------------------------------------------------

class _Draws:
    """Cursor-tracked draw primitives over one lockstep word matrix."""

    __slots__ = ("mt", "cur", "cols")

    def __init__(self, mt: LockstepMT):
        self.mt = mt
        self.cur = np.zeros(mt.batch, dtype=np.intp)
        self.cols = np.arange(mt.batch, dtype=np.intp)

    def _rows(self) -> "np.ndarray":
        need = int(self.cur.max()) + 1 if self.cur.size else 1
        # Round the request up so lazy growth doesn't recopy per word.
        return self.mt.words(min(((need + 15) // 16) * 16, 624)
                             if need <= 624 else need)

    def _gather(self, idx) -> "np.ndarray":
        words = self._rows()
        if idx is None:
            value = words[self.cur, self.cols]
            self.cur += 1
        else:
            value = words[self.cur[idx], idx]
            self.cur[idx] += 1
        return value

    def random(self, idx=None) -> "np.ndarray":
        """CPython ``random()``: two words folded into one double."""
        a = self._gather(idx)
        b = self._gather(idx)
        return ((a >> np.uint32(5)) * 67108864.0 + (b >> np.uint32(6))) \
            * (1.0 / 9007199254740992.0)

    def bits(self, bit_count: int, width: int, idx=None) -> "np.ndarray":
        """CPython ``_randbelow(width)``: top-bits draw with rejection."""
        shift = np.uint32(32 - bit_count)
        value = self._gather(idx) >> shift
        reject = value >= width
        while reject.any():
            where = np.flatnonzero(reject)
            sub = where if idx is None else idx[where]
            value[where] = self._gather(sub) >> shift
            reject = value >= width
        return value

    def chance(self, probability: float, idx=None) -> "np.ndarray":
        """Columnar ``DeterministicRNG.chance``: draw-free at 0 and 1."""
        size = self.mt.batch if idx is None else len(idx)
        if probability <= 0.0:
            return np.zeros(size, dtype=bool)
        if probability >= 1.0:
            return np.ones(size, dtype=bool)
        return self.random(idx) < probability


def _compile_mix(sampler: MixSampler):
    """(cumulative, values-with-fallback) arrays for a mix sampler."""
    cumulative = np.array(sampler.cumulative, dtype=np.float64)
    values = np.array(list(sampler.values) + [sampler.fallback],
                      dtype=np.int64)
    return cumulative, values


def _mix_draw(draws: _Draws, compiled) -> "np.ndarray":
    """``MixSampler.draw`` over a batch: ``bisect_left`` is exactly
    ``searchsorted(side="left")`` on the same cumulative floats."""
    cumulative, values = compiled
    point = draws.random()
    return values[np.searchsorted(cumulative, point, side="left")]


def _saddns_replay_batch(materials: list[bytes]) -> "np.ndarray":
    """Vectorised randomised-budget SadDNS replay over ICMP streams.

    The "exactly 50 errors from 51 probes off a 50-token budget"
    signature requires every accepted probe to cost one token, so a
    stream dies the moment an accepted 3-bit draw is non-zero — unless
    it is already past accepted position 45, where a landing pattern
    with one late rejection can still hit the target.  That tail (and
    any short-key stream) replays exactly on the scalar path; its
    probability is ~6^-45 per entity, so the vector loop typically
    retires the whole batch within a dozen word rows.
    """
    blob = b"".join(materials)
    mt = LockstepMT(blob)
    batch = mt.batch
    verdict = np.zeros(batch, dtype=bool)
    alive = np.ones(batch, dtype=bool)
    fallback = list(mt.irregular.tolist())
    if fallback:
        alive[mt.irregular] = False
    accepted = np.zeros(batch, dtype=np.int32)
    row = 0
    while alive.any():
        if row >= 624:
            fallback.extend(np.flatnonzero(alive).tolist())
            break
        words = mt.words(min(((row + 8) // 8) * 8, 624))
        value = words[row] >> np.uint32(29)
        accept = alive & (value < 6)
        nonzero = accept & (value != 0)
        # A non-zero accepted cost before position 46 can never recover
        # the all-ones budget; at 46+ the exact simulation decides.
        alive &= ~(nonzero & (accepted < 45))
        late = np.flatnonzero(nonzero & (accepted >= 45) & alive)
        if late.size:
            fallback.extend(late.tolist())
            alive[late] = False
        accepted += accept & alive
        done = alive & (accepted >= int(_ICMP_BURST))
        if done.any():
            verdict[done] = True
            alive &= ~done
        row += 1
    for index in fallback:
        verdict[index] = _scalar_saddns_replay(materials[index])
    return verdict


class VectorScanner:
    """Columnar scanner for one dataset's entity range.

    One instance per (spec, seed); :meth:`scan` folds any index range
    into a :class:`ScanAggregate`, batching internally.  All spec-level
    constants (rates, mixes, verdict constants, the root RNG material)
    are hoisted here so per-batch work is pure column math.
    """

    def __init__(self, spec, seed):
        self.spec = spec
        self.kind = dataset_kind(spec)
        self.root = _root_material(seed, self.kind, spec.key)
        self.seed = seed
        if self.kind == "resolver":
            self.rates = resolver_rates(spec)
            self.prefix_mix = _compile_mix(
                MixSampler(resolver_prefix_mix(spec)))
            self.det_verdict = _det_saddns_verdict()
            self.supported = spec.resolvers_per_frontend == 1
        else:
            rates = domain_rates(spec)
            self.rates = rates
            self.prefix_mix = _compile_mix(rates.prefix_mix)
            self.rrl_verdict = _rrl_verdict()
            self.min_frag = np.array(MIN_FRAG_CHOICES, dtype=np.int64)
            self.supported = True

    # -- public ---------------------------------------------------------------

    def scan(self, lo: int, hi: int,
             aggregate: ScanAggregate | None = None) -> ScanAggregate:
        """Fold entities ``[lo, hi)`` into ``aggregate`` (bit-identical
        to streaming them through the serial observers)."""
        if aggregate is None:
            aggregate = ScanAggregate(kind=self.kind)
        self.scan_spans([(lo, hi, aggregate)])
        return aggregate

    def scan_spans(self,
                   sinks: list[tuple[int, int, ScanAggregate]]) -> None:
        """One batched pass over contiguous cuts ``(lo, hi, aggregate)``.

        The cuts must tile an index range without gaps (shard ranges
        do); batches cross cut boundaries, so many small shards still
        seed their lockstep streams at the efficient batch size, and
        each batch's columns are sliced into the per-cut aggregates.
        """
        if not sinks:
            return
        lo = sinks[0][0]
        hi = sinks[-1][1]
        for (_, prev_hi, _), (next_lo, _, _) in zip(sinks, sinks[1:]):
            if prev_hi != next_lo:
                raise ValueError("scan_spans cuts must be contiguous")
        if not self.supported:
            for cut_lo, cut_hi, aggregate in sinks:
                _scan_scalar_range(self.spec, self.seed, cut_lo, cut_hi,
                                   aggregate)
            return
        span = hi - lo
        if span <= 0:
            return
        # Split the span evenly so no batch is left tiny (short batches
        # pay disproportionate seeding overhead per stream).
        batches = -(-span // VEC_BATCH)
        step = -(-span // batches)
        batch_columns = self._resolver_batch if self.kind == "resolver" \
            else self._domain_batch
        for batch_lo in range(lo, hi, step):
            batch_hi = min(batch_lo + step, hi)
            cuts = [cut for cut in sinks
                    if cut[0] < batch_hi and cut[1] > batch_lo]
            try:
                irregular = batch_columns(batch_lo, batch_hi, cuts)
            except WordBudgetExceeded:
                # A rejection-loop runaway consumed a whole twist
                # block; replay the batch on the scalar reference.
                for cut_lo, cut_hi, aggregate in cuts:
                    _scan_scalar_range(self.spec, self.seed,
                                       max(cut_lo, batch_lo),
                                       min(cut_hi, batch_hi), aggregate)
            else:
                # Short-key streams fold only once the vector batch has
                # succeeded: the replay above already covers them.
                self._scalar_entities(batch_lo, irregular, cuts)

    # -- shared column plumbing -----------------------------------------------

    def _materials(self, lo: int, hi: int) -> list[bytes]:
        root = self.root
        sha = hashlib.sha256
        return [sha(sha(root + str(index).encode()).digest()).digest()
                for index in range(lo, hi)]

    def _scalar_entities(self, lo: int, indices, sinks) -> None:
        """Scalar-scan irregular streams (short init_by_array keys),
        routing each entity to the cut that owns its index."""
        for offset in indices:
            index = lo + int(offset)
            for cut_lo, cut_hi, aggregate in sinks:
                if cut_lo <= index < cut_hi:
                    _scan_scalar_range(self.spec, self.seed, index,
                                       index + 1, aggregate)
                    break

    # -- resolver columns -----------------------------------------------------

    def _resolver_batch(self, lo: int, hi: int, sinks) -> "np.ndarray":
        """Fold the vector columns of ``[lo, hi)`` into ``sinks``.

        Returns the irregular column offsets, which it leaves out.
        The main streams' state is out of scope once
        :meth:`_resolver_columns` returns, so the ICMP replay seeds its
        own state with only one lockstep matrix live at a time.
        """
        materials = self._materials(lo, hi)
        irregular, reachable, randomized, edns, accepts, prefix = \
            self._resolver_columns(materials)

        saddns = np.zeros(len(materials), dtype=bool)
        if self.det_verdict:
            saddns |= reachable & ~randomized
        replay = np.flatnonzero(reachable & randomized)
        if replay.size:
            icmp = [_derive_material(materials[i], b"icmp-0")
                    for i in replay.tolist()]
            saddns[replay] = _saddns_replay_batch(icmp)
        frag = reachable & accepts & (edns >= FRAG_TEST_RESPONSE_SIZE)

        for aggregate, sel in _cut_columns(lo, hi, sinks, irregular):
            _fold_resolver(aggregate, prefix[sel], reachable[sel],
                           edns[sel], saddns[sel], frag[sel])
        return irregular

    def _resolver_columns(self, materials: list[bytes]):
        """Seed the main streams and draw through the prefix length.

        Returns ``(irregular, reachable, randomized, edns, accepts,
        prefix)``; no returned array refers to the state.
        """
        spec = self.spec
        rates = self.rates
        mt = LockstepMT(b"".join(materials))
        draws = _Draws(mt)

        reachable = ~draws.chance(spec.rate_unreachable)
        randomized = ~draws.chance(rates.conditional_saddns)
        # EDNS size: one point draw picks the 512/mid/big band; both
        # non-512 bands consume one choice-of-three (2-bit rejection).
        mix = spec.edns_mix
        point = draws.random()
        is_512 = point < mix[0]
        is_mid = ~is_512 & (point < mix[0] + mix[1])
        edns = np.full(mt.batch, 512, dtype=np.int64)
        need_choice = np.flatnonzero(~is_512)
        if need_choice.size:
            pick = draws.bits(2, 3, need_choice)
            mid = np.array(EDNS_MID_CHOICES, dtype=np.int64)
            big = np.array(EDNS_BIG_CHOICES, dtype=np.int64)
            chosen = np.where(is_mid[need_choice], mid[pick], big[pick])
            edns[need_choice] = chosen
        big_buffer = edns >= 1232
        accepts = np.zeros(mt.batch, dtype=bool)
        p_accept = rates.p_accept_given_big
        if p_accept >= 1.0:
            accepts = big_buffer.copy()
        elif p_accept > 0.0:
            big_idx = np.flatnonzero(big_buffer)
            if big_idx.size:
                accepts[big_idx] = draws.random(big_idx) < p_accept
        draws.bits(16, 60_000)                      # ASN (not scanned)
        prefix = _mix_draw(draws, self.prefix_mix)
        return mt.irregular, reachable, randomized, edns, accepts, prefix

    # -- domain columns -------------------------------------------------------

    def _domain_batch(self, lo: int, hi: int, sinks) -> "np.ndarray":
        """The domain counterpart of :meth:`_resolver_batch`."""
        spec = self.spec
        rates = self.rates
        n_ns = spec.ns_per_domain
        materials = self._materials(lo, hi)
        mt = LockstepMT(b"".join(materials))
        draws = _Draws(mt)
        batch = mt.batch

        frag_capable = np.zeros((n_ns, batch), dtype=bool)
        prefix = np.zeros((n_ns, batch), dtype=np.int64)
        min_frag = np.full((n_ns, batch), 1500, dtype=np.int64)
        rrl = np.zeros((n_ns, batch), dtype=bool)
        ipid = np.zeros((n_ns, batch), dtype=bool)
        any_ok = np.zeros((n_ns, batch), dtype=bool)
        # gauss() pairs: even nameservers burn two uniforms, odd ones
        # reuse the cached second normal — the pattern is unconditional,
        # so it is uniform across lockstep streams.
        u_pairs: list[tuple["np.ndarray", "np.ndarray"]] = []
        for sub in range(n_ns):
            capable = draws.chance(rates.p_frag_any)
            frag_capable[sub] = capable
            draws.bits(16, 60_000)                  # ASN (not scanned)
            prefix[sub] = _mix_draw(draws, self.prefix_mix)
            capable_idx = np.flatnonzero(capable)
            if capable_idx.size:
                pick = draws.bits(7, 100, capable_idx)
                min_frag[sub, capable_idx] = self.min_frag[pick]
            rrl[sub] = draws.chance(rates.p_rrl)
            if rates.p_global >= 1.0:
                ipid[sub] = capable
            elif rates.p_global > 0.0 and capable_idx.size:
                ipid[sub, capable_idx] = \
                    draws.random(capable_idx) < rates.p_global
            any_ok[sub] = draws.chance(0.85)
            if sub % 2 == 0:
                u_pairs.append((draws.random(), draws.random()))
        signed = draws.chance(spec.expected_dnssec / 100.0)

        # Base response sizes decide verdicts only on PMTUD-honouring
        # nameservers; the Box–Muller transcendentals run through
        # ``math`` per needed entity so the doubles match CPython's
        # ``gauss`` to the last bit (numpy's SIMD libm may not).
        frag_resp = np.zeros((n_ns, batch), dtype=bool)
        needed = np.flatnonzero(frag_capable.any(axis=0))
        if needed.size:
            base = np.zeros((n_ns, batch), dtype=np.int64)
            for column in needed.tolist():
                for pair, (u1, u2) in enumerate(u_pairs):
                    first = 2 * pair
                    if not frag_capable[first:first + 2, column].any():
                        continue
                    x2pi = float(u1[column]) * _TWO_PI
                    g2rad = math.sqrt(-2.0 * math.log(
                        1.0 - float(u2[column])))
                    base[first, column] = int(
                        140 + math.cos(x2pi) * g2rad * 40)
                    if first + 1 < n_ns:
                        base[first + 1, column] = int(
                            140 + math.sin(x2pi) * g2rad * 40)
            size = np.where(any_ok, base * 6 + 120, base)
            frag_resp = frag_capable & (size > min_frag)

        hijack = (prefix < SUBPREFIX_HIJACKABLE_BELOW).any(axis=0)
        saddns = rrl.any(axis=0) if self.rrl_verdict \
            else np.zeros(batch, dtype=bool)
        frag_any = frag_resp.any(axis=0)
        frag_global = (frag_resp & ipid).any(axis=0)

        for aggregate, sel in _cut_columns(lo, hi, sinks, mt.irregular):
            _fold_domain(aggregate, hijack[sel], saddns[sel],
                         frag_any[sel], frag_global[sel], signed[sel],
                         prefix[:, sel], frag_capable[:, sel],
                         min_frag[:, sel])
        return mt.irregular


# -- numpy column folding ----------------------------------------------------

def _cut_columns(lo: int, hi: int, sinks, irregular):
    """``(aggregate, columns)`` for each cut of batch ``[lo, hi)``,
    leaving out the ``irregular`` columns (the scalar path folds them)."""
    keep = None
    if irregular.size:
        keep = np.ones(hi - lo, dtype=bool)
        keep[irregular] = False
    for cut_lo, cut_hi, aggregate in sinks:
        start = max(lo, cut_lo) - lo
        stop = min(hi, cut_hi) - lo
        if keep is None:
            yield aggregate, slice(start, stop)
        else:
            yield aggregate, np.flatnonzero(keep[start:stop]) + start


def _add_counts(counter, values, counts) -> None:
    for value, count in zip(values.tolist(), counts.tolist()):
        counter[value] += count


def _fold_strata(aggregate: ScanAggregate, hijack, saddns, frag) -> None:
    code = (hijack.astype(np.int64) * 4 + saddns * 2 + frag)
    counts = np.bincount(code, minlength=8)
    strata = aggregate.strata
    for code_value, count in enumerate(counts.tolist()):
        if count:
            strata[_STRATUM_KEYS[
                bool(code_value & 4), bool(code_value & 2),
                bool(code_value & 1)]] += count


def _fold_resolver(aggregate, prefix, reachable, edns, saddns,
                   frag) -> None:
    count = int(prefix.size)
    if not count:
        return
    aggregate.count += count
    hijack = prefix < SUBPREFIX_HIJACKABLE_BELOW
    flags = aggregate.flags
    for name, column in (("hijack", hijack), ("saddns", saddns),
                         ("frag", frag)):
        total = int(column.sum())
        if total:
            flags[name] += total
    _fold_strata(aggregate, hijack, saddns, frag)
    values, counts = np.unique(prefix, return_counts=True)
    _add_counts(aggregate._histogram("prefix_length"), values, counts)
    reachable_edns = edns[reachable]
    if reachable_edns.size:
        values, counts = np.unique(reachable_edns, return_counts=True)
        _add_counts(aggregate._histogram("edns_size"), values, counts)


def _fold_domain(aggregate, hijack, saddns, frag_any, frag_global,
                 signed, prefix, honours, min_frag) -> None:
    count = int(hijack.size)
    if not count:
        return
    aggregate.count += count
    flags = aggregate.flags
    for name, column in (("hijack", hijack), ("saddns", saddns),
                         ("frag_any", frag_any),
                         ("frag_global", frag_global),
                         ("dnssec", signed)):
        total = int(column.sum())
        if total:
            flags[name] += total
    _fold_strata(aggregate, hijack, saddns, frag_any | frag_global)
    values, counts = np.unique(prefix, return_counts=True)
    _add_counts(aggregate._histogram("prefix_length"), values, counts)
    honoured = min_frag[honours]
    if honoured.size:
        values, counts = np.unique(honoured, return_counts=True)
        _add_counts(aggregate._histogram("min_frag_size"), values, counts)


# -- scalar reference range (fallbacks) --------------------------------------

def _scan_scalar_range(spec, seed, lo: int, hi: int,
                       aggregate: ScanAggregate) -> ScanAggregate:
    """The streaming serial scan for ``[lo, hi)`` (the reference path)."""
    observe = aggregate.observe_front_end if aggregate.kind == "resolver" \
        else aggregate.observe_domain
    for entity in iter_entities(spec, seed=seed, lo=lo, hi=hi,
                                reuse_rng=True):
        observe(entity, single_use=True)
    return aggregate


# -- entry point -------------------------------------------------------------

def scan_range(spec, seed, lo: int, hi: int,
               aggregate: ScanAggregate | None = None,
               kernel: str = "auto") -> ScanAggregate:
    """Columnar scan of entities ``[lo, hi)`` of one dataset.

    ``kernel`` is one of :data:`KERNELS`: ``"vector"`` (numpy lockstep,
    ``ValueError`` without numpy), ``"scalar"`` (the per-entity
    reference), or ``"auto"`` (vector when numpy is importable, else
    scalar).  Both paths produce bit-identical aggregates.
    """
    check_kernel(kernel)
    if kernel == "auto":
        kernel = "vector" if HAVE_NUMPY else "scalar"
    if kernel == "vector":
        return VectorScanner(spec, seed).scan(lo, hi, aggregate)
    if aggregate is None:
        aggregate = ScanAggregate(kind=dataset_kind(spec))
    return _scan_scalar_range(spec, seed, lo, hi, aggregate)
