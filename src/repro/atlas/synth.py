"""Sharded population synthesis: constant-memory entity streams.

These streams are the one source of every Table 3/4 population: the
sampled survey tables and Figures 3-5 take a stream's first
``sample_size`` entities, the full scans stream all of them.  Every
entity derives its own RNG stream from ``(seed, kind, dataset, index)``
and its addresses from ``index`` alone, then runs the per-entity draw
kernel (:func:`repro.measurements.population.draw_resolver_profile` /
:func:`draw_domain_profile`), so entity *N* never waits for entities
*0..N-1*.  Consequences:

* a shard producer can start at any index — shards are seekable;
* concatenating shard streams in index order is **bit-for-bit equal**
  to the monolithic ``[0, entities)`` stream (each entity depends only
  on its own index);
* producers are generators: memory stays constant no matter whether the
  population is 40 entities or the paper's 1.58M open resolvers.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

from repro.core.rng import DeterministicRNG
from repro.measurements.population import (
    DomainDatasetSpec,
    DomainProfile,
    FrontEnd,
    MixSampler,
    ResolverDatasetSpec,
    domain_rates,
    draw_domain_profile,
    draw_resolver_profile,
    resolver_prefix_mix,
    resolver_rates,
)
# An 11.0.0.0-based stride walk, computed from the entity index so any
# shard can address its entities without a shared counter.
_ADDRESS_BASE = 0x0B000000
_ADDRESS_STRIDE = 7


def atlas_address(slot: int) -> str:
    """Deterministic address for one global entity/sub-entity slot."""
    # int_to_ip inlined: the masked value is always in range, and this
    # runs once per sub-entity over million-entity populations.
    value = (_ADDRESS_BASE + (slot + 1) * _ADDRESS_STRIDE) \
        & 0xDFFFFFFF | _ADDRESS_BASE
    return (f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}"
            f".{(value >> 8) & 0xFF}.{value & 0xFF}")


def _dataset_rng(seed: int | str, kind: str, key: str) -> DeterministicRNG:
    return DeterministicRNG(seed).derive(f"atlas/{kind}/{key}")


def iter_front_ends(spec: ResolverDatasetSpec, seed: int | str = 0,
                    lo: int = 0, hi: int | None = None,
                    reuse_rng: bool = False) -> Iterator[FrontEnd]:
    """Stream front-end systems ``lo..hi`` of one Table 3 population.

    ``reuse_rng=True`` is the streaming fast path for consumers that
    fully process each entity before advancing (the shard scanners): the
    per-entity and per-resolver RNGs are one pair of scratch generators
    re-derived in place — bit-identical streams, no per-entity generator
    allocations — so entities from earlier iterations must not be
    retained (their ``icmp.rng`` is re-seeded by the next iteration).
    """
    if hi is None:
        hi = spec.full_size
    root = _dataset_rng(seed, "resolver", spec.key)
    prefix_mix = MixSampler(resolver_prefix_mix(spec))
    rates = resolver_rates(spec)
    per_fe = spec.resolvers_per_frontend
    # Loop-invariant labels and prefixes, hoisted: this loop runs once
    # per entity over million-entity populations.
    icmp_labels = [f"icmp-{sub}" for sub in range(per_fe)]
    subs = range(per_fe)
    key_prefix = spec.key + "-"
    if reuse_rng:
        scratch = DeterministicRNG(0)
        scratch_icmps = [DeterministicRNG(0) for _ in subs]
        for index in range(lo, hi):
            text = str(index)
            scratch.rederive(root, text)
            base_slot = index * per_fe
            resolvers = []
            for sub in subs:
                icmp_rng = scratch_icmps[sub]
                icmp_rng.rederive(scratch, icmp_labels[sub])
                resolvers.append(draw_resolver_profile(
                    scratch, spec, atlas_address(base_slot + sub),
                    prefix_mix=prefix_mix, icmp_rng=icmp_rng,
                    rates=rates,
                ))
            yield FrontEnd(identifier=key_prefix + text,
                           resolvers=resolvers)
        return
    derive = root.derive
    for index in range(lo, hi):
        rng = derive(str(index))
        base_slot = index * per_fe
        resolvers = [
            draw_resolver_profile(
                rng, spec, atlas_address(base_slot + sub),
                prefix_mix=prefix_mix,
                icmp_rng=rng.derive(icmp_labels[sub]),
                rates=rates,
            )
            for sub in subs
        ]
        yield FrontEnd(identifier=key_prefix + str(index),
                       resolvers=resolvers)


def iter_domains(spec: DomainDatasetSpec, seed: int | str = 0,
                 lo: int = 0, hi: int | None = None,
                 reuse_rng: bool = False) -> Iterator[DomainProfile]:
    """Stream domains ``lo..hi`` of one Table 4 population.

    ``reuse_rng`` re-derives one scratch generator per entity in place
    (see :func:`iter_front_ends`); domain entities never retain their
    RNG, so the only constraint is streaming consumption.
    """
    if hi is None:
        hi = spec.full_size
    root = _dataset_rng(seed, "domain", spec.key)
    rates = domain_rates(spec)
    n_ns = spec.ns_per_domain
    subs = range(n_ns)
    key_prefix = spec.key + "-"
    if reuse_rng:
        scratch = DeterministicRNG(0)
        for index in range(lo, hi):
            text = str(index)
            scratch.rederive(root, text)
            base_slot = index * n_ns
            addresses = [atlas_address(base_slot + sub) for sub in subs]
            yield draw_domain_profile(scratch, spec,
                                      key_prefix + text + ".example",
                                      addresses, rates=rates)
        return
    derive = root.derive
    for index in range(lo, hi):
        rng = derive(str(index))
        base_slot = index * n_ns
        addresses = [atlas_address(base_slot + sub) for sub in subs]
        yield draw_domain_profile(rng, spec,
                                  key_prefix + str(index) + ".example",
                                  addresses, rates=rates)


def iter_entities(spec, seed: int | str = 0, lo: int = 0,
                  hi: int | None = None,
                  reuse_rng: bool = False
                  ) -> Iterator[FrontEnd | DomainProfile]:
    """Kind-dispatching entity stream for one dataset."""
    if isinstance(spec, ResolverDatasetSpec):
        return iter_front_ends(spec, seed=seed, lo=lo, hi=hi,
                               reuse_rng=reuse_rng)
    return iter_domains(spec, seed=seed, lo=lo, hi=hi, reuse_rng=reuse_rng)


def stream_checksum(entities: Iterable[FrontEnd | DomainProfile]) -> str:
    """Rolling digest of an entity stream (order-sensitive, O(1) memory).

    Used by ``python -m repro.atlas synth --verify`` to prove that a
    shard-merged stream equals the monolithic stream without ever
    holding either in memory.
    """
    digest = hashlib.sha256()
    for entity in entities:
        if isinstance(entity, FrontEnd):
            digest.update(entity.identifier.encode())
            for resolver in entity.resolvers:
                digest.update(repr((
                    resolver.address, resolver.asn, resolver.prefix_length,
                    resolver.reachable, resolver.icmp.randomized,
                    resolver.accepts_fragments, resolver.edns_size,
                )).encode())
        else:
            digest.update(entity.name.encode())
            digest.update(b"1" if entity.signed else b"0")
            for ns in entity.nameservers:
                digest.update(repr((
                    ns.address, ns.asn, ns.prefix_length, ns.honours_ptb,
                    ns.min_frag_size, ns.rrl_enabled, ns.ipid_global,
                    ns.supports_any, ns.base_response_size,
                )).encode())
    return digest.hexdigest()
