"""Tests for deterministic namespaced randomness."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core.rng import BULK_DRAWS, DeterministicRNG, derive_rng

# Run lengths on both sides of the bulk-draw threshold, up to one SadDNS
# flood chunk, plus any length.
_RUN_LENGTHS = st.one_of(
    st.sampled_from([BULK_DRAWS - 1, BULK_DRAWS, BULK_DRAWS + 1, 4096]),
    st.integers(min_value=0, max_value=2 * BULK_DRAWS))


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code + report], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def _repro_modules(modules: set[str]) -> set[str]:
    return {name for name in modules
            if name == "repro" or name.startswith("repro.")}


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(7)
        b = DeterministicRNG(7)
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRNG(7)
        b = DeterministicRNG(8)
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]

    def test_string_and_bytes_seeds_accepted(self):
        assert DeterministicRNG("label").random() == \
            DeterministicRNG("label").random()
        assert DeterministicRNG(b"raw").random() == \
            DeterministicRNG(b"raw").random()

    def test_derive_is_deterministic(self):
        parent = DeterministicRNG(1)
        assert parent.derive("x").random() == \
            DeterministicRNG(1).derive("x").random()

    def test_derived_labels_independent(self):
        parent = DeterministicRNG(1)
        assert parent.derive("a").random() != parent.derive("b").random()

    def test_derivation_unaffected_by_consumption(self):
        """Consuming the parent stream must not shift children."""
        parent1 = DeterministicRNG(9)
        parent1.random()
        parent2 = DeterministicRNG(9)
        assert parent1.derive("child").random() == \
            parent2.derive("child").random()


class TestHelpers:
    def test_pick_port_in_range(self):
        rng = DeterministicRNG(3)
        for _ in range(100):
            assert 1024 <= rng.pick_port() <= 65535

    def test_pick_port_custom_range(self):
        rng = DeterministicRNG(3)
        for _ in range(50):
            assert 4000 <= rng.pick_port(4000, 4010) <= 4010

    def test_pick_txid_16_bit(self):
        rng = DeterministicRNG(3)
        for _ in range(100):
            assert 0 <= rng.pick_txid() <= 0xFFFF

    @given(st.integers(min_value=-2**63, max_value=2**63),
           st.one_of(_RUN_LENGTHS, st.integers(min_value=0,
                                               max_value=10_000)),
           st.integers(min_value=0, max_value=3))
    def test_pick_txids_is_n_pick_txid_calls(self, seed, n, warmup):
        bulk, single = DeterministicRNG(seed), DeterministicRNG(seed)
        for rng in (bulk, single):
            # Start mid-stream, at any offset into the Mersenne block.
            rng.getrandbits(32 * warmup + 1)
        drawn = bulk.pick_txids(n)
        assert drawn.typecode == "H"
        assert list(drawn) == [single.pick_txid() for _ in range(n)]
        assert bulk.getstate() == single.getstate()

    @given(st.integers(min_value=-2**63, max_value=2**63),
           st.sampled_from([1, 6, 1000, 64512, 2**16, 2**31, 2**32 - 1]),
           _RUN_LENGTHS,
           st.integers(min_value=0, max_value=3))
    def test_below_many_is_n_randint_calls(self, seed, width, n, warmup):
        bulk, single = DeterministicRNG(seed), DeterministicRNG(seed)
        for rng in (bulk, single):
            rng.getrandbits(32 * warmup + 1)
        assert bulk.below_many(width, n) \
            == [single.randint(0, width - 1) for _ in range(n)]
        assert bulk.getstate() == single.getstate()

    @pytest.mark.parametrize("width", [6, 64512, 2**16, 2**32 - 1])
    @pytest.mark.parametrize("n", [50, BULK_DRAWS - 1, BULK_DRAWS, 4096])
    def test_below_many_without_numpy_draws_the_same(self, monkeypatch,
                                                     width, n):
        with_numpy = DeterministicRNG(width + n)
        drawn = with_numpy.below_many(width, n)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        without = DeterministicRNG(width + n)
        assert without.below_many(width, n) == drawn
        assert without.getstate() == with_numpy.getstate()

    @pytest.mark.parametrize("n", [50, BULK_DRAWS, 4096])
    def test_pick_txids_without_numpy_draws_the_same(self, monkeypatch, n):
        with_numpy = DeterministicRNG(n)
        drawn = with_numpy.pick_txids(n)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        without = DeterministicRNG(n)
        assert without.pick_txids(n) == drawn
        assert without.getstate() == with_numpy.getstate()

    def test_import_repro_loads_no_numpy(self):
        """numpy is imported only by the draws that use it."""
        assert "numpy" not in loaded_modules("import repro")

    def test_import_repro_loads_no_layer(self):
        """The public names load their layer on first use."""
        assert _repro_modules(loaded_modules("import repro")) == {"repro"}

    def test_campaign_loads_neither_numpy_nor_the_atlas(self):
        loaded = loaded_modules(
            "from repro.scenario import AttackScenario, Campaign\n"
            "Campaign(executor='serial').run_pairs(\n"
            "    [(AttackScenario(method='hijack'), 1)])")
        assert "numpy" not in loaded
        assert not {name for name in _repro_modules(loaded)
                    if name.startswith(("repro.atlas", "repro.store"))
                    or name == "repro.parallel.kernel"}

    def test_atlas_scan_loads_no_simulator(self):
        loaded = loaded_modules(
            "from repro.atlas.shards import find_dataset\n"
            "from repro.parallel.kernel import scan_range\n"
            "scan_range(find_dataset('open'), 0, 0, 1000)")
        simulator = {name for name in _repro_modules(loaded)
                     if name.startswith((
                         "repro.scenario", "repro.attacks", "repro.apps",
                         "repro.dns", "repro.netsim.", "repro.core.clock",
                         "repro.core.eventlog"))}
        assert simulator <= {"repro.netsim.ratelimit"}

    @pytest.mark.parametrize("module", ["repro.parallel.kernel",
                                        "repro.parallel.mt"])
    def test_scan_modules_import_first(self, module):
        """No package init closes an import cycle back into them."""
        assert module in loaded_modules(f"import {module}")

    @pytest.mark.parametrize("width", [2**32, 2**40, 0, -6])
    def test_below_many_rejects_widths_it_cannot_draw(self, width):
        rng = DeterministicRNG(1)
        state = rng.getstate()
        with pytest.raises(ValueError):
            rng.below_many(width, 3)
        assert rng.getstate() == state

    # (population size, k): CPython's pool path for a population no
    # larger than a k-set (``n <= setsize``), its set path beyond that,
    # and populations wider than 32 bits.
    @pytest.mark.parametrize("n, k", [
        (1, 1), (10, 0), (10, 10), (21, 5), (277, 50),    # pool
        (22, 5), (100, 3), (278, 50), (1000, 50), (64511, 50),
        (0x10000, 64), (20000, 4000),                     # set
        (2**32, 7), (2**40, 7)])                          # wide
    @given(seed=st.integers(min_value=-2**63, max_value=2**63),
           warmup=st.integers(min_value=0, max_value=3))
    def test_pick_sample_is_sample(self, n, k, seed, warmup):
        bulk, single = DeterministicRNG(seed), DeterministicRNG(seed)
        for rng in (bulk, single):
            rng.getrandbits(32 * warmup + 1)
        population = range(n) if n > 5000 else list(range(n, 2 * n))
        assert bulk.pick_sample(population, k) == single.sample(population, k)
        assert bulk.getstate() == single.getstate()

    @pytest.mark.parametrize("population, k, error", [
        (range(300), 301, ValueError), (range(300), -1, ValueError),
        (set(range(300)), 5, TypeError)])
    def test_pick_sample_raises_what_sample_raises(self, population, k,
                                                   error):
        with pytest.raises(error):
            DeterministicRNG(1).pick_sample(population, k)

    def test_chance_extremes(self):
        rng = DeterministicRNG(3)
        assert not rng.chance(0.0)
        assert rng.chance(1.0)
        assert not rng.chance(-1.0)
        assert rng.chance(2.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_chance_returns_bool(self, probability):
        assert isinstance(DeterministicRNG(0).chance(probability), bool)

    def test_chance_statistics(self):
        rng = DeterministicRNG(42)
        hits = sum(rng.chance(0.3) for _ in range(10_000))
        assert 2700 < hits < 3300

    def test_derive_rng_shortcut(self):
        assert derive_rng(5, "x").random() == \
            DeterministicRNG(5).derive("x").random()
