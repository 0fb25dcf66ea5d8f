"""The static name tables of methods, defenses and app drivers.

Each table is built once from a closed tuple; a name or alias claimed
twice would silently shadow one entry, so every table must hold exactly
one key per canonical name and alias.  Unknown names are covered by
``test_unknown_method_raises``, ``test_unknown_defense_fails_loudly`` and
``test_unknown_driver_raises``.
"""

from repro.apps.driver import DRIVER_MODULES, resolve_driver
from repro.defenses.catalog import ALL_DEFENSES, _DEFENSES, resolve_defense
from repro.scenario.registry import ALL_METHODS, _METHODS, resolve_method

from tests.test_core_rng import loaded_modules

# Every concrete application module (those below driver and base).
APP_MODULES = {"repro.apps." + name for name in (
    "bitcoin", "email_", "middlebox", "ntp", "pki", "radius", "tls",
    "vpn", "web", "xmpp")}


class TestNameTables:
    def test_method_names_resolve_to_one_entry(self):
        names = [key for spec in ALL_METHODS
                 for key in (spec.name, *spec.aliases)]
        assert len(_METHODS) == len(names) == 9
        for spec in ALL_METHODS:
            for key in (spec.name, *spec.aliases):
                assert resolve_method(key) is spec
                assert resolve_method(key.upper()) is spec

    def test_defense_names_resolve_to_one_entry(self):
        names = [key for defense in ALL_DEFENSES
                 for key in (defense.key, *defense.aliases)]
        assert len(_DEFENSES) == len(names) == 17
        for defense in ALL_DEFENSES:
            for key in (defense.key, *defense.aliases):
                assert resolve_defense(key) is defense
                assert resolve_defense(key.upper()) is defense

    def test_driver_names_resolve_to_their_driver(self):
        assert len(DRIVER_MODULES) == 20
        for name in DRIVER_MODULES:
            driver = resolve_driver(name)
            assert driver.name == name
            assert resolve_driver(name.upper()) is driver


class TestDriversLoadOnDemand:
    def test_scenario_import_loads_no_application(self):
        loaded = loaded_modules(
            "from repro.scenario import AttackScenario, Campaign")
        assert not loaded & APP_MODULES

    def test_resolving_a_driver_loads_its_module_only(self):
        loaded = loaded_modules(
            "from repro.scenario import AttackScenario, Campaign\n"
            "from repro.apps.driver import resolve_driver\n"
            "resolve_driver('dv')")
        assert "repro.apps.pki" in loaded
        assert "repro.apps.middlebox" not in loaded
