"""The Table 1 applications in row order, one per app driver.

Importing this module loads every application module; a scenario that
names one driver loads only that driver's module.
"""

from repro.apps.base import Application
from repro.apps.driver import DRIVER_MODULES, resolve_driver

ALL_APPLICATIONS: list[type[Application]] = [
    resolve_driver(name).application for name in DRIVER_MODULES]
