"""The checked ``_replace`` of the simulator's tuple-backed value types.

A ``typing.NamedTuple`` subclass that checks its fields in ``__new__``
loses those checks in the inherited ``_replace``, which builds the copy
with ``tuple.__new__``.  Each checking class assigns
:func:`checked_replace` as its ``_replace`` instead.
"""

from __future__ import annotations

from typing import Any


def checked_replace(self: Any, **changes: Any) -> Any:
    """Copy of ``self`` with ``changes``, built through its class's
    ``__new__`` and so checked like a new value."""
    return type(self)(**{**self._asdict(), **changes})
