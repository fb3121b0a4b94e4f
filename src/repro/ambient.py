"""The ambient slot both observation layers read their collector from.

Telemetry (:mod:`repro.telemetry`) and provenance (:mod:`repro.explain`)
each own one process-wide :class:`AmbientSlot` holding the layer's
active collector — its no-op ``NULL`` unless a live one is installed —
and bind their public ``current``/``install``/``activate`` to it, so
the two layers switch on and off independently.  ``docs/TELEMETRY.md``
("The ambient seam") describes the contract.  A leaf module: it
imports nothing from the package.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, TypeVar

__all__ = ["NULL_CONTEXT", "AmbientSlot", "NullContext"]

T = TypeVar("T")


class NullContext:
    """A reusable do-nothing context manager.

    The null collectors hand out the one shared :data:`NULL_CONTEXT`
    where a live collector opens a span or a scope, so a disabled layer
    allocates nothing per instrumented site.
    """

    __slots__ = ()

    def __enter__(self) -> "NullContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_CONTEXT = NullContext()


class AmbientSlot(Generic[T]):
    """One layer's process-wide active collector.

    Args:
        null: The no-op object the slot holds by default and after
            ``install(None)``.
        fresh: Makes the live collector ``activate()`` installs when
            it is given none.
    """

    __slots__ = ("_null", "_fresh", "_active")

    def __init__(self, null: T, fresh: Callable[[], T]) -> None:
        self._null = null
        self._fresh = fresh
        self._active = null

    def current(self) -> T:
        """The installed collector, or the null object when none is."""
        return self._active

    def install(self, collector: Optional[T]) -> T:
        """Make ``collector`` ambient and return the one it replaces.

        ``None`` restores the null object.  Prefer :meth:`activate`,
        which puts the previous collector back on exit.
        """
        previous = self._active
        self._active = collector if collector is not None else self._null
        return previous

    @contextmanager
    def activate(self, collector: Optional[T] = None) -> Iterator[T]:
        """Scoped :meth:`install`, yielding the activated collector.

        The previous collector is restored on exit, also when the block
        raises.  ``None`` activates a fresh live collector.
        """
        active = collector if collector is not None else self._fresh()
        previous = self.install(active)
        try:
            yield active
        finally:
            self.install(previous)
