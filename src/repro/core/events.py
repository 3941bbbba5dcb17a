"""Change events over atom and link occurrences.

The write pipeline needs a single source of truth about *what changed*:
the storage engine maintains its hash indexes and atom network
incrementally instead of rebuilding them, and it learns about mutations by
subscribing to the database they happen on.  Five event kinds cover every
occurrence-level mutation of the MAD model:

* ``atom_inserted`` / ``atom_deleted`` — an atom entered or left an atom
  type's occurrence;
* ``atom_modified`` — an atom's values were replaced in place (identity
  preserved, links untouched);
* ``link_connected`` / ``link_disconnected`` — a link entered or left a link
  type's occurrence.

Emission is deliberately synchronous and in mutation order: a listener that
replays the events against a copy of the pre-state reaches the post-state.
Types without listeners pay a single attribute check per mutation, so the
algebra layers (which create large numbers of transient result types) are
unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.atom import Atom
    from repro.core.link import Link

#: The five occurrence-level mutation kinds.
ATOM_INSERTED = "atom_inserted"
ATOM_DELETED = "atom_deleted"
ATOM_MODIFIED = "atom_modified"
LINK_CONNECTED = "link_connected"
LINK_DISCONNECTED = "link_disconnected"

EVENT_KINDS: Tuple[str, ...] = (
    ATOM_INSERTED,
    ATOM_DELETED,
    ATOM_MODIFIED,
    LINK_CONNECTED,
    LINK_DISCONNECTED,
)


@dataclass(frozen=True)
class ChangeEvent:
    """One occurrence-level mutation of an atom or link type.

    ``type_name`` names the atom type (atom events) or link type (link
    events).  ``atom`` carries the post-state for inserts/modifications and
    the removed atom for deletions; ``previous`` carries the pre-state of a
    modification; ``link`` carries the connected/disconnected link.
    """

    kind: str
    type_name: str
    atom: "Optional[Atom]" = None
    link: "Optional[Link]" = None
    previous: "Optional[Atom]" = None
    #: Version-clock stamp of the mutation (``None`` when the owning
    #: database has no versioning enabled).  Listeners that maintain
    #: generation-stamped caches synchronize on it.
    generation: "Optional[int]" = None

    def __repr__(self) -> str:
        subject = self.atom.identifier if self.atom is not None else self.link
        return f"ChangeEvent({self.kind}, {self.type_name!r}, {subject!r})"


Listener = Callable[[ChangeEvent], None]


class ChangeEmitter:
    """An ordered list of listeners attached to one atom or link type.

    Emitters are created lazily by the owning type; databases attach their
    subscribers to the emitters of every registered type.  ``emit`` is a
    no-op without listeners, which keeps the algebra layers' transient result
    types free of overhead.
    """

    __slots__ = ("_listeners",)

    def __init__(self) -> None:
        self._listeners: List[Listener] = []

    @property
    def listeners(self) -> Tuple[Listener, ...]:
        return tuple(self._listeners)

    def subscribe(self, listener: Listener) -> None:
        """Attach *listener*; repeated subscription is idempotent."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Listener) -> None:
        """Detach *listener* (no error when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def emit(self, event: ChangeEvent) -> None:
        """Deliver *event* to every listener in subscription order."""
        for listener in list(self._listeners):
            listener(event)

    def __len__(self) -> int:
        return len(self._listeners)
