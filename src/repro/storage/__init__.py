"""Storage substrate: the PRIMA-like two-layer engine (§5).

The paper reports that the PRIMA prototype's "internal architecture shows two
main components influenced by the construction of the molecule algebra: the
basic component provides an atom-oriented interface (similar to the
functionality of atom-type algebra) for the second component that performs
molecule processing and implements an MQL interface".

This package reproduces that architecture in memory:

* :mod:`repro.storage.engine` — the two-layer :class:`PrimaEngine`: an
  atom-oriented interface below, a molecule-processing interface (backed by
  the molecule algebra and MQL) above — two interfaces over one versioned
  :class:`~repro.core.database.Database`, the engine's only copy of the state,
* :mod:`repro.storage.index` — the hash and grid indexes the engine's
  accelerator store (:mod:`repro.storage.accelerators`) serves value
  lookups from,
* :mod:`repro.storage.network` — the atom-network report of the Fig. 1
  benchmark (degrees, components), built on demand from the link types.

The substitution from the paper's C/mainframe prototype to pure Python is
documented in DESIGN.md; the layering and the operation split are preserved.
"""

from repro.storage.engine import PrimaEngine, SnapshotHandle
from repro.storage.index import HashIndex
from repro.storage.network import AtomNetwork
from repro.storage.recovery import RecoveryResult
from repro.storage.replication import (
    FollowerEngine,
    ReplicationError,
    ReplicationHub,
)
from repro.storage.wal import DurabilityConfig, WalError, WriteAheadLog, read_wal

__all__ = [
    "AtomNetwork",
    "DurabilityConfig",
    "FollowerEngine",
    "HashIndex",
    "PrimaEngine",
    "RecoveryResult",
    "ReplicationError",
    "ReplicationHub",
    "SnapshotHandle",
    "WalError",
    "WriteAheadLog",
    "read_wal",
]
