"""When a run's read-only clients run: interleaved, or in waves.

A read-only client never influences anything — not the server, not the
broadcast, not another client (it commits without the uplink,
Sec. 3.2.1) — so a run may schedule its readers however is cheapest,
and every schedule gives bit-identical results.  Two schedules run the
same kernel (:mod:`repro.sim.kernel`) under the same calendar
(:mod:`repro.sim.cohort`):

* **interleaved** — every client under one calendar from t = 0.  A slot
  event settles every reader waiting for that slot, and the timeline
  keeps only the images still on the air; but every reader's state
  (about :data:`READER_BYTES` a begun client) lives for the whole run.
* **waved** — the updaters first, then the readers ``W`` at a time
  (:func:`repro.sim.analytic.run_analytic`).  Only one wave's readers are
  alive, but the timeline keeps every image the run installs, and each
  wave walks the timeline again with fewer readers per slot event.

:func:`schedule_for` picks one for a ``cohort`` run (or shard slice)
from the config alone, before the run starts.  The model is bucket
occupancy — how many readers share one slot event:

* a reader makes ``cycle / (think + cycle / 2)`` reads a cycle (a think
  delay, then on average half a cycle to the object's slot);
* a wave of ``W`` readers puts ``W × reads per cycle / slots per cycle``
  of them on an average slot event, so ``W = ⌈O × slots ÷ reads⌉``
  holds :data:`READERS_PER_SLOT` (O) there — the occupancy the wave
  sweep on ``reader-fleet``'s config was fastest at
  (docs/PERFORMANCE.md §5 has the table);
* the run waves only if ``W`` leaves at least two waves and the images
  it must then retain — cycles spanned × columns replaced per cycle × n
  × 8 bytes — weigh less than the readers it no longer holds,
  ``(readers − W) × READER_BYTES``.

``client_executor="analytic"`` forces waves of
:data:`repro.sim.analytic.WAVE`; ``"process"`` is the per-process
reference and has no schedule to choose.  The choice and its numbers
are the run's ``schedule``
(:class:`~repro.sim.simulation.SimulationResult`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from ..broadcast.layout import MultiDiskLayout
from . import analytic
from .config import SimulationConfig

__all__ = [
    "READERS_PER_SLOT",
    "READER_BYTES",
    "Schedule",
    "retained_image_bytes",
    "schedule_for",
    "wave_size",
]

#: readers an average slot event settles under the model's wave size:
#: fitted to the wave sweep on reader-fleet's config (fastest at W = 512,
#: which is 60 readers a slot event there)
READERS_PER_SLOT = 60

#: bytes a begun read-only client holds (workload blocks, tapes,
#: validator, kernel), from the per-client table of docs/PERFORMANCE.md
READER_BYTES = 2226

_MIB = 1 << 20

# test hooks, never a config field: the mode every cohort run takes
# instead of the model's ("interleaved" / "waved"), and a bound on the
# wave size of every waved cohort run (None: the model decides)
_pinned_mode: Optional[str] = None
_wave_bound: Optional[int] = None


@dataclass(frozen=True)
class Schedule:
    """How one simulation (or shard slice) ran its read-only clients."""

    #: "interleaved", "waved" or, under the reference executor, "per-process"
    mode: str
    #: readers per wave when waved; 0 otherwise
    wave: int
    #: the read-only clients this simulation ran
    readers: int
    #: one line: why, with the model's numbers
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def wave_size(config: SimulationConfig) -> int:
    """The model's wave: ``⌈O × slots per cycle ÷ reads per cycle⌉``."""
    layout = config.layout()
    slots = (
        len(layout.schedule)
        if isinstance(layout, MultiDiskLayout)
        else layout.num_objects
    )
    return math.ceil(READERS_PER_SLOT * slots / _reads_per_cycle(config))


def _reads_per_cycle(config: SimulationConfig) -> float:
    cycle = config.cycle_bits
    return cycle / (config.mean_inter_operation_delay + cycle / 2)


def retained_image_bytes(config: SimulationConfig) -> float:
    """What keeping every image costs: cycles spanned × columns replaced
    per cycle × n × 8 (sealed columns are shared between images)."""
    cycle = config.cycle_bits
    n = config.num_objects
    transaction = config.mean_inter_transaction_delay + config.client_txn_length * (
        config.mean_inter_operation_delay + cycle / 2
    )
    cycles = config.num_client_transactions * transaction / cycle
    server_writes = config.server_txn_length * (1.0 - config.server_read_probability)
    client_writes = (
        config.update_capable_clients()
        * config.client_update_fraction
        * config.client_txn_length
        * config.client_update_write_fraction
        / transaction
    )
    per_bit = server_writes / config.server_txn_interval + client_writes
    columns = min(n, per_bit * cycle)
    return cycles * columns * n * 8


def schedule_for(config: SimulationConfig, readers: int) -> Schedule:
    """The schedule of a simulation of ``config`` running ``readers``
    read-only clients (all of them, or one shard's slice)."""
    executor = config.client_executor
    if executor == "process":
        return Schedule(
            "per-process", 0, readers, "client_executor='process': the reference"
        )
    if executor == "analytic":
        return Schedule(
            "waved",
            analytic.WAVE,
            readers,
            f"client_executor='analytic' forces waves of {analytic.WAVE}",
        )
    wave = wave_size(config)
    images = retained_image_bytes(config)
    saved = max(0, readers - wave) * READER_BYTES
    numbers = (
        f"W = {wave} ({READERS_PER_SLOT} readers a slot event at "
        f"{_reads_per_cycle(config):.2f} reads a cycle), images "
        f"~{images / _MIB:.1f} MiB vs readers saved ~{saved / _MIB:.1f} MiB"
    )
    if readers <= wave:
        mode, why = "interleaved", f"{readers} reader(s) fit one wave"
    elif images >= saved:
        mode, why = "interleaved", "the images outweigh the readers saved"
    else:
        mode, why = "waved", "waved"
    if _pinned_mode is not None:
        mode, why = _pinned_mode, f"pinned {_pinned_mode} by a test"
    if mode == "interleaved":
        return Schedule(mode, 0, readers, f"{why}: {numbers}")
    if _wave_bound is not None:
        wave = min(wave, _wave_bound)
    # even waves: no short last wave walking the whole timeline again
    waves = max(1, math.ceil(readers / wave))
    wave = max(1, math.ceil(readers / waves))
    return Schedule(mode, wave, readers, f"{why}, {waves} waves of {wave}: {numbers}")
