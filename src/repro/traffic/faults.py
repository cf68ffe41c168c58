"""Seeded fault injection: error-capable slaves at every engine.

The AHB response codes ``ERROR``/``RETRY`` exist in
:mod:`repro.ahb.types` but the seed codebase never exercised them.  A
:class:`FaultSpec` makes any slave answer a seeded-deterministic subset
of transfers with a non-OKAY response — at the TLM, the plain-AHB
baseline and the pin-accurate RTL alike.

Determinism across engines is the whole point: a fault *plan* (the
sequence of non-OKAY responses a transfer will receive, one per bus
presentation) is stamped onto the :class:`~repro.ahb.transaction.Transaction`
at traffic-build time, derived purely from ``(spec.seed, master index,
per-master ordinal)`` with arithmetic mixing — never from engine state,
timing, or Python ``hash()``.  Every engine therefore observes the
identical ERROR/RETRY sequence for every transaction, and the
cross-engine equivalence harness can keep asserting equality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.ahb.transaction import Transaction
from repro.ahb.types import HResp
from repro.errors import ConfigError

__all__ = ["FaultSpec", "FaultInjector", "plan_for"]


def _mix(seed: int, master: int, ordinal: int) -> int:
    """Mix (seed, master, ordinal) into a 64-bit stream seed.

    Pure arithmetic (splitmix-style) so the value is stable across
    processes and Python versions — ``hash()`` is unusable here.
    """
    x = (
        seed * 0x9E3779B97F4A7C15
        + (master + 1) * 0xBF58476D1CE4E5B9
        + (ordinal + 1) * 0x94D049BB133111EB
    ) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    return x


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault model for a slave or a whole workload.

    Parameters
    ----------
    seed:
        Fault stream seed; independent of the workload's traffic seed so
        the same traffic can be replayed with and without faults.
    error_rate:
        Probability that a matching transfer is answered with ``ERROR``
        on its first presentation (the master aborts it).
    retry_rate:
        Probability that a matching transfer receives a run of ``RETRY``
        responses (length drawn in ``1..max_retries``) before the slave
        lets it through — or the master gives up, if the run exceeds
        ``retry_limit``.
    max_retries:
        Upper bound on the drawn RETRY-run length.
    retry_limit:
        Retry budget stamped on faulted transactions (the master aborts
        after this many RETRYs).
    window_base / window_size:
        Optional address window; only transfers whose first beat falls
        inside it are eligible.  When a spec rides on a
        :class:`~repro.system.spec.SlaveSpec` the platform builder
        defaults the window to that slave's address range.
    """

    seed: int = 0
    error_rate: float = 0.0
    retry_rate: float = 0.0
    max_retries: int = 2
    retry_limit: int = 4
    window_base: Optional[int] = None
    window_size: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError(f"error_rate must be in [0, 1], got {self.error_rate}")
        if not 0.0 <= self.retry_rate <= 1.0:
            raise ConfigError(f"retry_rate must be in [0, 1], got {self.retry_rate}")
        if self.error_rate + self.retry_rate > 1.0:
            raise ConfigError(
                "error_rate + retry_rate must not exceed 1.0, got "
                f"{self.error_rate + self.retry_rate}"
            )
        if self.max_retries < 1:
            raise ConfigError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.retry_limit < 0:
            raise ConfigError(f"retry_limit must be >= 0, got {self.retry_limit}")
        if (self.window_base is None) != (self.window_size is None):
            raise ConfigError(
                "window_base and window_size must be given together"
            )
        if self.window_size is not None and self.window_size <= 0:
            raise ConfigError(f"window_size must be positive, got {self.window_size}")
        if self.window_base is not None and self.window_base < 0:
            raise ConfigError(f"window_base cannot be negative, got {self.window_base}")

    @property
    def active(self) -> bool:
        """True when the spec can actually fault something."""
        return self.error_rate > 0.0 or self.retry_rate > 0.0

    def matches(self, addr: int) -> bool:
        """Whether a first-beat address is inside the fault window."""
        if self.window_base is None:
            return True
        assert self.window_size is not None
        return self.window_base <= addr < self.window_base + self.window_size

    def windowed(self, base: int, size: int) -> "FaultSpec":
        """Copy with the window defaulted to ``[base, base+size)``."""
        if self.window_base is not None:
            return self
        return replace(self, window_base=base, window_size=size)

    def plan(self, master: int, ordinal: int) -> Tuple[int, ...]:
        """Draw the fault plan for one transaction.

        Depends only on ``(seed, master, ordinal)`` — not on the
        transaction's content or any engine state — so replaying the
        same traffic yields the same plan everywhere.
        """
        rng = random.Random(_mix(self.seed, master, ordinal))
        roll = rng.random()
        if roll < self.error_rate:
            return (int(HResp.ERROR),)
        if roll < self.error_rate + self.retry_rate:
            return (int(HResp.RETRY),) * rng.randint(1, self.max_retries)
        return ()

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown FaultSpec fields: {sorted(unknown)}"
            )
        return cls(**payload)  # type: ignore[arg-type]


def plan_for(
    specs: Sequence[FaultSpec], master: int, ordinal: int, addr: int
) -> Tuple[int, ...]:
    """First matching spec's plan for a transaction (empty when none)."""
    for spec in specs:
        if not spec.active or not spec.matches(addr):
            continue
        plan = spec.plan(master, ordinal)
        if plan:
            return plan
    return ()


class FaultInjector:
    """Re-iterable wrapper stamping fault plans onto a traffic source.

    Wraps any iterable of :class:`~repro.ahb.master.TrafficItem` (a
    generated item list, a trace replay) and stamps
    ``fault_plan``/``retry_limit`` onto eligible transactions as they
    stream past.  The per-master ordinal counts *every* item — faulted
    or not — so plans stay aligned with the traffic regardless of the
    address windows in play.

    Transactions that already carry a plan (trace replay of a faulted
    run) are passed through untouched: restored plans win.
    """

    def __init__(
        self,
        items: Iterable,
        master: int,
        specs: Sequence[FaultSpec],
    ) -> None:
        self._items = items
        self._master = master
        self._specs = tuple(specs)

    def __iter__(self) -> Iterator:
        specs = self._specs
        master = self._master
        for ordinal, item in enumerate(self._items):
            txn: Transaction = item.txn
            if not txn.fault_plan:
                plan = plan_for(specs, master, ordinal, txn.addr)
                if plan:
                    txn.fault_plan = plan
                    for spec in specs:
                        if spec.active and spec.matches(txn.addr):
                            txn.retry_limit = spec.retry_limit
                            break
            yield item
