"""AHB+ QoS registers.

Paper §2: *"In order to guarantee QoS of IPs, AHB+ has special internal
registers.  These registers store QoS objective value and the type of
real-time/Non-real time master."*

:class:`QosRegisterFile` is that register block.  Each master has a
:class:`QosSetting` holding its class (RT / NRT) and its latency
objective in cycles.  The arbiter derives an absolute deadline for every
transaction — either the explicit deadline carried by the traffic
(streaming sources know their own deadlines) or ``issue + objective``
for RT masters — and the urgency filter promotes transactions whose
slack has shrunk below the urgency margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ahb.transaction import Transaction
from repro.errors import ConfigError


@dataclass(frozen=True)
class QosSetting:
    """QoS register contents for one master.

    Attributes
    ----------
    real_time:
        RT masters participate in deadline-based arbitration; NRT
        masters never pre-empt on urgency.
    objective_cycles:
        Latency objective: an RT transaction should complete within this
        many cycles of issue.  Ignored for NRT masters.
    """

    real_time: bool = False
    objective_cycles: int = 0

    def __post_init__(self) -> None:
        if self.real_time and self.objective_cycles <= 0:
            raise ConfigError(
                "a real-time master needs a positive QoS objective"
            )
        if self.objective_cycles < 0:
            raise ConfigError("QoS objective cannot be negative")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the register contents."""
        return {
            "real_time": self.real_time,
            "objective_cycles": self.objective_cycles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QosSetting":
        """Rebuild a setting; the constructor re-validates it."""
        unknown = set(data) - {"real_time", "objective_cycles"}
        if unknown:
            raise ConfigError(f"unknown QosSetting fields {sorted(unknown)}")
        return cls(
            real_time=bool(data.get("real_time", False)),
            objective_cycles=int(data.get("objective_cycles", 0)),
        )


class QosRegisterFile:
    """The AHB+ internal QoS register block; :meth:`configure` installs
    each master's setting."""

    def __init__(self, num_masters: int) -> None:
        if num_masters < 1:
            raise ConfigError("register file needs at least one master")
        self.num_masters = num_masters
        self._settings: Dict[int, QosSetting] = {
            index: QosSetting() for index in range(num_masters)
        }
        # Flat RT-class cache: is_real_time() runs per candidate per
        # arbitration round, so it reads a list instead of the dict.
        self._rt_flags: List[bool] = [False] * num_masters
        self.deadline_misses = 0
        self.deadline_hits = 0

    # -- configuration ----------------------------------------------------------

    def configure(self, master: int, setting: QosSetting) -> None:
        """Install *setting* for *master*."""
        self._check_master(master)
        self._settings[master] = setting
        self._rt_flags[master] = setting.real_time

    def setting(self, master: int) -> QosSetting:
        self._check_master(master)
        return self._settings[master]

    def is_real_time(self, master: int) -> bool:
        if 0 <= master < self.num_masters:
            return self._rt_flags[master]
        self._check_master(master)
        return False  # pragma: no cover - _check_master always raises

    def _check_master(self, master: int) -> None:
        if master not in self._settings:
            raise ConfigError(
                f"master {master} outside register file "
                f"(0..{self.num_masters - 1})"
            )

    # -- deadline derivation -------------------------------------------------------

    def deadline_for(self, txn: Transaction) -> Optional[int]:
        """Absolute completion deadline for *txn*, or ``None`` for NRT.

        Explicit per-transaction deadlines (streaming traffic) win over
        the register objective.
        """
        if txn.deadline is not None:
            return txn.deadline
        setting = self._settings.get(txn.master)
        if setting is None or not setting.real_time:
            return None
        return txn.issued_at + setting.objective_cycles

    def record_completion(self, txn: Transaction, deadline: Optional[int]) -> None:
        """Track deadline satisfaction for a completed transaction.

        *deadline* is :meth:`deadline_for` of *txn*, which the arbiter
        computed once when the transaction became a candidate.
        """
        if deadline is None:
            return
        if txn.finished_at <= deadline:
            self.deadline_hits += 1
        else:
            self.deadline_misses += 1
