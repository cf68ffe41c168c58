"""The AHB+ arbiter: filter pipeline plus request pipelining.

The arbiter runs the seven-filter chain over the candidate set each
round and exposes per-filter narrowing statistics (the paper's §3.6
"profiling features ... in some internal functions such as arbiter").

Request pipelining (paper §2: *"AHB+ hides the latencies incurred
between the requests of masters by pipelining the master requests"*)
lives in the bus engine, which asks the arbiter for the *next* winner a
few cycles before the current transfer ends and forwards the decision to
the DDRC over the Bus Interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.filters import (
    ArbitrationContext,
    ArbitrationFilter,
    Candidate,
    TieBreakFilter,
    default_filter_chain,
    narrow,
)
from repro.errors import ConfigError, SimulationError


class AhbPlusArbiter:
    """Filter-pipeline arbiter of the AHB+ main bus."""

    def __init__(
        self,
        filters: Optional[Sequence[ArbitrationFilter]] = None,
        tie_break: str = "fixed",
        num_masters: int = 16,
    ) -> None:
        if filters is None:
            filters = default_filter_chain(tie_break, num_masters)
        self.filters: List[ArbitrationFilter] = list(filters)
        if not self.filters or not isinstance(self.filters[-1], TieBreakFilter):
            raise ConfigError("the filter chain must end with the tie-break filter")
        self._tie_break: TieBreakFilter = self.filters[-1]
        self._enabled_chain()
        self.rounds = 0

    # -- configuration -----------------------------------------------------------

    def set_filter_enabled(self, name: str, enabled: bool) -> None:
        """Toggle one filter by name (paper §3.7 per-algorithm on/off)."""
        for filt in self.filters:
            if filt.name == name:
                if isinstance(filt, TieBreakFilter) and not enabled:
                    raise ConfigError("the tie-break filter cannot be disabled")
                filt.enabled = enabled
                self._enabled_chain()
                return
        raise ConfigError(f"no arbitration filter named {name!r}")

    def add_filter(self, filt: ArbitrationFilter) -> None:
        """Insert a custom narrowing filter just ahead of the tie-break."""
        self.filters.insert(-1, filt)
        self._enabled_chain()

    def _enabled_chain(self) -> None:
        """Rebuild the list of enabled narrowing filters ``choose`` runs."""
        self._narrowing = [f for f in self.filters[:-1] if f.enabled]

    def filter_by_name(self, name: str) -> ArbitrationFilter:
        for filt in self.filters:
            if filt.name == name:
                return filt
        raise ConfigError(f"no arbitration filter named {name!r}")

    # -- arbitration ----------------------------------------------------------------

    def choose(
        self, candidates: Sequence[Candidate], ctx: ArbitrationContext
    ) -> Candidate:
        """Run the enabled filters; returns the single winner.

        Narrowing stops once one candidate is left: a filter skips a
        singleton set without counting an application, so the skipped
        tail would change nothing.  The mandatory tie-break always runs;
        it keeps the counters and the round-robin rotation.
        """
        if not candidates:
            raise SimulationError("arbitration invoked with no candidates")
        self.rounds += 1
        survivors = narrow(self._narrowing, candidates, ctx)
        winners = self._tie_break.apply(survivors, ctx)
        if len(winners) != 1:
            raise SimulationError(
                f"filter chain left {len(winners)} survivors; "
                f"the tie-break must leave exactly one"
            )
        return winners[0]

    # -- profiling --------------------------------------------------------------------

    def filter_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-filter application/narrowing counts."""
        return {
            filt.name: {
                "applied": filt.rounds_applied,
                "narrowed": filt.rounds_narrowed,
                "enabled": int(filt.enabled),
            }
            for filt in self.filters
        }
