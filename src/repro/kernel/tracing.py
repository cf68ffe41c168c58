"""Value-change tracing for the pin-accurate models.

A light-weight VCD (Value Change Dump) writer: RTL platforms register
their signals and the tracer samples them at the end of every cycle,
emitting changes in standard VCD so waveforms can be inspected with any
viewer.  The TLM has its own transaction-level logging in
:mod:`repro.profiling`; VCD is an RTL-side debugging feature, matching
the paper's "functional debugging of the model itself".
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Optional, TextIO

from repro.kernel.signal import Signal

# Printable identifier characters per the VCD grammar.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Map a signal index to a short VCD identifier string."""
    base = len(_ID_CHARS)
    chars: List[str] = []
    index += 1
    while index:
        index, rem = divmod(index - 1, base)
        chars.append(_ID_CHARS[rem])
    return "".join(reversed(chars))


class VcdTracer:
    """Writes signal activity as a VCD stream.

    Parameters
    ----------
    out:
        Target text stream; defaults to an in-memory buffer retrievable
        with :meth:`getvalue` (tests and examples use this).
    timescale:
        VCD timescale string; cycles are emitted as integer timestamps.
    """

    def __init__(self, out: Optional[TextIO] = None, timescale: str = "1 ns") -> None:
        self._out = out if out is not None else io.StringIO()
        self._timescale = timescale
        self._signals: List[Signal] = []
        self._ids: Dict[int, str] = {}
        self._last: Dict[int, int] = {}
        self._header_done = False

    def add_signals(self, signals: Iterable[Signal]) -> None:
        """Register signals to trace; must happen before the first sample."""
        for sig in signals:
            if self._header_done:
                raise RuntimeError("cannot add signals after tracing started")
            self._ids[id(sig)] = _identifier(len(self._signals))
            self._signals.append(sig)

    def _emit_header(self) -> None:
        out = self._out
        out.write("$date reproduction run $end\n")
        out.write("$version repro VcdTracer $end\n")
        out.write(f"$timescale {self._timescale} $end\n")
        out.write("$scope module top $end\n")
        for sig in self._signals:
            ident = self._ids[id(sig)]
            safe = sig.name.replace(" ", "_")
            out.write(f"$var wire {sig.width} {ident} {safe} $end\n")
        out.write("$upscope $end\n$enddefinitions $end\n")
        self._header_done = True

    def _emit_value(self, sig: Signal) -> None:
        ident = self._ids[id(sig)]
        if sig.width == 1:
            self._out.write(f"{sig.value}{ident}\n")
        else:
            self._out.write(f"b{sig.value:b} {ident}\n")

    def sample(self, cycle: int) -> None:
        """Record all changed signals at *cycle* (hook into the cycle engine)."""
        if not self._header_done:
            self._emit_header()
            self._out.write("#0\n")
            for sig in self._signals:
                self._emit_value(sig)
                self._last[id(sig)] = sig.value
            return
        wrote_time = False
        for sig in self._signals:
            if self._last.get(id(sig)) != sig.value:
                if not wrote_time:
                    self._out.write(f"#{cycle}\n")
                    wrote_time = True
                self._emit_value(sig)
                self._last[id(sig)] = sig.value

    def getvalue(self) -> str:
        """Return the VCD text when writing to the default in-memory buffer."""
        if isinstance(self._out, io.StringIO):
            return self._out.getvalue()
        raise RuntimeError("tracer was constructed with an external stream")
