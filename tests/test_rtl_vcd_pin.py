"""Pinned RTL waveforms: sha256 of each run's VCD dump.

``test_rtl_vcd_equality.py`` compares the event-driven kernel with the
``full_sweep`` reference, but both kernels run the same component
classes, so a change common to both (a master or drain-engine FSM edit)
would pass it unnoticed.  This table fixes the waveform bytes
themselves, under both kernels, on specs that absorb writes into the
buffer, drain them, and answer with ERROR/RETRY (fuzz-38).  Regenerate
it (only for an intended pin-level change) with
``PYTHONPATH=src python tests/test_rtl_vcd_pin.py``.
"""

import hashlib

import pytest

from repro.fuzz import Fuzzer
from repro.system import PlatformBuilder, scenario

SPECS = {
    "paper-pattern-a": scenario("paper-pattern-a", transactions=40),
    "paper-pattern-b": scenario("paper-pattern-b", transactions=40),
    "write-heavy": scenario("write-heavy", transactions=40),
    "multi-slave-soc": scenario("multi-slave-soc", transactions=20),
    "fuzz-38": Fuzzer().scenario(38),
}

PINNED = {
    "fuzz-38": "fbe2e8426754ea8e09afa4664e6e704a4b952c8093f9d0db63cb96b0dc848bfc",
    "multi-slave-soc": "9be7aff8c7fe1554d83a66a367dbfc62fd58fe4cc6a10e768a5a84859cf9534f",
    "paper-pattern-a": "544c33db24351fc1a9c32ad672a15075f0ee76cf31458b7ac5cd304041ec7f84",
    "paper-pattern-b": "f28aea00159bc0949062cd606ee16f4c7cea1cf38a8ad7e06c2eb2fc49e2ef27",
    "write-heavy": "03d4dc4fb9f18549e8e849f54f3b866de7514ada479ff68bf4438771ece1cd34",
}


def vcd_digest(spec, full_sweep):
    platform = PlatformBuilder(spec).build(
        "rtl", trace=True, full_sweep=full_sweep
    )
    platform.run()
    return hashlib.sha256(platform.tracer.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("full_sweep", [False, True], ids=["event", "full-sweep"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_rtl_vcd_is_pinned(name, full_sweep):
    assert vcd_digest(SPECS[name], full_sweep) == PINNED[name]


if __name__ == "__main__":
    for name in sorted(SPECS):
        print(f'    "{name}": "{vcd_digest(SPECS[name], False)}",')
