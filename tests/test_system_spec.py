"""SystemSpec layer: validation, serialisation, pickling, sweep grids."""

import json
import pickle

import pytest

from repro.core import AhbPlusConfig, QosSetting
from repro.ddr.timing import DDR_TEST, DdrTiming
from repro.errors import ConfigError, ReproError, TrafficError
from repro.system import (
    BusSpec,
    PlatformBuilder,
    SlaveSpec,
    SystemSpec,
    paper_topology,
    scenario,
    scenario_names,
    sweep,
)
from repro.traffic import Workload, table1_pattern_a
from repro.traffic.workloads import MasterSpec


class TestConfigSerialisation:
    def test_default_round_trip_through_json(self):
        cfg = AhbPlusConfig()
        clone = AhbPlusConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg

    def test_full_round_trip_preserves_every_knob(self):
        cfg = AhbPlusConfig(
            num_masters=3,
            bus_width_bytes=8,
            write_buffer_enabled=False,
            write_buffer_depth=2,
            request_pipelining=False,
            pipeline_lead=5,
            bus_interface_enabled=False,
            tie_break="round_robin",
            disabled_filters=("hazard", "bank"),
            urgency_margin=16,
            starvation_limit=64,
            arbitration_cycles=2,
            qos={1: QosSetting(real_time=True, objective_cycles=77)},
            ddr_timing=DDR_TEST,
            refresh_enabled=False,
            memory_size=1 << 22,
        )
        clone = AhbPlusConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg
        assert clone.qos[1].objective_cycles == 77
        assert clone.ddr_timing == DDR_TEST

    def test_from_dict_revalidates(self):
        data = AhbPlusConfig().to_dict()
        data["tie_break"] = "coin-flip"
        with pytest.raises(ConfigError):
            AhbPlusConfig.from_dict(data)
        data = AhbPlusConfig().to_dict()
        data["disabled_filters"] = ["not-a-filter"]
        with pytest.raises(ConfigError):
            AhbPlusConfig.from_dict(data)

    def test_from_dict_rejects_unknown_fields(self):
        data = AhbPlusConfig().to_dict()
        data["warp_speed"] = True
        with pytest.raises(ConfigError, match="unknown"):
            AhbPlusConfig.from_dict(data)

    def test_ddr_timing_round_trip_and_validation(self):
        timing = DdrTiming(num_banks=8, t_rcd=4)
        clone = DdrTiming.from_dict(json.loads(json.dumps(timing.to_dict())))
        assert clone == timing
        bad = timing.to_dict()
        bad["num_banks"] = 3  # not a power of two
        with pytest.raises(ConfigError):
            DdrTiming.from_dict(bad)


class TestSlaveSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            SlaveSpec(name="x", kind="flash", base=0, size=64)

    def test_ddr_must_sit_at_zero(self):
        with pytest.raises(ConfigError, match="address zero"):
            SlaveSpec(name="ddr", kind="ddr", base=0x1000, size=1 << 20)

    def test_multi_slave_needs_a_ddr(self):
        with pytest.raises(ConfigError, match="need a DDR"):
            SystemSpec(
                name="x",
                workload=table1_pattern_a(10),
                slaves=(SlaveSpec(name="s", kind="sram", base=0, size=1 << 16),),
            )

    def test_at_most_one_ddr(self):
        with pytest.raises(ConfigError, match="at most one DDR"):
            SystemSpec(
                name="x",
                workload=table1_pattern_a(10),
                slaves=(
                    SlaveSpec(name="d0", kind="ddr", base=0, size=1 << 20),
                    SlaveSpec(name="d1", kind="ddr", base=0, size=1 << 20),
                ),
            )

    def test_overlapping_regions_fail_at_map_build(self):
        spec = SystemSpec(
            name="x",
            workload=table1_pattern_a(10),
            slaves=(
                SlaveSpec(name="ddr", kind="ddr", base=0, size=1 << 26),
                SlaveSpec(name="sram", kind="sram", base=1 << 20, size=1 << 16),
            ),
        )
        with pytest.raises(ConfigError, match="overlaps"):
            spec.address_map()


class TestUnknownFieldsRejected:
    """Every ``from_dict`` refuses keys it does not know: a misspelled
    field must fail, not silently run with its default."""

    def _spec(self):
        return SystemSpec(
            name="x",
            workload=table1_pattern_a(10),
            slaves=(SlaveSpec(name="ddr", kind="ddr", base=0, size=1 << 20),),
        )

    def test_misspelled_workload_seed_fails(self):
        workload = table1_pattern_a(10)
        with pytest.raises(TrafficError, match="sed"):
            Workload.from_dict(dict(workload.to_dict(), sed=99))

    @pytest.mark.parametrize(
        "layer", ("system", "workload", "master", "qos", "bus", "slave")
    )
    def test_extra_key_at_each_layer(self, layer):
        data = json.loads(json.dumps(self._spec().to_dict()))
        target = {
            "system": data,
            "workload": data["workload"],
            "master": data["workload"]["masters"][0],
            "qos": data["workload"]["masters"][0]["qos"],
            "bus": data["bus"],
            "slave": data["slaves"][0],
        }[layer]
        target["bogus"] = 1
        with pytest.raises(ReproError, match="bogus"):
            SystemSpec.from_dict(data)

    def test_direct_layers_raise_their_error_types(self):
        master = table1_pattern_a(10).masters[0]
        with pytest.raises(TrafficError, match="unknown MasterSpec"):
            MasterSpec.from_dict(dict(master.to_dict(), qso={}))
        with pytest.raises(ConfigError, match="unknown QosSetting"):
            QosSetting.from_dict({"real_time": True, "objective": 5})
        with pytest.raises(ConfigError, match="unknown BusSpec"):
            BusSpec.from_dict({"config": None, "cfg": None})

    def test_slave_spec_errors_are_config_errors(self):
        slave = SlaveSpec(name="s", kind="sram", base=0, size=1 << 16).to_dict()
        with pytest.raises(ConfigError, match="wait_state"):
            SlaveSpec.from_dict(dict(slave, wait_state=3))
        del slave["size"]
        with pytest.raises(ConfigError, match="size"):
            SlaveSpec.from_dict(slave)

    def test_system_spec_needs_name_and_workload(self):
        data = self._spec().to_dict()
        del data["name"]
        with pytest.raises(ConfigError, match="name"):
            SystemSpec.from_dict(data)


class TestSystemSpec:
    def test_paper_topology_defaults_to_single_ddr(self):
        spec = paper_topology(transactions=10)
        cfg = spec.config()
        slaves = spec.resolved_slaves(cfg)
        assert len(slaves) == 1 and slaves[0].kind == "ddr"
        assert slaves[0].size == cfg.memory_size
        amap = spec.address_map(cfg)
        assert amap.span() == cfg.memory_size
        assert amap.slave_for(0) == 0

    def test_with_config_overrides_and_revalidates(self):
        spec = paper_topology(transactions=10)
        deeper = spec.with_config(write_buffer_depth=16)
        assert deeper.config().write_buffer_depth == 16
        # original untouched (specs are frozen data)
        assert spec.config().write_buffer_depth == 4
        with pytest.raises(ConfigError):
            spec.with_config(bus_width_bytes=3)

    def test_spec_round_trip_through_json(self):
        spec = scenario("multi-slave-soc", transactions=20)
        clone = SystemSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_spec_is_picklable(self):
        # Specs must cross multiprocessing boundaries for sharded sweeps.
        spec = scenario("multi-slave-soc", transactions=20)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        # A pickled clone elaborates and runs like the original.
        result = PlatformBuilder(clone).build("tlm").run()
        assert result.transactions > 0

    def test_scenario_registry(self):
        names = scenario_names()
        assert "paper" in names and "multi-slave-soc" in names
        with pytest.raises(ConfigError, match="unknown scenario"):
            scenario("warp-bus")

    def test_bus_spec_round_trip(self):
        bus = BusSpec(config=AhbPlusConfig(num_masters=2))
        clone = BusSpec.from_dict(json.loads(json.dumps(bus.to_dict())))
        assert clone == bus
        assert BusSpec.from_dict({"config": None}) == BusSpec()


class TestSweep:
    def test_config_axis_produces_distinct_specs(self):
        spec = paper_topology(transactions=10)
        points = sweep(spec, axis="write_buffer_depth", values=(1, 2, 8))
        assert [p.spec.config().write_buffer_depth for p in points] == [1, 2, 8]
        assert [p.label for p in points] == [
            "write_buffer_depth=1",
            "write_buffer_depth=2",
            "write_buffer_depth=8",
        ]

    def test_engine_axis_keeps_spec_constant(self):
        spec = paper_topology(transactions=10)
        points = sweep(spec, axis="engine", values=("tlm", "plain", "rtl"))
        assert [p.engine for p in points] == ["tlm", "plain", "rtl"]
        assert all(p.spec is spec for p in points)

    def test_seed_axis_reseeds_workload(self):
        spec = paper_topology(transactions=10)
        points = sweep(spec, axis="seed", values=(3, 4))
        assert [p.spec.workload.seed for p in points] == [3, 4]
        assert points[0].spec.workload.masters == spec.workload.masters

    def test_unknown_axis_and_engine_rejected(self):
        spec = paper_topology(transactions=10)
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            sweep(spec, axis="clock_speed", values=(1,))
        with pytest.raises(ConfigError, match="unknown engine"):
            sweep(spec, axis="engine", values=("verilog",))

    def test_labels_must_match_values(self):
        spec = paper_topology(transactions=10)
        with pytest.raises(ConfigError, match="one-to-one"):
            sweep(spec, axis="write_buffer_depth", values=(1, 2), labels=("a",))

    def test_illegal_grid_value_fails_at_construction(self):
        spec = paper_topology(transactions=10)
        with pytest.raises(ConfigError):
            sweep(spec, axis="write_buffer_depth", values=(0,))
