"""Tests for the component power model and Table I machinery."""

import numpy as np
import pytest

from repro.machine import WorkSignature, altix_300, uniform_machine
from repro.machine import counters as C
from repro.power import (
    Component,
    ITANIUM2_COMPONENTS,
    ITANIUM2_IDLE_W,
    ITANIUM2_TDP_W,
    LevelMeasurement,
    PowerModel,
    RelativeTable,
    TABLE1_METRICS,
    energy_delay_product,
    measure_signature,
    relative_table,
    validate_components,
)


def busy_counters(cycles=1e9, ipc=3.0, fp_rate=0.5, miss_rate=0.05):
    return {
        C.CPU_CYCLES: cycles,
        C.TIME: cycles / 1.5e9 * 1e6,
        C.INSTRUCTIONS_ISSUED: cycles * ipc,
        C.INSTRUCTIONS_COMPLETED: cycles * ipc * 0.9,
        C.FP_OPS: cycles * fp_rate,
        C.L2_DATA_REFERENCES: cycles * 0.3,
        C.L2_MISSES: cycles * miss_rate,
        C.L3_MISSES: cycles * miss_rate / 4,
        C.REMOTE_MEMORY_ACCESSES: 0.0,
    }


class TestComponents:
    def test_itanium2_set_valid(self):
        validate_components(ITANIUM2_COMPONENTS)

    def test_scaling_must_sum_to_one(self):
        bad = (Component("x", 0.5, (C.FP_OPS,)),)
        with pytest.raises(ValueError, match="sum"):
            validate_components(bad)

    def test_access_rate_clamped(self):
        comp = Component("fpu", 1.0, (C.FP_OPS,), saturation_rate=1.0)
        assert comp.access_rate({C.CPU_CYCLES: 100, C.FP_OPS: 1e6}) == 1.0
        assert comp.access_rate({C.CPU_CYCLES: 0, C.FP_OPS: 10}) == 0.0
        assert comp.access_rate({C.CPU_CYCLES: 100, C.FP_OPS: 50}) == 0.5


class TestPowerModel:
    def test_idle_floor_and_tdp_ceiling(self):
        pm = PowerModel()
        idle = pm.processor_power({C.CPU_CYCLES: 1e9, C.TIME: 1e6})
        assert idle.watts == pytest.approx(ITANIUM2_IDLE_W)
        saturated = pm.processor_power(
            {
                C.CPU_CYCLES: 1.0,
                C.TIME: 1e6,
                **{name: 1e9 for name in
                   (C.FP_OPS, C.INSTRUCTIONS_ISSUED, C.L2_DATA_REFERENCES,
                    C.L2_MISSES, C.L3_MISSES, C.REMOTE_MEMORY_ACCESSES)},
            }
        )
        assert saturated.watts == pytest.approx(ITANIUM2_TDP_W)

    def test_busier_is_hotter(self):
        pm = PowerModel()
        low = pm.processor_power(busy_counters(ipc=1.0, fp_rate=0.1))
        high = pm.processor_power(busy_counters(ipc=5.0, fp_rate=1.5))
        assert high.watts > low.watts > ITANIUM2_IDLE_W

    def test_energy_is_power_times_time(self):
        pm = PowerModel()
        est = pm.processor_power(busy_counters())
        assert est.joules == pytest.approx(est.watts * est.seconds)
        assert est.flops_per_joule(1e9) == pytest.approx(1e9 / est.joules)

    def test_component_breakdown_sums(self):
        pm = PowerModel()
        est = pm.processor_power(busy_counters())
        assert sum(est.component_watts.values()) == pytest.approx(
            est.watts - ITANIUM2_IDLE_W
        )

    def test_trial_power_sums_processors(self):
        work = WorkSignature(flops=1e8, loads=1e8, stores=5e7,
                             footprint_bytes=1e6)
        single = measure_signature("O2", work, uniform_machine(1))
        four = measure_signature("O2", work, uniform_machine(1),
                                 n_processors=4)
        assert four.watts > single.watts  # more processors, more power
        assert four.watts < 4 * ITANIUM2_TDP_W
        assert four.joules > 0


class TestTable1Machinery:
    def _measurements(self):
        m = uniform_machine(1)
        sigs = {
            "O0": WorkSignature(flops=1e8, int_ops=8e8, loads=8e8, stores=4e8,
                                branches=1e7, footprint_bytes=1e6),
            "O2": WorkSignature(flops=1e8, int_ops=1e8, loads=2e8, stores=5e7,
                                branches=1e7, footprint_bytes=1e6,
                                fp_dependency=0.05),
        }
        return [measure_signature(l, s, m, n_processors=16)
                for l, s in sigs.items()]

    def test_relative_table_baseline_is_one(self):
        table = relative_table(self._measurements())
        for metric in TABLE1_METRICS:
            assert table.value(metric, "O0") == pytest.approx(1.0)

    def test_optimized_level_saves_time_and_energy(self):
        table = relative_table(self._measurements())
        assert table.value("Time", "O2") < 0.7
        assert table.value("Joules", "O2") < 0.7
        assert table.value("Instructions Completed", "O2") < 0.5
        assert table.value("FLOP/Joule", "O2") > 1.3

    def test_render_contains_all_rows(self):
        text = relative_table(self._measurements()).render(title="T")
        for metric in TABLE1_METRICS:
            assert metric in text

    def test_edp(self):
        m = self._measurements()[0]
        assert energy_delay_product(m) == pytest.approx(m.joules * m.seconds)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_table([])
        with pytest.raises(ValueError):
            measure_signature("O0", WorkSignature(flops=1),
                              uniform_machine(1), n_processors=0)


class TestTable1EndToEnd:
    def test_paper_shape_on_compiled_kernel(self):
        """The full Table I chain: IR kernel -> O0..O3 -> power model."""
        from repro.apps.genidlest.compiled import genidlest_compiled_program
        from repro.openuh import OPT_LEVELS, compile_program

        machine = altix_300()
        prog = genidlest_compiled_program(ni=64, nj=64)
        meas = [
            measure_signature(l, compile_program(prog, l).signature(),
                              machine, n_processors=16)
            for l in OPT_LEVELS
        ]
        table = relative_table(meas)
        times = [table.value("Time", l) for l in OPT_LEVELS]
        joules = [table.value("Joules", l) for l in OPT_LEVELS]
        inst = [table.value("Instructions Completed", l) for l in OPT_LEVELS]
        watts = [table.value("Watts", l) for l in OPT_LEVELS]
        fpj = [table.value("FLOP/Joule", l) for l in OPT_LEVELS]
        # monotone improvements
        assert times == sorted(times, reverse=True)
        assert joules == sorted(joules, reverse=True)
        assert inst == sorted(inst, reverse=True)
        assert fpj == sorted(fpj)
        # watts roughly flat (within 5%) while energy collapses
        assert max(watts) - min(watts) < 0.05
        assert joules[-1] < 0.3
        # the paper's power signature: O1 hotter than O0, O3 hotter than O2
        assert watts[1] > watts[0]
        assert watts[3] > watts[2]
