"""Ablation benches for the design choices DESIGN.md calls out.

* rule thresholds — how the diagnosis degrades as thresholds move away
  from the paper's values;
* chunk size — the dynamic-schedule sweet spot of §III.A;
* first-touch — isolating the two GenIDLEST fixes (init vs exchange);
* selective instrumentation — probe overhead vs scoring threshold;
* cost-model feedback — prediction error before and after calibration.
"""

import numpy as np
import pytest

from conftest import print_series
from repro.apps.genidlest import RIB90, RunConfig, run_genidlest
from repro.apps.msa import run_msa_trial
from repro.knowledge import summarize_categories
from repro.knowledge.rulebase import diagnose_load_balance
from repro.machine import counters as C


class TestThresholdAblation:
    def test_imbalance_ratio_threshold_sweep(self, run_once):
        """The 0.25 threshold separates signal from noise: much lower
        values flag balanced runs too, much higher ones miss the bug."""
        static = run_msa_trial(n_sequences=200, n_threads=16,
                               schedule="static", seed=0).trial
        fixed = run_msa_trial(n_sequences=200, n_threads=16,
                              schedule="dynamic,1", seed=0).trial

        def sweep():
            rows = []
            for threshold in (0.02, 0.10, 0.25, 0.50, 1.00):
                h_bad = diagnose_load_balance(static,
                                              ratio_threshold=threshold)
                h_ok = diagnose_load_balance(fixed,
                                             ratio_threshold=threshold)
                rows.append(
                    (threshold,
                     summarize_categories(h_bad).get("load-imbalance", 0),
                     summarize_categories(h_ok).get("load-imbalance", 0))
                )
            return rows

        rows = run_once(sweep)
        print_series(
            "Ablation: imbalance-ratio threshold",
            rows, ["threshold", "hits (static)", "hits (dynamic,1)"],
        )
        by_threshold = {r[0]: r for r in rows}
        # the paper's threshold catches the bug with zero false positives
        assert by_threshold[0.25][1] >= 1 and by_threshold[0.25][2] == 0
        # an extreme threshold misses the bug
        assert by_threshold[1.00][1] == 0
        # an over-eager threshold starts flagging the healthy run
        assert by_threshold[0.02][2] >= by_threshold[0.25][2]


class TestChunkAblation:
    def test_chunk_size_sweep(self, run_once):
        """§III.A: 'small chunk sizes gave the best speedup. Larger chunk
        sizes tend to change the scheduling behavior to be more like the
        static even behavior.'"""

        def sweep():
            rows = []
            for chunk in (1, 2, 4, 8, 16, 32):
                r = run_msa_trial(n_sequences=200, n_threads=16,
                                  schedule=f"dynamic,{chunk}", seed=0)
                rows.append((chunk, r.wall_seconds, r.loop.imbalance_ratio))
            static = run_msa_trial(n_sequences=200, n_threads=16,
                                   schedule="static", seed=0)
            rows.append(("static", static.wall_seconds,
                         static.loop.imbalance_ratio))
            return rows

        rows = run_once(sweep)
        print_series("Ablation: dynamic chunk size (16 threads)",
                     rows, ["chunk", "wall (s)", "imbalance"])
        walls = {r[0]: r[1] for r in rows}
        assert walls[1] == min(w for k, w in walls.items())
        assert walls[32] > walls[1]
        # big chunks approach the static behaviour
        assert walls[32] > 0.5 * walls["static"]


class TestFirstTouchAblation:
    def test_isolate_the_two_fixes(self, run_once):
        """Toggle the §III.B fixes independently: parallel first-touch
        init vs parallel exchange copies.  Both matter; together they
        recover MPI-class performance."""

        def sweep():
            rows = []
            for init, exch in ((False, False), (True, False),
                               (False, True), (True, True)):
                r = run_genidlest(RunConfig(
                    case=RIB90, version="openmp", n_procs=16, iterations=2,
                    parallel_init=init, parallel_exchange=exch,
                ))
                rows.append((f"init={'par' if init else 'ser'}",
                             f"exch={'par' if exch else 'ser'}",
                             r.wall_seconds))
            return rows

        rows = run_once(sweep)
        print_series("Ablation: GenIDLEST fixes in isolation (90rib, 16t)",
                     rows, ["init", "exchange", "wall (s)"])
        walls = {(r[0], r[1]): r[2] for r in rows}
        both = walls[("init=par", "exch=par")]
        neither = walls[("init=ser", "exch=ser")]
        only_init = walls[("init=par", "exch=ser")]
        only_exch = walls[("init=ser", "exch=par")]
        assert both < only_init < neither
        assert both < only_exch < neither
        assert neither / both > 5.0


class TestCacheBlockingAblation:
    def test_virtual_cache_blocks_help(self, run_once):
        """'the small "cache" blocks also allow efficient use of cache on
        hierarchical memory systems' — disabling the virtual cache-block
        working-set reduction slows every kernel."""

        def pair():
            blocked = run_genidlest(RunConfig(
                case=RIB90, version="mpi", optimized=True, n_procs=16,
                iterations=2, cache_blocked=True))
            unblocked = run_genidlest(RunConfig(
                case=RIB90, version="mpi", optimized=True, n_procs=16,
                iterations=2, cache_blocked=False))
            return blocked, unblocked

        blocked, unblocked = run_once(pair)
        print(f"\ncache-blocked {blocked.wall_seconds:.3f}s vs "
              f"unblocked {unblocked.wall_seconds:.3f}s "
              f"({unblocked.wall_seconds / blocked.wall_seconds:.2f}x)")
        assert unblocked.wall_seconds > 1.2 * blocked.wall_seconds
        # L3 misses rise without blocking
        b3 = blocked.trial.exclusive_array(C.L3_MISSES).sum()
        u3 = unblocked.trial.exclusive_array(C.L3_MISSES).sum()
        assert u3 > b3


class TestInstrumentationAblation:
    def test_selective_scoring_bounds_overhead(self, run_once):
        """Probe overhead versus the selective-instrumentation threshold:
        raising min_score sheds probes and dilation."""
        from repro.apps.genidlest.compiled import genidlest_compiled_program
        from repro.machine import uniform_machine
        from repro.openuh import (
            InstrumentationSpec,
            compile_program,
            plan_instrumentation,
            run_instrumented,
        )
        from repro.runtime import Profiler

        program = genidlest_compiled_program(ni=24, nj=24)
        compiled = compile_program(program, "O2")
        machine = uniform_machine(1)

        def run_with(min_score):
            spec = InstrumentationSpec(
                procedures=True, loops=True,
                min_score=min_score, probe_overhead_us=100.0,
            )
            plan = plan_instrumentation(
                program, spec,
                call_counts={"loop: diff_coeff/i": 1e6},
            )
            prof = Profiler(machine)
            run_instrumented(compiled, plan, machine, prof, 0, calls=3)
            trial = prof.to_trial(f"score_{min_score}")
            return len(plan.selected_events()), prof.clock(0)

        def sweep():
            return [(s, *run_with(s)) for s in (0.0, 10.0, 1e6)]

        rows = run_once(sweep)
        print_series("Ablation: selective instrumentation",
                     rows, ["min_score", "probes", "run time (s)"])
        probes = [r[1] for r in rows]
        times = [r[2] for r in rows]
        assert probes[0] > probes[-1]
        assert times[0] > times[-1]


class TestFeedbackAblation:
    def test_calibrated_cost_model_predicts_better(self, run_once):
        """The paper's thesis: runtime feedback makes the static cost
        models accurate.  Predict a kernel's cycles with the static
        assumptions, then with counter-calibrated ones, and compare both
        against the machine model's 'measured' cycles."""
        from repro.apps.genidlest.compiled import genidlest_compiled_program
        from repro.machine import uniform_machine
        from repro.openuh import compile_program
        from repro.openuh.costmodel import ProcessorCostModel

        def experiment():
            machine = uniform_machine(1)
            sig = compile_program(
                genidlest_compiled_program(), "O2"
            ).signature()
            measured = machine.processor.execute(sig)
            measured_cycles = measured[C.CPU_CYCLES]
            static_model = ProcessorCostModel()
            static_pred = static_model.predict(sig).total
            calibrated = static_model.calibrate(measured.as_dict())
            calib_pred = calibrated.predict(sig).total
            return measured_cycles, static_pred, calib_pred

        measured, static_pred, calib_pred = run_once(experiment)
        static_err = abs(static_pred - measured) / measured
        calib_err = abs(calib_pred - measured) / measured
        print(f"\nmeasured {measured:.3g} cycles; static prediction off by "
              f"{static_err:.0%}, calibrated by {calib_err:.0%}")
        assert calib_err < static_err
