"""Tests for the MSA/ClustalW application (kernels + simulation)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.msa import (
    clustalw,
    distance_matrix,
    distance_tasks,
    generate_sequences,
    guide_tree,
    progressive_alignment,
    relative_efficiency,
    run_msa_trial,
    score_to_distance,
    sw_score,
    sw_score_reference,
    sw_work_signature,
)
from repro.apps.msa.parallel import EVENT_INNER, EVENT_MAIN, EVENT_OUTER
from repro.machine import counters as C

protein = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=0, max_size=25)


class TestSequences:
    def test_reproducible(self):
        a = generate_sequences(10, seed=3)
        b = generate_sequences(10, seed=3)
        assert a.sequences == b.sequences
        assert generate_sequences(10, seed=4).sequences != a.sequences

    def test_lengths_respect_bounds(self):
        s = generate_sequences(200, seed=0, min_length=50, max_length=500)
        assert s.lengths.min() >= 50 and s.lengths.max() <= 500

    def test_alphabet(self):
        s = generate_sequences(5, seed=1)
        assert set("".join(s.sequences)) <= set("ARNDCQEGHILKMFPSTWYV")

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_sequences(0)
        with pytest.raises(ValueError):
            generate_sequences(3, min_length=10, max_length=5)


class TestSmithWaterman:
    @pytest.mark.parametrize(
        "a, b",
        [
            ("HEAGAWGHEE", "PAWHEAE"),
            ("AAAA", "AAAA"),
            ("ARNDC", "QEGHI"),
            ("A", "A"),
            ("", "AAA"),
            ("GATTACA" * 3, "ACAGATT"),
        ],
    )
    def test_matches_reference(self, a, b):
        assert sw_score(a, b) == sw_score_reference(a, b)

    def test_identical_sequences_score_full(self):
        s = "HEAGAWGHEE"
        assert sw_score(s, s) == 5 * len(s)

    def test_symmetry(self):
        a, b = "HEAGAWGHEE", "PAWHEAE"
        assert sw_score(a, b) == sw_score(b, a)

    @settings(max_examples=40, deadline=None)
    @given(protein, protein)
    def test_property_matches_reference(self, a, b):
        assert sw_score(a, b) == sw_score_reference(a, b)

    @settings(max_examples=30, deadline=None)
    @given(protein, protein)
    def test_score_nonnegative_and_bounded(self, a, b):
        s = sw_score(a, b)
        assert 0 <= s <= 5 * min(len(a), len(b))

    def test_distance_mapping(self):
        assert score_to_distance(0, 10, 10) == 1.0
        assert score_to_distance(50, 10, 10) == 0.0
        assert 0.0 < score_to_distance(25, 10, 10) < 1.0

    def test_signature_scales_with_cells(self):
        small = sw_work_signature(100, 100)
        big = sw_work_signature(200, 200)
        assert big.int_ops == pytest.approx(small.int_ops * 4)
        assert small.flops == 0  # integer DP
        with pytest.raises(ValueError):
            sw_work_signature(-1, 5)


class TestClustalWStages:
    def _set(self):
        return generate_sequences(6, seed=7, mean_length=40, max_length=60)

    def test_distance_matrix_properties(self):
        d = distance_matrix(self._set())
        assert d.shape == (6, 6)
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0)
        assert (d >= 0).all() and (d <= 1).all()

    def test_guide_tree_covers_all_sequences(self):
        d = distance_matrix(self._set())
        tree = guide_tree(d)
        assert sorted(tree.members) == list(range(6))
        assert not tree.is_leaf

    def test_guide_tree_merges_closest_first(self):
        d = np.array(
            [
                [0.0, 0.1, 0.9],
                [0.1, 0.0, 0.8],
                [0.9, 0.8, 0.0],
            ]
        )
        tree = guide_tree(d)
        # first merge must be {0,1}
        first = tree.left if tree.left.is_leaf is False else tree.right
        inner = tree.left if not tree.left.is_leaf else tree.right
        assert sorted(inner.members) == [0, 1]

    def test_progressive_alignment_step_count(self):
        seqs = self._set()
        result = clustalw(seqs)
        assert len(result.merges) == len(seqs) - 1
        # final merge contains everything
        last = result.merges[-1]
        assert sorted(last.left_members + last.right_members) == list(range(6))
        assert all(m.cost_cells > 0 for m in result.merges)

    def test_guide_tree_validation(self):
        with pytest.raises(ValueError):
            guide_tree(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            guide_tree(np.zeros((2, 3)))


class TestMSASimulation:
    def test_static_shows_paper_imbalance_signature(self):
        r = run_msa_trial(n_sequences=120, n_threads=16, schedule="static", seed=0)
        assert r.loop.imbalance_ratio > 0.25
        t = r.trial
        # the nesting edge the rule joins on
        assert [EVENT_OUTER, EVENT_INNER] in t.metadata["callgraph"]
        # negative inner/outer correlation across threads
        inner = t.exclusive_array(C.TIME)[t.event_index(EVENT_INNER)]
        outer = t.exclusive_array(C.TIME)[t.event_index(EVENT_OUTER)]
        rho = np.corrcoef(inner, outer)[0, 1]
        assert rho < -0.5

    def test_dynamic1_fixes_it(self):
        static = run_msa_trial(n_sequences=120, n_threads=16, schedule="static", seed=0)
        dynamic = run_msa_trial(n_sequences=120, n_threads=16, schedule="dynamic,1", seed=0)
        assert dynamic.loop.imbalance_ratio < 0.05
        assert dynamic.wall_seconds < static.wall_seconds

    def test_trial_metadata(self):
        r = run_msa_trial(n_sequences=40, n_threads=4, schedule="dynamic,4", seed=2)
        assert r.trial.metadata["schedule"] == "dynamic,4"
        assert r.trial.metadata["application"] == "MSAP"
        assert r.trial.thread_count == 4

    def test_stage1_dominates(self):
        """~90% of serial time in the distance matrix stage (paper §III.A)."""
        r = run_msa_trial(n_sequences=150, n_threads=1, schedule="static", seed=0)
        t = r.trial
        total = t.inclusive_array(C.TIME)[t.event_index(EVENT_MAIN), 0]
        stage1 = t.inclusive_array(C.TIME)[t.event_index(EVENT_OUTER), 0]
        assert stage1 / total > 0.8

    def test_relative_efficiency_series(self):
        runs = [
            run_msa_trial(n_sequences=80, n_threads=p, schedule="dynamic,1", seed=0)
            for p in (1, 2, 4)
        ]
        eff = relative_efficiency(runs)
        assert eff[0] == (1, pytest.approx(1.0))
        assert all(0 < e <= 1.1 for _, e in eff)
        with pytest.raises(ValueError):
            relative_efficiency([])

    def test_task_costs_are_triangular(self):
        seqs = generate_sequences(50, seed=1)
        tasks = distance_tasks(seqs)
        assert len(tasks) == 49
        # early tasks pair against more partners -> more work on average
        first = np.mean(tasks.int_ops[:10])
        last = np.mean(tasks.int_ops[-10:])
        assert first > last

    def test_thread_count_validation(self):
        from repro.machine import uniform_machine

        with pytest.raises(ValueError, match="cpus"):
            run_msa_trial(n_sequences=10, n_threads=8,
                          machine=uniform_machine(2))
