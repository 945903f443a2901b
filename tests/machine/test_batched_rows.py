"""The batched machine model against the per-signature formulas.

``ProcessorModel.execute_rows`` evaluates the cache model and the counter
synthesis elementwise over a batch.  The reference
(:mod:`tests.machine.scalar_reference`) is the scalar formula, evaluated
one signature at a time with Python floats, exactly as the model computed
counters before it was batched.  Every row of a batch must equal its
reference bit for bit, and no row may hold ``-0.0``.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.machine import (
    PAGE_SIZE,
    MemoryPlacementCost,
    ProcessorModel,
    WorkSignature,
)
from repro.machine.counters import counter_width
from tests.machine.scalar_reference import reference_cache, reference_counters

KB = 1024
MB = 1024 * KB

MODEL = ProcessorModel()

#: Footprints exactly at each cache capacity and at TLB reach, and one
#: byte either side.
EDGES = [
    edge + delta
    for edge in (16 * KB, 256 * KB, 6 * MB, ProcessorModel.TLB_ENTRIES * PAGE_SIZE)
    for delta in (-1.0, 0.0, 1.0)
]

counts = st.one_of(st.just(0.0), st.floats(0, 1e9))
footprints = st.one_of(st.just(0.0), st.sampled_from(EDGES), st.floats(0, 1e9))
fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))
works = st.builds(
    WorkSignature,
    flops=counts, int_ops=counts, loads=counts, stores=counts,
    branches=counts, footprint_bytes=footprints, reuse=fractions,
    mispredict_rate=fractions, fp_dependency=fractions,
    issue_inflation=st.floats(1, 4),
    instruction_footprint_bytes=st.one_of(
        st.floats(0, 16 * KB), st.just(16.0 * KB), st.floats(0, 1e7)
    ),
)
placements = st.one_of(
    st.none(),
    st.builds(MemoryPlacementCost, counts, counts, counts),
)


def assert_rows_match(batch):
    rows = MODEL.execute_rows([w for w, _ in batch], [p for _, p in batch])
    assert rows.shape == (len(batch), counter_width())
    for row, (work, placement) in zip(rows, batch):
        assert row.tobytes() == reference_counters(MODEL, work, placement).tobytes()
    assert not np.signbit(rows).any()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(works, placements), min_size=1, max_size=12))
@example([(WorkSignature(), None)])
@example([(WorkSignature(flops=5.0, footprint_bytes=1e6), None)])
@example([(WorkSignature(loads=1e6, footprint_bytes=0.0), None)])
@example([
    (WorkSignature(loads=1e6, footprint_bytes=f, reuse=r), None)
    for f in EDGES for r in (0.0, 1.0)
])
@example([(WorkSignature(loads=1e5, instruction_footprint_bytes=4096.0),
           MemoryPlacementCost(10.0, 90.0, 5e4))])
def test_batch_rows_equal_scalar_reference(batch):
    assert_rows_match(batch)


def test_execute_is_a_row_of_the_batch():
    work = WorkSignature(flops=1e6, loads=2e5, stores=1e5,
                         footprint_bytes=3 * MB, reuse=0.5)
    placement = MemoryPlacementCost(100.0, 300.0, 1e5)
    rows = MODEL.execute_rows([work, work], [None, placement])
    assert ProcessorModel().execute(work).as_array().tobytes() == rows[0].tobytes()
    assert ProcessorModel().execute(work, placement).as_array().tobytes() == \
        rows[1].tobytes()


def test_cache_access_matches_reference():
    cases = [(footprint, reuse) for footprint in [0.0, *EDGES, 1e9]
             for reuse in (0.0, 0.5, 1.0)]
    footprints, reuses = (np.array(column) for column in zip(*cases))
    rows = MODEL.cache.access_rows(np.full(len(cases), 1e6), footprints, reuses)
    for i, (footprint, reuse) in enumerate(cases):
        levels, memory, stalls = reference_cache(
            MODEL.cache, 1e6, footprint, reuse
        )
        got = [(r[i], m[i]) for r, m in zip(rows.references, rows.misses)]
        assert np.array(got).tobytes() == np.array(levels).tobytes()
        assert np.array([rows.memory_accesses[i], rows.stall_cycles[i]]
                        ).tobytes() == np.array([memory, stalls]).tobytes()
