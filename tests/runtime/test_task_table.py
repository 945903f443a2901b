"""The task table against the per-task loop it replaced.

``task_rows`` runs a loop as one :class:`~repro.machine.TaskTable`: the
NUMA charge is one batch over its rows and the counters one batch over
its columns.  The reference below is that path as it was before, one
``LoopTask`` at a time: the scalar cache and counter formulas of
``tests/machine/scalar_reference.py`` and the scalar first-touch charge,
row by row in order.  For random task lists (rows without a region,
regions first reached from several nodes, latency multipliers above 1,
rows with no memory traffic, partial byte ranges, partly placed regions)
the table path must give byte-identical rows and leave the page table
with the same placement and generation.  Columns the per-task objects
would refuse must raise the same ``ValueError`` or ``PlacementError``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.machine import (
    PAGE_SIZE,
    MemoryPlacementCost,
    PlacementError,
    TaskTable,
    WorkSignature,
    altix_300,
)
from repro.runtime import LoopTask, RegionAccess, task_rows
from tests.machine.scalar_reference import reference_cache, reference_counters

MACHINE = altix_300()
#: Region sizes: a page, a few pages and a ragged tail, and a large one.
REGIONS = {"r0": PAGE_SIZE, "r1": 3 * PAGE_SIZE + 100, "r2": 9 * PAGE_SIZE,
           "r3": 40 * PAGE_SIZE + 7}


def reference_charge(pages, name, node, accesses, start_byte, length):
    """One task's charge as ``PageTable.charge_accesses`` computed it per
    call: check, first-touch the range on ``node``, spread the accesses
    over the range's pages."""
    region = pages.region(name)
    if length is None:
        length = region.size_bytes - start_byte
    if start_byte + length > region.size_bytes or length < 0:
        raise PlacementError(
            f"touch range [{start_byte}, {start_byte + length}) outside "
            f"region {name!r} of {region.size_bytes} bytes")
    if accesses < 0:
        raise PlacementError("accesses must be non-negative")
    if length == 0 and accesses > 0:
        raise PlacementError(f"region {name!r}: accesses to an empty range")
    pages.touch(name, node, start_byte=start_byte, length=length)
    if accesses == 0:
        return 0.0, 0.0, 0.0
    first = start_byte // PAGE_SIZE
    last = (start_byte + length - 1) // PAGE_SIZE
    owners = region.owner[first:last + 1]
    topo = pages.topology
    hops = np.where(owners == node, 0, topo.hop_matrix[node][owners])
    latencies = topo.latency.local_cycles + topo.latency.per_hop_cycles * hops
    per_page = accesses / len(owners)
    local = per_page * float(np.count_nonzero(owners == node))
    return (local, max(accesses - local, 0.0),
            per_page * float(latencies.sum()))


def reference_task_rows(machine, tasks, cpus, pages):
    """``task_rows`` as the per-``LoopTask`` loop: each task's placement
    charged in order, then each task's counters on their own."""
    model = machine.processor
    placements = []
    for task, cpu in zip(tasks, cpus):
        work, access = task.work, task.access
        if pages is None or access is None:
            placements.append(None)
            continue
        _, memory, _ = reference_cache(model.cache, work.memory_accesses,
                                       work.footprint_bytes, work.reuse)
        local, remote, latency = reference_charge(
            pages, access.region, machine.node_of_cpu(cpu), memory,
            access.start_byte, access.length)
        placements.append(MemoryPlacementCost(
            local, remote, latency * access.latency_multiplier))
    return np.stack([reference_counters(model, task.work, placement)
                     for task, placement in zip(tasks, placements)])


counts = st.one_of(st.just(0.0), st.floats(0, 1e8))
works = st.builds(
    WorkSignature, flops=counts, int_ops=counts,
    loads=st.one_of(st.just(0.0), st.floats(0, 1e7)),
    stores=st.one_of(st.just(0.0), st.floats(0, 1e6)),
    footprint_bytes=st.sampled_from([0.0, 8e3, 3e5, 2e6, 4e7]),
    reuse=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
)


@st.composite
def loop_tasks(draw):
    """Work with no region, or with a range of one region: whole, to its
    end, or partial (inside one page, and empty if the work moves no
    data)."""
    work = draw(works)
    if draw(st.booleans()) and draw(st.booleans()):
        return LoopTask(work)
    name = draw(st.sampled_from(sorted(REGIONS)))
    size = REGIONS[name]
    empty = int(work.memory_accesses == 0)
    start = draw(st.integers(0, size - 1 + empty))
    length = draw(st.one_of(st.none(), st.integers(1 - empty, size - start)))
    return LoopTask(work, RegionAccess(
        name, start_byte=start, length=length,
        latency_multiplier=draw(st.sampled_from([1.0, 1.25, 3.0]))))


@st.composite
def task_runs(draw):
    """Tasks, each task's CPU, and first touches made before the loop."""
    tasks = draw(st.lists(loop_tasks(), min_size=1, max_size=12))
    cpus = draw(st.lists(st.integers(0, MACHINE.n_cpus - 1),
                         min_size=len(tasks), max_size=len(tasks)))
    touches = draw(st.lists(st.tuples(
        st.sampled_from(sorted(REGIONS)), st.integers(0, MACHINE.n_nodes - 1),
        st.integers(0, 3 * PAGE_SIZE)), max_size=3))
    return tasks, cpus, touches


def page_table(touches):
    pages = MACHINE.new_page_table()
    for name, size in REGIONS.items():
        pages.allocate(name, size)
    for name, node, length in touches:
        pages.touch(name, node, length=min(length, REGIONS[name]))
    return pages


def placement(pages):
    return ({name: pages.region(name).owner.tobytes() for name in REGIONS},
            pages.generation)


def column_table(tasks):
    """``tasks`` as a table built from columns, not from the objects."""
    access = [task.access for task in tasks]
    names = sorted({*REGIONS, *(a.region for a in access if a is not None)})
    return TaskTable(
        names,
        region=[-1 if a is None else names.index(a.region) for a in access],
        start_byte=[0 if a is None else a.start_byte for a in access],
        length=[np.nan if a is None or a.length is None else a.length
                for a in access],
        latency_multiplier=[1.0 if a is None else a.latency_multiplier
                            for a in access],
        **{name: [getattr(task.work, name) for task in tasks]
           for name in ("flops", "int_ops", "loads", "stores",
                        "footprint_bytes", "reuse")},
    )


@settings(max_examples=150, deadline=None)
@given(task_runs())
@example(([LoopTask(WorkSignature(), RegionAccess("r0", start_byte=1, length=0))],
          [3], []))  # an empty range inside a page touches nothing
def test_table_rows_and_placement_equal_the_per_task_loop(run):
    tasks, cpus, touches = run
    reference_pages = page_table(touches)
    expected = reference_task_rows(MACHINE, tasks, cpus, reference_pages)
    for tasks_in in (tasks, column_table(tasks)):
        pages = page_table(touches)
        rows = task_rows(MACHINE, tasks_in, cpus, pages)
        assert rows.tobytes() == expected.tobytes()
        assert placement(pages) == placement(reference_pages)
    assert task_rows(MACHINE, tasks, cpus).tobytes() == reference_task_rows(
        MACHINE, tasks, cpus, None).tobytes()


def test_two_nodes_reaching_one_region_place_in_row_order():
    # cpus 2 and 12 sit on nodes 1 and 6; the second row finds the first
    # row's pages placed and places only the rest of the region
    work = WorkSignature(loads=1e6, footprint_bytes=4e7, reuse=0.0)
    tasks = [LoopTask(work, RegionAccess("r3", length=10 * PAGE_SIZE)),
             LoopTask(work, RegionAccess("r3", latency_multiplier=1.5))]
    pages, reference_pages = page_table([]), page_table([])
    rows = task_rows(MACHINE, tasks, [2, 12], pages)
    assert rows.tobytes() == reference_task_rows(
        MACHINE, tasks, [2, 12], reference_pages).tobytes()
    owner = pages.region("r3").owner
    assert (owner[:10] == 1).all() and (owner[10:] == 6).all()
    assert placement(pages) == placement(reference_pages)


values = st.one_of(st.floats(-2.0, 3.0), st.sampled_from([0.0, 1.0, np.nan]))


@st.composite
def invalid_columns(draw):
    """Rows of field and access values, some out of their ranges."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        work = {name: draw(values) for name in (
            "flops", "loads", "footprint_bytes", "reuse", "mispredict_rate",
            "issue_inflation")}
        access = None
        if draw(st.booleans()):
            access = dict(start_byte=draw(st.integers(-2, 3)),
                          length=draw(st.one_of(st.none(), st.integers(-2, 3))),
                          latency_multiplier=draw(values))
        rows.append((work, access))
    return rows


def first_error(make):
    with pytest.raises(Exception) as error:
        make()
    return type(error.value), str(error.value)


@settings(max_examples=200, deadline=None)
@given(invalid_columns())
def test_invalid_columns_raise_what_the_objects_raise(rows):
    def objects():
        return [LoopTask(WorkSignature(**work),
                         None if access is None else RegionAccess("r0", **access))
                for work, access in rows]

    def columns():
        has = [access is not None for _, access in rows]
        access = [a or {} for _, a in rows]
        length = [np.nan if a.get("length") is None else a["length"]
                  for a in access]
        return TaskTable(
            ["r0"], region=[0 if h else -1 for h in has],
            start_byte=[a.get("start_byte", 0) for a in access], length=length,
            latency_multiplier=[a.get("latency_multiplier", 1.0) for a in access],
            **{name: [work[name] for work, _ in rows] for name in rows[0][0]})

    try:
        objects()
    except ValueError:
        assert first_error(columns) == first_error(objects)
    else:
        columns()


@pytest.mark.parametrize("access, message", [
    (RegionAccess("missing"), "no region 'missing'"),
    (RegionAccess("r1", start_byte=REGIONS["r1"] + 1), "outside region 'r1'"),
    (RegionAccess("r2", start_byte=5, length=9 * PAGE_SIZE), "outside region"),
    (RegionAccess("r0", start_byte=10, length=0), "accesses to an empty range"),
])
def test_bad_ranges_raise_what_the_per_task_charge_raises(access, message):
    work = WorkSignature(loads=1e5, footprint_bytes=4e7, reuse=0.0)
    tasks = [LoopTask(work, RegionAccess("r3")), LoopTask(work, access)]
    expected = first_error(
        lambda: reference_task_rows(MACHINE, tasks, [0, 5], page_table([])))
    assert message in expected[1]
    for tasks_in in (tasks, column_table(tasks)):
        pages = page_table([])
        assert first_error(
            lambda: task_rows(MACHINE, tasks_in, [0, 5], pages)) == expected
        # every range is checked before any row places a page
        assert placement(pages) == placement(page_table([]))
