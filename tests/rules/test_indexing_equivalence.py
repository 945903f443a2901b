"""Indexed vs naive matching equivalence, plus the two truth-maintenance
regressions this engine revision fixed.

The indexed matcher (alpha-memory hash probes + dirty-type agenda refresh)
must be a pure acceleration: the activation set, conflict-resolution order,
firing trace, diagnosis output, and final working memory are asserted to be
identical to the naive matcher over hand-built and randomized rulebases —
including rulebases whose actions retract and modify facts mid-run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rules import (
    Categorical,
    Fact,
    FactBatch,
    FactStream,
    LazyValue,
    RuleBuilder,
    RuleEngine,
    WorkingMemory,
)


# --------------------------------------------------------------------------
# regression: negation truth maintenance (blocker asserted mid-cycle)
# --------------------------------------------------------------------------


class TestNegationTruthMaintenance:
    def _engine(self, **kw):
        eng = RuleEngine(**kw)
        eng.add_rule(
            RuleBuilder("producer", salience=10)
            .when("s", "Seed")
            .then(lambda ctx: ctx.insert("Blocker", reason="produced"))
            .build()
        )
        eng.add_rule(
            RuleBuilder("guarded")
            .when("s", "Seed")
            .when_not("Blocker")
            .then_log("fired without blocker")
            .build()
        )
        return eng

    @pytest.mark.parametrize("indexing", [True, False])
    def test_blocker_asserted_mid_cycle_blocks_queued_activation(self, indexing):
        """Both rules activate in cycle 1 (no Blocker yet); ``producer``
        fires first on salience and asserts a Blocker — the already-queued
        ``guarded`` activation must now be invalid and must NOT fire."""
        eng = self._engine(indexing=indexing)
        eng.insert("Seed")
        eng.run()
        assert [r.rule_name for r in eng.trace] == ["producer"]
        assert eng.output == []

    @pytest.mark.parametrize("indexing", [True, False])
    def test_blocked_activation_fires_after_blocker_retracted(self, indexing):
        """Dropping an invalidated activation must not refract it: once the
        blocker goes away, the rule fires on the same fact tuple."""
        eng = self._engine(indexing=indexing)
        eng.insert("Seed")
        eng.run()
        assert eng.output == []
        (blocker,) = [h for h in eng.memory if h.fact.fact_type == "Blocker"]
        eng.retract(blocker)
        eng.run()
        assert eng.output == ["[guarded] fired without blocker"]

    @pytest.mark.parametrize("indexing", [True, False])
    def test_constrained_negation_revalidates_against_bindings(self, indexing):
        """The pop-time check honors join variables inside the negation:
        only the Seed whose name the new Blocker targets is suppressed."""
        eng = RuleEngine(indexing=indexing)
        eng.add_rule(
            RuleBuilder("producer", salience=10)
            .when("t", "Trigger", "n := target")
            .then(lambda ctx: ctx.insert("Blocker", name=ctx["n"]))
            .build()
        )
        eng.add_rule(
            RuleBuilder("guarded")
            .when("s", "Seed", "n := name")
            .when_not("Blocker", ("name", "==", "$n"))
            .then_log("ok {n}")
            .build()
        )
        eng.insert("Seed", name="a")
        eng.insert("Seed", name="b")
        eng.insert("Trigger", target="a")
        eng.run()
        assert eng.output == ["[guarded] ok b"]


# --------------------------------------------------------------------------
# regression: specificity scoring in conflict resolution
# --------------------------------------------------------------------------


class TestSpecificityOrdering:
    def test_constrained_pattern_beats_bare_pattern(self):
        """A one-constraint pattern must outrank a bare ``Type()`` pattern.
        Rule names are chosen so the buggy scoring (tie → alphabetical)
        would fire ``a_bare`` first."""
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("a_bare").when("f", "E").then_log("bare").build()
        )
        eng.add_rule(
            RuleBuilder("z_specific")
            .when("f", "E", ("x", ">", -1))
            .then_log("specific")
            .build()
        )
        eng.insert("E", x=1)
        eng.run()
        assert [r.rule_name for r in eng.trace] == ["z_specific", "a_bare"]

    def test_test_condition_adds_specificity(self):
        """A rule with a ``Test`` must outrank a bare single-pattern rule
        (the buggy scoring gave both a flat 1 per condition... except the
        bare pattern also scored 1, producing a tie)."""
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("a_bare").when("f", "E").then_log("bare").build()
        )
        eng.add_rule(
            RuleBuilder("z_tested")
            .when("f", "E")
            .test(lambda b: True, "always")
            .then_log("tested")
            .build()
        )
        eng.insert("E", x=1)
        eng.run()
        assert [r.rule_name for r in eng.trace] == ["z_tested", "a_bare"]

    def test_more_constraints_rank_higher(self):
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("a_one").when("f", "E", ("x", ">", 0)).then_log("1").build()
        )
        eng.add_rule(
            RuleBuilder("z_two")
            .when("f", "E", ("x", ">", 0), ("y", ">", 0))
            .then_log("2")
            .build()
        )
        eng.insert("E", x=1, y=1)
        eng.run()
        assert [r.rule_name for r in eng.trace] == ["z_two", "a_one"]


# --------------------------------------------------------------------------
# working-memory alpha indexes and change tracking
# --------------------------------------------------------------------------


class TestAlphaMemory:
    def test_lookup_matches_scan(self):
        wm = WorkingMemory()
        wm.assert_facts(
            [Fact("E", name=n, sev=i / 10) for i, n in
             enumerate(["a", "b", "a", "c"])]
        )
        hits = wm.lookup("E", "name", "a")
        assert [h.fact["sev"] for h in hits] == [0.0, 0.2]
        assert wm.lookup("E", "name", "zzz") == []
        assert wm.lookup("Nope", "name", "a") == []

    def test_lookup_catches_up_after_batch_assert(self):
        wm = WorkingMemory()
        wm.assert_fact(Fact("E", name="a"))
        assert len(wm.lookup("E", "name", "a")) == 1  # index materialized
        wm.assert_facts([Fact("E", name="a"), Fact("E", name="b")])
        assert len(wm.lookup("E", "name", "a")) == 2  # cursor caught up

    def test_lookup_hides_retracted_facts(self):
        wm = WorkingMemory()
        h = wm.assert_fact(Fact("E", name="a"))
        wm.assert_fact(Fact("E", name="a"))
        assert len(wm.lookup("E", "name", "a")) == 2
        wm.retract(h)
        assert len(wm.lookup("E", "name", "a")) == 1
        wm.sweep()  # drops and rebuilds the index
        assert len(wm.lookup("E", "name", "a")) == 1

    def test_lookup_skips_facts_missing_the_field(self):
        wm = WorkingMemory()
        wm.assert_fact(Fact("E", other=1))
        assert wm.lookup("E", "name", "a") == []

    def test_unhashable_values_are_always_candidates(self):
        wm = WorkingMemory()
        wm.assert_fact(Fact("E", name=["un", "hashable"]))
        wm.assert_fact(Fact("E", name="a"))
        hits = wm.lookup("E", "name", "a")
        assert len(hits) == 2  # the overflow fact rides along for re-verify

    def test_type_versions_track_mutations(self):
        wm = WorkingMemory()
        assert wm.type_version("E") == 0
        h = wm.assert_fact(Fact("E"))
        v1 = wm.type_version("E")
        assert v1 > 0
        wm.assert_fact(Fact("F"))
        assert wm.type_version("E") == v1  # untouched type is stable
        wm.retract(h)
        assert wm.type_version("E") > v1
        assert wm.version >= wm.type_version("E")

    def test_batch_assert_bumps_each_type_once(self):
        wm = WorkingMemory()
        before = wm.version
        wm.assert_facts([Fact("E"), Fact("E"), Fact("F")])
        assert wm.version == before + 2  # one bump per touched type


# --------------------------------------------------------------------------
# property: indexed and naive matching are observationally identical
# --------------------------------------------------------------------------

NAMES = ["alpha", "beta", "gamma", "delta"]
TYPES = ["X", "Y", "Z"]

names = st.sampled_from(NAMES)
fact_types = st.sampled_from(TYPES)
numbers = st.integers(min_value=0, max_value=4)


@st.composite
def fact_soups(draw):
    """Facts mixing string fields (index-eligible) and small ints."""
    n = draw(st.integers(2, 25))
    out = []
    for _ in range(n):
        fields = {"name": draw(names)}
        if draw(st.booleans()):
            fields["link"] = draw(names)
        if draw(st.booleans()):
            fields["sev"] = draw(numbers)
        out.append(Fact(draw(fact_types), **fields))
    return out


@st.composite
def random_rules(draw, index):
    """Rules exercising literal string equality (alpha probe), string joins
    (variable probe), numeric comparisons (scan fallback), negation, tests,
    salience ties, and retract/assert actions."""
    builder = RuleBuilder(
        f"r{index}", salience=draw(st.integers(-1, 1))
    )
    kind = draw(st.sampled_from(["literal", "join", "negated", "tested", "mutating"]))
    first_type = draw(fact_types)
    if kind == "literal":
        builder.when("f", first_type, ("name", "==", draw(names)))
        builder.then_log("literal hit")
    elif kind == "join":
        builder.when("f", first_type, "n := name")
        builder.when("g", draw(fact_types), ("link", "==", "$n"))
        builder.then_log("join hit {n}")
    elif kind == "negated":
        builder.when("f", first_type, "n := name")
        builder.when_not(draw(fact_types), ("link", "==", "$n"))
        builder.then_log("nothing links {n}")
    elif kind == "tested":
        builder.when("f", first_type, "s := sev")
        builder.test(lambda b: b["s"] >= 2, "sev >= 2")
        builder.then_log("severe")
    else:  # mutating: retract the matched fact, sometimes assert a marker
        builder.when("f", first_type, ("name", "==", draw(names)))
        if draw(st.booleans()):
            builder.then(
                lambda ctx: (
                    ctx.insert("Marker", name=ctx["f"]["name"]),
                    ctx.retract(ctx.handles[0]),
                )
            )
        else:
            builder.then(lambda ctx: ctx.retract(ctx.handles[0]))
    return builder.build()


def _normalized_trace(engine, base_seq):
    """Firing trace with global fact seqs rebased so two engines that saw
    the same assertion sequence produce comparable traces."""
    return [
        (
            rec.cycle,
            rec.rule_name,
            tuple(s - base_seq for s in rec.fact_seqs),
            tuple(sorted(rec.bindings_summary.items())),
            tuple(s - base_seq for s in rec.asserted_seqs),
        )
        for rec in engine.trace
    ]


def _final_memory_unsorted(engine):
    return [(h.fact.fact_type, tuple(sorted(h.fact.as_dict().items())))
            for h in engine.memory]


def _final_memory(engine):
    return sorted(_final_memory_unsorted(engine))


def _run(rules, facts, *, indexing):
    engine = RuleEngine(max_firings=50_000, indexing=indexing)
    engine.add_rules(rules)
    handles = engine.assert_facts([Fact(f.fact_type, **f.as_dict()) for f in facts])
    base = handles[0].seq
    engine.run()
    return _normalized_trace(engine, base), _final_memory(engine), engine.output


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_indexed_matches_naive_exactly(data):
    """Same rulebase + fact soup → identical firing trace (rules, fact
    tuples, cycles, bindings), identical output, identical final working
    memory, with and without indexing — including mid-run retractions."""
    rules = [
        data.draw(random_rules(index=i))
        for i in range(data.draw(st.integers(1, 5)))
    ]
    facts = data.draw(fact_soups())
    indexed = _run(rules, facts, indexing=True)
    naive = _run(rules, facts, indexing=False)
    assert indexed == naive


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_indexed_matches_naive_across_incremental_runs(data):
    """Equivalence must also hold for a second run() after external
    retract/modify between runs (dirty-type refresh vs full re-match)."""
    rules = [
        data.draw(random_rules(index=i))
        for i in range(data.draw(st.integers(1, 4)))
    ]
    facts = data.draw(fact_soups())
    extra = data.draw(fact_soups())
    engines = []
    for indexing in (True, False):
        engine = RuleEngine(max_firings=50_000, indexing=indexing)
        engine.add_rules(rules)
        handles = engine.assert_facts(
            [Fact(f.fact_type, **f.as_dict()) for f in facts]
        )
        base = handles[0].seq
        engine.run()
        live = [h for h in handles if h.live]
        if live:
            engine.retract(live[0])
        if len(live) > 1:
            engine.modify(live[1], name="delta")
        engine.assert_facts([Fact(f.fact_type, **f.as_dict()) for f in extra])
        engine.run()
        engines.append(
            (_normalized_trace(engine, base), _final_memory(engine), engine.output)
        )
    assert engines[0] == engines[1]


def test_diagnosis_identical_with_and_without_indexing():
    """End-to-end: the shipped rulebase over a synthetic trial produces the
    same recommendations and firing trace either way."""
    import numpy as np

    from repro.core.harness import RuleHarness
    from repro.knowledge.rulebase import diagnose_load_balance, openuh_rules
    from repro.perfdmf import TrialBuilder

    n = 8
    inner = np.linspace(10.0, 90.0, n)
    outer = 100.0 - inner
    trial = (
        TrialBuilder(
            "imb",
            {
                "schedule": "static",
                "callgraph": [["main", "outer"], ["outer", "inner"]],
            },
        )
        .with_events(["main", "outer", "inner"])
        .with_threads(n)
        .with_metric(
            "TIME",
            np.vstack([np.full(n, 5.0), outer, inner]),
            np.vstack([np.full(n, 105.0), outer + inner, inner]),
            units="usec",
        )
        .with_calls(np.ones((3, n)))
        .build(validate=False)
    )
    naive = RuleHarness()
    naive.engine = RuleEngine(indexing=False)
    naive.engine.add_rules(openuh_rules())
    a = diagnose_load_balance(trial)
    b = diagnose_load_balance(trial, harness=naive)
    assert a.output == b.output
    assert [r.rule_name for r in a.engine.trace] == [
        r.rule_name for r in b.engine.trace
    ]


STORED_EVENTS = ["main", "outer", "inner", "io"]


@settings(max_examples=40, deadline=None)
@given(edges=st.lists(st.lists(st.sampled_from(
    STORED_EVENTS + ["ext", "lib", ""]), min_size=2, max_size=2), max_size=10))
def test_batches_from_stored_codes_match_naive(edges):
    """The load-imbalance stream of a trial loaded back from a repository,
    whose edge columns are built from the stored callgraph codes, fires
    the same trace under the indexed and the naive matcher, and as the
    same rows asserted one fact at a time."""
    import numpy as np

    from repro.core import PerformanceResult
    from repro.knowledge import imbalance_facts
    from repro.perfdmf import PerfDMF, TrialBuilder

    values = np.arange(12, dtype=float).reshape(4, 3) ** 1.5
    trial = (TrialBuilder("t", {"callgraph": edges})
             .with_events(STORED_EVENTS).with_threads(3)
             .with_metric("TIME", values).build())
    with PerfDMF() as db:
        db.save_trial("A", "E", trial)
        stream = imbalance_facts(
            PerformanceResult(db.load_trial("A", "E", "t")))
    rules = [
        RuleBuilder("nested").when("e", "CallGraphEdge", "p := parent",
                                   "c := child")
        .when("f", "CallGraphEdge", ("parent", "==", "$c"), "g := child")
        .then_log("{p} > {c} > {g}").build(),
        RuleBuilder("outside").when("e", "CallGraphEdge", ("child", "==", "ext"),
                                    "p := parent")
        .then_log("{p} calls ext").build(),
        RuleBuilder("joined").when("i", "ImbalanceFact", "n := eventName")
        .when("e", "CallGraphEdge", ("child", "==", "$n"), "p := parent")
        .when("c", "CorrelationFact", ("eventA", "==", "$p"),
              ("eventB", "==", "$n"))
        .then_log("{p} > {n} correlated").build(),
    ]
    outcomes = []
    for indexing, facts in ((True, stream), (False, stream),
                            (True, list(stream))):
        engine = RuleEngine(indexing=indexing)
        engine.add_rules(rules)
        handles = engine.assert_facts(facts)
        engine.run()
        outcomes.append((_normalized_trace(engine, handles[0].seq),
                         engine.output))
    assert outcomes[0] == outcomes[1] == outcomes[2]


# --------------------------------------------------------------------------
# property: a batch-asserted soup behaves exactly like one-at-a-time facts
# --------------------------------------------------------------------------


@st.composite
def typed_soups(draw):
    """A fact soup whose facts of one type share their fields (a batch
    holds every field for every row)."""
    optional = {t: (draw(st.booleans()), draw(st.booleans())) for t in TYPES}
    out = []
    for _ in range(draw(st.integers(2, 25))):
        fact_type = draw(fact_types)
        has_link, has_sev = optional[fact_type]
        fields = {"name": draw(names)}
        if has_link:
            fields["link"] = draw(names)
        if has_sev:
            fields["sev"] = draw(numbers)
        out.append(Fact(fact_type, **fields))
    return out


@st.composite
def alpha_rules(draw, index):
    """Rules whose literal tests the alpha memory decides: numeric
    comparisons, ``in``, and a literal after a join variable."""
    builder = RuleBuilder(f"a{index}", salience=draw(st.integers(-1, 1)))
    builder.when("f", draw(fact_types),
                 ("sev", draw(st.sampled_from([">", ">=", "<", "!="])),
                  draw(numbers)),
                 ("name", "in", draw(st.lists(names, max_size=3))),
                 "n := name")
    if draw(st.booleans()):
        builder.when("g", draw(fact_types), ("link", "==", "$n"),
                     ("sev", "<=", draw(numbers)))
    return builder.then_log("alpha hit {n}").build()


def as_stream(facts):
    """The soup as one stream: a batch per type, each row at the
    position the fact has in the soup."""
    rows: dict[str, list[tuple[int, Fact]]] = {}
    for position, fact in enumerate(facts):
        rows.setdefault(fact.fact_type, []).append((position, fact))
    return FactStream([
        FactBatch(fact_type,
                  {name: [f[name] for _, f in typed] for name in typed[0][1]},
                  [position for position, _ in typed])
        for fact_type, typed in rows.items()
    ])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_assertion_matches_one_at_a_time(data):
    """Same rules + soup, asserted as type batches with interleaved
    positions or as single facts, with and without indexing → identical
    firing trace, final memory and output, including a retract and a
    modify between runs of rows no rule may have reached yet."""
    rules = [data.draw(random_rules(index=i))
             for i in range(data.draw(st.integers(0, 3)))]
    rules += [data.draw(alpha_rules(index=i))
              for i in range(data.draw(st.integers(1, 3)))]
    facts = data.draw(typed_soups())
    retract_at = data.draw(st.integers(0, len(facts) - 1))
    modify_at = data.draw(st.integers(0, len(facts) - 1))
    outcomes = []
    for batched in (True, False):
        for indexing in (True, False):
            engine = RuleEngine(max_firings=50_000, indexing=indexing)
            engine.add_rules(rules)
            copies = [Fact(f.fact_type, **f.as_dict()) for f in facts]
            if batched:
                handles = engine.assert_facts(as_stream(copies))
            else:
                handles = [engine.assert_fact(f) for f in copies]
            base = handles[0].seq
            engine.run(max_cycles=1)
            if handles[retract_at].live:
                engine.retract(handles[retract_at])
            if handles[modify_at].live:
                engine.modify(handles[modify_at], name="alpha", sev=3)
            engine.run()
            outcomes.append((_normalized_trace(engine, base),
                             _final_memory(engine), engine.output))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


@pytest.mark.parametrize("indexing", [True, False])
def test_string_join_matches_float_field(indexing):
    """Approximate ``==`` parses a numeric string, so a float field joins
    a string binding; the index must not hide the float row."""
    engine = RuleEngine(indexing=indexing)
    engine.add_rule(RuleBuilder("j").when("f", "X", "n := name")
                    .when("g", "Y", ("link", "==", "$n"))
                    .then_log("hit {n}").build())
    engine.assert_fact(Fact("X", name="1.0"))
    engine.assert_fact(Fact("Y", link=1.0))
    engine.run()
    assert engine.output == ["[j] hit 1.0"]


class TestFactBatches:
    def test_rows_reached_only_on_demand(self):
        engine = RuleEngine()
        engine.add_rule(RuleBuilder("hot").when("f", "E", ("sev", ">", 2))
                        .then_log("hot").build())
        handles = engine.assert_facts(FactBatch(
            "E", {"name": ["a", "b", "c"], "sev": [1, 5, 2]}))
        engine.run()
        store = engine.memory._stores["E"]
        assert [h is not None for h in store.handles] == [False, True, False]
        first = handles[0]
        assert handles[0] is first  # cached: one handle per row
        assert first.fact["name"] == "a"

    @pytest.mark.parametrize("indexing", [True, False])
    def test_fact_and_batch_rows_share_a_store(self, indexing):
        """Rows asserted as facts and as batches of one type, with
        different fields, answer one pattern together in seq order."""
        engine = RuleEngine(indexing=indexing)
        engine.add_rule(RuleBuilder("hot").when("f", "E", ("sev", ">", 1),
                                                "n := name")
                        .then_log("{n}").build())
        engine.insert("E", name="a", sev=2)
        engine.insert("E", name="b")
        engine.assert_facts(FactBatch("E", {"name": ["c", "d"]}))
        engine.assert_facts(FactBatch("E", {"name": ["e", "f"],
                                            "sev": [5, 0]}))
        engine.insert("E", name="g", sev=3, extra=True)
        engine.run()
        assert sorted(engine.output) == ["[hot] a", "[hot] e", "[hot] g"]
        assert [(f["name"], f.get("sev")) for f in engine.facts("E")] == [
            ("a", 2), ("b", None), ("c", None), ("d", None), ("e", 5),
            ("f", 0), ("g", 3)]

    def test_stream_iterates_in_position_order(self):
        stream = FactStream([
            FactBatch("A", {"x": [1, 3]}, [0, 2]),
            FactBatch("B", {"y": [2]}, [1]),
        ])
        assert len(stream) == 3
        assert [(f.fact_type, dict(f.items())) for f in stream] == [
            ("A", {"x": 1}), ("B", {"y": 2}), ("A", {"x": 3})]

    def test_stream_rows_take_consecutive_seqs_by_position(self):
        wm = WorkingMemory()
        handles = wm.assert_facts(FactStream([
            FactBatch("A", {"x": [1, 3]}, [0, 2]),
            FactBatch("B", {"y": [2]}, [1]),
        ]))
        base = handles.seqs[0]
        assert [(h.seq - base, h.fact.fact_type) for h in wm.of_type("A")] == [
            (0, "A"), (2, "A")]
        assert wm.handle(base + 1).fact["y"] == 2

    @pytest.mark.parametrize("batches", [
        [FactBatch("A", {"x": [1]}, [1])],                  # gap at 0
        [FactBatch("A", {"x": [1]}, [0]),
         FactBatch("B", {"y": [2]}, [0])],                  # position twice
        [FactBatch("A", {"x": [1]}, [0]),
         FactBatch("A", {"x": [2]}, [1])],                  # type twice
        [FactBatch("A", {"x": [1, 2]}, [0, 2])],            # out of range
        [FactBatch("A", {"x": [1]}, [-1])],                 # negative
        [FactBatch("A", {"x": [1, 2]}, [-1, 1]),
         FactBatch("B", {"y": [3]}, [0])],                  # negative, no gap
    ])
    def test_bad_streams_rejected(self, batches):
        with pytest.raises(ValueError):
            FactStream(batches)

    def test_batch_rejects_ragged_columns_and_unordered_positions(self):
        with pytest.raises(ValueError):
            FactBatch("A", {"x": [1, 2], "y": [1]})
        with pytest.raises(ValueError):
            FactBatch("A", {"x": [1, 2]}, [1, 0])


# --------------------------------------------------------------------------
# property: categorical name columns match exactly like plain ones
# --------------------------------------------------------------------------

#: The names table of the categorical columns below.  "gamma" and "delta"
#: are strings outside it, and 1.0 and 2 are not strings at all; "1.0"
#: joins the float 1.0 through approximate ``==``.
TABLE = ["alpha", "beta", "1.0"]
coded_values = st.sampled_from(NAMES + ["1.0", 1.0, 2])


@st.composite
def categorical_chunks(draw):
    """Runs of rows, each asserted either as one batch whose ``name`` and
    ``link`` columns are categorical over ``TABLE`` or as one single fact
    (which may lack any field)."""
    chunks = []
    for _ in range(draw(st.integers(1, 6))):
        fact_type = draw(fact_types)
        if draw(st.booleans()):
            has_link, has_sev = draw(st.booleans()), draw(st.booleans())
            rows = []
            for _ in range(draw(st.integers(1, 6))):
                row = {"name": draw(coded_values)}
                if has_link:
                    row["link"] = draw(coded_values)
                if has_sev:
                    row["sev"] = draw(numbers)
                rows.append(row)
            chunks.append((fact_type, rows))
        else:
            fields = {}
            for field in ("name", "link"):
                if draw(st.booleans()):
                    fields[field] = draw(coded_values)
            if draw(st.booleans()):
                fields["sev"] = draw(numbers)
            chunks.append((fact_type, fields))
    return chunks


def _assert_chunks(engine, chunks, *, coded):
    """Assert ``chunks`` in order; returns the rows' handles.  With
    ``coded`` a run of rows is one batch with categorical name columns,
    otherwise every row is a single fact."""
    handles = []
    for fact_type, rows in chunks:
        if isinstance(rows, dict):
            handles.append(engine.assert_fact(Fact(fact_type, **rows)))
        elif coded:
            columns = {field: [row[field] for row in rows] for field in rows[0]}
            for field in ("name", "link"):
                if field in columns:
                    columns[field] = Categorical(columns[field], TABLE)
            handles.extend(engine.assert_facts(FactBatch(fact_type, columns)))
        else:
            handles.extend(engine.assert_fact(Fact(fact_type, **row))
                           for row in rows)
    return handles


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_categorical_columns_match_naive(data):
    """Categorical batch columns and single facts of one type, asserted
    together, with names and probes inside and outside the names table,
    non-string values and bindings, and missing fields: the indexed
    matcher fires exactly as the naive matcher over the same rows as
    single facts, also after a retract, a sweep and more rows."""
    rules = [data.draw(random_rules(index=i))
             for i in range(data.draw(st.integers(1, 4)))]
    rules += [data.draw(alpha_rules(index=i))
              for i in range(data.draw(st.integers(0, 2)))]
    chunks = data.draw(categorical_chunks())
    extra = data.draw(categorical_chunks())
    retract_at = data.draw(st.lists(st.integers(0, 100), min_size=2,
                                    max_size=4))
    outcomes = []
    for coded, indexing in ((True, True), (False, False), (True, False)):
        engine = RuleEngine(max_firings=50_000, indexing=indexing)
        engine.add_rules(rules)
        handles = _assert_chunks(engine, chunks, coded=coded)
        base = handles[0].seq
        for at in retract_at[:-1]:  # swept before any rule runs
            live = [h for h in handles if h.live]
            if live:
                engine.retract(live[at % len(live)])
        engine.memory.sweep()
        engine.run()
        live = [h for h in handles if h.live]
        if live:
            engine.retract(live[retract_at[-1] % len(live)])
        engine.memory.sweep()
        _assert_chunks(engine, extra, coded=coded)
        engine.run()
        # values of mixed types: order the final memory by repr
        memory = sorted(map(repr, _final_memory_unsorted(engine)))
        outcomes.append((_normalized_trace(engine, base), memory,
                         engine.output))
    assert outcomes[0] == outcomes[1] == outcomes[2]


class TestPresenceOverCategoricalRuns:
    """A pattern that tests only its fields' presence passes every row of
    a categorical run of each such field without a look; plain facts
    around the runs, some lacking a field, are still tested one by one."""

    CHUNKS = [
        ("E", {"other": 1}),  # lacks both fields
        ("E", [{"name": "alpha", "link": "beta"},
               {"name": "beta", "link": "gamma"}]),
        ("E", {"name": "gamma"}),  # lacks link
        ("E", [{"name": n} for n in ("delta", "alpha", 1.0)]),  # no link run
        ("E", {"link": "alpha"}),  # lacks name
        ("E", [{"link": "beta", "name": "1.0"}]),
        ("E", {"name": "beta", "link": "alpha"}),
    ]

    @staticmethod
    def _rules():
        named = RuleBuilder("named").when("f", "E", "n := name")
        linked = RuleBuilder("linked").when("f", "E", "n := name", "l := link")
        joined = RuleBuilder("joined").when("f", "E", "n := name").when(
            "g", "E", ("link", "==", "$n"))
        return [named.then_log("named {n}").build(),
                linked.then_log("{n} links {l}").build(),
                joined.then_log("{n} is linked").build()]

    def test_alpha_rows_are_the_rows_holding_every_field(self):
        wm = WorkingMemory()
        handles = _assert_chunks(wm, self.CHUNKS, coded=True)
        base = handles[0].seq
        for rule, fields in zip(self._rules(), [("name",), ("name", "link")]):
            expected = [h.seq - base for h in handles
                        if all(f in h.fact.as_dict() for f in fields)]
            got = [h.seq - base for h in wm.candidates(rule.conditions[0], ())]
            assert got == expected
        # rows asserted after the alpha memory was built are caught up
        more = _assert_chunks(wm, self.CHUNKS[1:4], coded=True)
        pattern = self._rules()[1].conditions[0]
        assert [h.seq - base for h in wm.candidates(pattern, ())] == [
            h.seq - base for h in handles + list(more)
            if {"name", "link"} <= h.fact.as_dict().keys()]

    def test_indexed_matches_naive(self):
        outcomes = []
        for coded, indexing in ((True, True), (False, False), (True, False)):
            engine = RuleEngine(indexing=indexing)
            engine.add_rules(self._rules())
            handles = _assert_chunks(engine, self.CHUNKS, coded=coded)
            engine.run()
            outcomes.append((_normalized_trace(engine, handles[0].seq),
                             engine.output))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert {rec[1] for rec in outcomes[0][0]} == {"named", "linked", "joined"}


class TestCategoricalColumns:
    def _memory(self):
        wm = WorkingMemory()
        wm.assert_fact(Fact("E", name="beta"))
        wm.assert_facts(FactBatch("E", {"name": Categorical(
            ["alpha", "gamma", 1.0, "alpha", "delta"], ["alpha", "beta"])}))
        wm.assert_fact(Fact("E", other=1))  # lacks the field
        wm.assert_fact(Fact("E", name="gamma"))
        return wm

    @staticmethod
    def _names(handles):
        return [h.fact.get("name") for h in handles]

    def test_probes_inside_and_outside_the_table(self):
        wm = self._memory()
        # a table name: its code's rows, plus the non-string row
        assert self._names(wm.lookup("E", "name", "alpha")) == [
            "alpha", 1.0, "alpha"]
        assert self._names(wm.lookup("E", "name", "beta")) == ["beta", 1.0]
        # outside the table: every batch row outside it, a superset
        assert self._names(wm.lookup("E", "name", "gamma")) == [
            "gamma", 1.0, "delta", "gamma"]
        # not a string: still a superset of the approximate matches
        assert 1.0 in self._names(wm.lookup("E", "name", 1.0))
        # unhashable: every row
        assert len(wm.lookup("E", "name", ["x"])) == 8

    def test_rows_build_facts_with_plain_values(self):
        wm = self._memory()
        facts = wm.facts_of_type("E")
        assert [type(f.get("name")) for f in facts] == [
            str, str, str, float, str, str, type(None), str]
        assert [f.get("name") for f in facts] == [
            "beta", "alpha", "gamma", 1.0, "alpha", "delta", None, "gamma"]

    def test_retract_and_sweep_keep_the_codes(self):
        wm = self._memory()
        assert len(wm.lookup("E", "name", "alpha")) == 3  # index built
        first_alpha = wm.lookup("E", "name", "alpha")[0]
        wm.retract(first_alpha)
        wm.retract(wm.lookup("E", "name", "beta")[0])
        assert wm.sweep() == 2
        assert self._names(wm.lookup("E", "name", "alpha")) == [1.0, "alpha"]
        assert self._names(wm.lookup("E", "name", "delta")) == [
            "gamma", 1.0, "delta"]
        wm.assert_facts(FactBatch("E", {"name": Categorical(
            ["beta", "alpha"], ["alpha", "beta"])}))
        assert self._names(wm.lookup("E", "name", "alpha")) == [
            1.0, "alpha", "alpha"]

    def test_codes_and_take(self):
        column = Categorical(["b", "x", 3, "a"], ["a", "b"])
        assert column.codes.tolist() == [1, 2, 3, 0]
        picked = column.take([3, 0])
        assert list(picked) == ["a", "b"] and picked.codes.tolist() == [0, 1]
        with pytest.raises(ValueError):
            Categorical(["a"], ["a", "a"])


class TestLazyValues:
    def test_computed_only_when_a_row_is_reached(self):
        calls = []

        def describe(value):
            calls.append(value)
            return repr(value)

        engine = RuleEngine()
        engine.add_rule(RuleBuilder("ctx")
                        .when("m", "Meta", ("name", "==", "schedule"),
                              ("value", "==", "static"))
                        .then_log("static").build())
        engine.assert_facts(FactBatch("Meta", {
            "name": ["schedule", "callgraph"],
            "value": ["static", LazyValue(describe, [["main", "a"]])]}))
        engine.run()
        assert engine.output == ["[ctx] static"]
        assert calls == []  # the name test stops the callgraph row
        (_, row) = engine.memory.of_type("Meta")
        assert row.fact["value"] == "[['main', 'a']]"
        assert row.fact["value"] == "[['main', 'a']]"
        assert len(calls) == 1  # computed once

    @pytest.mark.parametrize("indexing", [True, False])
    def test_value_tests_read_the_computed_value(self, indexing):
        engine = RuleEngine(indexing=indexing)
        engine.add_rule(RuleBuilder("big").when("m", "Meta", ("value", "==", "[1, 2]"))
                        .then_log("hit").build())
        engine.assert_facts(FactBatch("Meta", {
            "value": [LazyValue(repr, [1, 2]), LazyValue(repr, [3])]}))
        engine.run()
        assert engine.output == ["[big] hit"]
        assert [f["value"] for f in FactBatch("Meta", {
            "value": [LazyValue(repr, (1,))]})] == ["(1,)"]
