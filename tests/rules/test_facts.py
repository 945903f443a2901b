"""Unit tests for Fact and FactHandle."""

import pytest

from repro.rules import Fact, FactHandle


class TestFact:
    def test_field_access(self):
        f = Fact("MeanEventFact", metric="CPU_CYCLES", severity=0.25)
        assert f["metric"] == "CPU_CYCLES"
        assert f["severity"] == 0.25

    def test_missing_field_raises_with_available_names(self):
        f = Fact("T", a=1)
        with pytest.raises(KeyError, match="no field 'b'"):
            f["b"]

    def test_get_default(self):
        f = Fact("T", a=1)
        assert f.get("b", 42) == 42
        assert f.get("a") == 1

    def test_contains_and_iter(self):
        f = Fact("T", a=1, b=2)
        assert "a" in f and "c" not in f
        assert sorted(f) == ["a", "b"]
        assert dict(f.items()) == {"a": 1, "b": 2}

    def test_empty_type_rejected(self):
        with pytest.raises(ValueError):
            Fact("")

    def test_set_mutates(self):
        f = Fact("T", a=1)
        f.set("a", 2)
        f.set("b", 3)
        assert f["a"] == 2 and f["b"] == 3

    def test_as_dict_is_a_copy(self):
        f = Fact("T", a=1)
        d = f.as_dict()
        d["a"] = 99
        assert f["a"] == 1

    def test_value_equals(self):
        assert Fact("T", a=1).value_equals(Fact("T", a=1))
        assert not Fact("T", a=1).value_equals(Fact("T", a=2))
        assert not Fact("T", a=1).value_equals(Fact("U", a=1))

class TestFactHandle:
    def test_sequence_is_monotonic(self):
        h1 = FactHandle(Fact("T"))
        h2 = FactHandle(Fact("T"))
        assert h2.seq > h1.seq

    def test_live_flag(self):
        h = FactHandle(Fact("T"))
        assert h.live
        h.live = False
        assert not h.live

    def test_hash_and_eq_by_seq(self):
        h1 = FactHandle(Fact("T"))
        h2 = FactHandle(Fact("T"))
        assert h1 == h1 and h1 != h2
        assert len({h1, h2, h1}) == 2

    def test_seq_reservations_never_overlap_across_threads(self):
        """Concurrent engines reserve disjoint sequence ranges: a lost
        update in the allocator would hand two ranges the same numbers."""
        import sys
        import threading

        from repro.rules.facts import reserve_seqs

        ranges: list[range] = []
        lock = threading.Lock()

        def reserve():
            mine = [range(base, base + n) for n in (1, 7, 3) * 100
                    for base in [reserve_seqs(n)]]
            with lock:
                ranges.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reserve) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        seqs = [s for r in ranges for s in r]
        assert len(ranges) == 8 * 300
        assert len(seqs) == len(set(seqs))
