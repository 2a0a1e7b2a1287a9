"""The array-native cache stores keep the dict-and-set stores' every answer.

``DictStores`` is the serving cache's sketch-mode pair store, its vertex
views' residency and its charge memory (drawn vertices, pairs and
degrees) as they were when they lived in an ``OrderedDict`` and Python
sets — the methods kept verbatim from :class:`NoisyViewCache` (trimmed to
those stores) as the reference. The live cache holds sorted int64 pair
codes with aligned count and LRU-stamp arrays, and dense per-vertex
flags. Driven by the same hypothesis scripts — stores and touching reads
with repeated keys, byte and entry budgets with pins, full and
incremental rotations — both must report the same hits, counts, unseen
keys, eviction victims (in LRU order), byte and entry totals, counters
and warm-set touches.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph, Layer
from repro.protocol.session import ExecutionMode
from repro.serving.cache import CacheStats, NoisyViewCache

N_UPPER = 12
N_LOWER = 20
EPSILON = 2.0
_PAIR_ENTRY_BYTES = 32
_DEGREE_ENTRY_BYTES = 16


class DictStores:
    """The parent cache's dict/set stores (verbatim methods)."""

    def __init__(self, mode, view_bytes, max_bytes=None, max_entries=None):
        self.mode = mode
        self.view_bytes = view_bytes
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.bounded = max_bytes is not None or max_entries is not None
        self.stats = CacheStats()
        self._bytes = 0
        self._views: OrderedDict[int, np.ndarray] = OrderedDict()
        self._pair_counts: OrderedDict[tuple[int, int], tuple[int, int]] = (
            OrderedDict()
        )
        self._degrees: OrderedDict[int, float] = OrderedDict()
        self._drawn_vertices: set[int] = set()
        self._drawn_pairs: set[tuple[int, int]] = set()
        self._drawn_degrees: set[int] = set()
        self._touches = np.zeros(N_UPPER, dtype=np.int64)
        self._shard_group: dict[int, int] = {}

    # -- vertex views ---------------------------------------------------
    def has_view(self, vertex: int) -> bool:
        return int(vertex) in self._views

    def vertex_cached_mask(self, vertices: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (int(v) in self._views for v in vertices),
            dtype=bool,
            count=len(vertices),
        )

    def uncharged(self, vertices: np.ndarray) -> np.ndarray:
        return np.array(
            [int(v) for v in vertices if int(v) not in self._drawn_vertices],
            dtype=np.int64,
        )

    def materialize_fresh(self, vertices: np.ndarray) -> None:
        """Bookkeeping of ``materialize_fresh`` (the draw is the live one's)."""
        if self.bounded:
            self.stats.recharges += sum(
                1 for v in vertices if int(v) in self._drawn_vertices
            )
        for vertex in vertices.tolist():
            self._store_view(vertex, np.zeros(self.view_bytes, dtype=np.uint8))

    def _store_view(self, vertex: int, view: np.ndarray) -> None:
        self._drop_view(vertex)
        self._views[vertex] = view
        self._bytes += view.nbytes
        self._drawn_vertices.add(vertex)

    def _drop_view(self, vertex: int) -> None:
        dropped = self._views.pop(vertex, None)
        if dropped is not None:
            self._bytes -= dropped.nbytes

    def gather_views(self, vertices: np.ndarray) -> None:
        vertices = np.asarray(vertices, dtype=np.int64)
        for v in vertices.tolist():
            self._views.move_to_end(v)
        np.add.at(self._touches, vertices, 1)

    # -- sketch-mode pairs ----------------------------------------------
    def has_pair(self, a: int, b: int) -> bool:
        return self._key(a, b) in self._pair_counts

    def pair_counts(self, a: int, b: int) -> tuple[int, int]:
        key = self._key(a, b)
        self._pair_counts.move_to_end(key)
        self._touches[key[0]] += 1
        self._touches[key[1]] += 1
        return self._pair_counts[key]

    def unseen_pairs(self, keys: np.ndarray) -> np.ndarray:
        fresh = [
            (int(k[0]), int(k[1]))
            for k in keys
            if (int(k[0]), int(k[1])) not in self._drawn_pairs
        ]
        return (
            np.array(fresh, dtype=np.int64)
            if fresh
            else np.empty((0, 2), dtype=np.int64)
        )

    def store_pair_counts(
        self, keys: np.ndarray, n1: np.ndarray, n2: np.ndarray
    ) -> None:
        for i in range(len(keys)):
            key = (int(keys[i][0]), int(keys[i][1]))
            self._store_pair(key, (int(n1[i]), int(n2[i])))

    def _store_pair(self, key: tuple[int, int], counts: tuple[int, int]) -> None:
        if key not in self._pair_counts:
            self._bytes += _PAIR_ENTRY_BYTES
        self._pair_counts[key] = counts
        self._pair_counts.move_to_end(key)
        self._drawn_pairs.add(key)

    def sketch_fresh(self, keys: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> None:
        """Bookkeeping of the keyed ``sketch_fresh`` loop (the draws are
        the live cache's)."""
        for i, key in enumerate(keys):
            key = (int(key[0]), int(key[1]))
            if self.bounded and key in self._drawn_pairs:
                self.stats.recharges += 1
            self._store_pair(key, (int(n1[i]), int(n2[i])))

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        a, b = int(a), int(b)
        return (a, b) if a <= b else (b, a)

    def pair_charge_free(self, a: int, b: int) -> bool:
        return self._key(a, b) in self._drawn_pairs or self.has_pair(a, b)

    def vertex_charge_free(self, vertex: int) -> bool:
        return int(vertex) in self._drawn_vertices or self.has_view(vertex)

    # -- noisy degrees --------------------------------------------------
    def has_degree(self, vertex: int) -> bool:
        return int(vertex) in self._degrees

    def degree_charge_free(self, vertex: int) -> bool:
        return int(vertex) in self._drawn_degrees or self.has_degree(vertex)

    def uncharged_degrees(self, vertices: np.ndarray) -> np.ndarray:
        return np.array(
            [int(v) for v in vertices if int(v) not in self._drawn_degrees],
            dtype=np.int64,
        )

    def store_degrees(self, vertices: np.ndarray, values: np.ndarray) -> None:
        for vertex, value in zip(vertices, values):
            vertex = int(vertex)
            if vertex not in self._degrees:
                self._bytes += _DEGREE_ENTRY_BYTES
            self._degrees[vertex] = float(value)
            self._degrees.move_to_end(vertex)
            self._drawn_degrees.add(vertex)

    # -- budget ---------------------------------------------------------
    def nbytes(self) -> int:
        return self._bytes

    def entries(self) -> int:
        return len(self._views) + len(self._pair_counts) + len(self._degrees)

    def over_budget(self) -> bool:
        if self.max_bytes is not None and self._bytes > self.max_bytes:
            return True
        if self.max_entries is not None and self.entries() > self.max_entries:
            return True
        return False

    def evict_to_budget(self, pin: frozenset | set = frozenset()) -> int:
        if not self.bounded:
            return 0
        evicted = 0
        pinned_vertices = {
            v for key in pin for v in (key if isinstance(key, tuple) else (key,))
        }
        store = (
            self._pair_counts if self.mode is ExecutionMode.SKETCH else self._views
        )
        while self.over_budget():
            self.stats.eviction_batches += 1
            victim = next(
                (v for v in self._degrees if v not in pinned_vertices), None
            )
            if victim is not None:
                self._degrees.pop(victim)
                self._bytes -= _DEGREE_ENTRY_BYTES
                evicted += 1
                continue
            victim = next((k for k in store if k not in pin), None)
            if victim is None:
                break
            if store is self._pair_counts:
                store.pop(victim)
                self._bytes -= _PAIR_ENTRY_BYTES
                evicted += 1
                continue
            group = self._shard_group.get(victim)
            batch = (
                [victim]
                if group is None
                else [
                    v for v in store
                    if v not in pin and self._shard_group.get(v) == group
                ]
            )
            for v in batch:
                self._drop_view(v)
            evicted += len(batch)
        self.stats.evictions += evicted
        return evicted

    def cached_pairs(self) -> int:
        return len(self._pair_counts)

    # -- rotations (the store-side halves of rotate/_rotate_incremental) --
    def rotate_full(self) -> None:
        self._touches.fill(0)
        self._views.clear()
        self._pair_counts.clear()
        self._degrees.clear()
        self._drawn_vertices.clear()
        self._drawn_pairs.clear()
        self._drawn_degrees.clear()
        self._shard_group.clear()
        self._bytes = 0

    def rotate_incremental(self, dirty: np.ndarray) -> None:
        self._touches.fill(0)
        dirty_set = {int(v) for v in dirty}
        for v in dirty_set:
            self._drop_view(v)
            if self._degrees.pop(v, None) is not None:
                self._bytes -= _DEGREE_ENTRY_BYTES
        stale_pairs = [
            k for k in self._pair_counts
            if k[0] in dirty_set or k[1] in dirty_set
        ]
        for key in stale_pairs:
            self._pair_counts.pop(key)
            self._bytes -= _PAIR_ENTRY_BYTES
        self._drawn_vertices -= dirty_set
        self._drawn_degrees -= dirty_set
        self._drawn_pairs = {
            k for k in self._drawn_pairs
            if k[0] not in dirty_set and k[1] not in dirty_set
        }


# ----------------------------------------------------------------------
# Scripts
# ----------------------------------------------------------------------
_vertex = st.integers(0, N_UPPER - 1)
_pair = st.tuples(_vertex, _vertex).filter(lambda p: p[0] != p[1])
_key = _pair.map(lambda p: (min(p), max(p)))
_keys = st.lists(_key, min_size=1, max_size=10)
_counts = st.integers(0, 50)
_vertices = st.lists(_vertex, min_size=1, max_size=6, unique=True)
_pin = st.lists(st.one_of(_key, _vertex), max_size=3)
_budget = st.tuples(
    st.one_of(st.none(), st.integers(1, 400)),
    st.one_of(st.none(), st.integers(1, 16)),
)

_pair_op = st.one_of(
    st.tuples(st.just("store"), _keys, st.lists(_counts, min_size=20, max_size=20)),
    st.tuples(st.just("fresh"), _keys),
    st.tuples(st.just("read"), st.lists(st.integers(0, 99), min_size=1, max_size=12)),
    st.tuples(st.just("degrees"), _vertices),
    st.tuples(st.just("evict"), _budget, _pin),
    st.tuples(st.just("rotate")),
    st.tuples(st.just("rotate_dirty"), _vertices),
)
_view_op = st.one_of(
    st.tuples(st.just("draw"), st.permutations(range(N_UPPER)), st.integers(1, N_UPPER)),
    st.tuples(st.just("gather"), st.lists(st.integers(0, 99), min_size=1, max_size=8)),
    st.tuples(st.just("degrees"), _vertices),
    st.tuples(st.just("evict"), _budget, _pin),
    st.tuples(st.just("rotate")),
    st.tuples(st.just("rotate_dirty"), _vertices),
)


def _graph() -> BipartiteGraph:
    rng = np.random.default_rng(7)
    edges = np.column_stack(
        [rng.integers(0, N_UPPER, 60), rng.integers(0, N_LOWER, 60)]
    )
    return BipartiteGraph(N_UPPER, N_LOWER, edges)


def _pair_of_codes(codes: np.ndarray) -> list[tuple[int, int]]:
    return [(int(c) // N_UPPER, int(c) % N_UPPER) for c in codes]


def _dirty(cache: NoisyViewCache, vertices: list[int]) -> None:
    """Record a mutation that dirties exactly ``vertices`` (upper layer)."""
    inserts, deletes = [], []
    for u in vertices:
        row = cache.graph.neighbors(Layer.UPPER, u)
        if row.size:
            deletes.append((u, int(row[0])))
        else:
            inserts.append((u, 0))
    cache.mutate(inserts=inserts, deletes=deletes)


def _rotate(live: NoisyViewCache, ref: DictStores, dirty: list[int] | None) -> None:
    if dirty is not None:
        _dirty(live, dirty)
    live.rotate()
    if live.last_rotation["incremental"]:
        assert sorted(live.last_rotation["dirty_vertices"].tolist()) == sorted(dirty)
        ref.rotate_incremental(live.last_rotation["dirty_vertices"])
    else:
        ref.rotate_full()


def _evict(live: NoisyViewCache, ref: DictStores, budget, pin) -> None:
    live.max_bytes, live.max_entries = budget
    ref.max_bytes, ref.max_entries = budget
    if live.bounded:
        pin = frozenset(pin)
        assert live.evict_to_budget(pin) == ref.evict_to_budget(pin)


def _store_degrees(live: NoisyViewCache, ref: DictStores, vertices: list[int]) -> None:
    values = np.arange(len(vertices), dtype=np.float64) + 0.5
    live.store_degrees(np.array(vertices), values)
    ref.store_degrees(vertices, values)


def _assert_common(live: NoisyViewCache, ref: DictStores) -> None:
    everyone = np.arange(N_UPPER, dtype=np.int64)
    assert live.nbytes() == ref.nbytes()
    assert live.entries() == ref.entries()
    assert live.stats.evictions == ref.stats.evictions
    assert live.stats.eviction_batches == ref.stats.eviction_batches
    assert live.stats.recharges == ref.stats.recharges
    np.testing.assert_array_equal(live._touches, ref._touches)
    assert list(live._degrees.items()) == list(ref._degrees.items())
    np.testing.assert_array_equal(
        live.uncharged_degrees(everyone), ref.uncharged_degrees(everyone)
    )
    for v in everyone.tolist():
        assert live.degree_charge_free(v) == ref.degree_charge_free(v)
    np.testing.assert_array_equal(
        live.degree_charge_free_mask(everyone),
        [ref.degree_charge_free(v) for v in everyone.tolist()],
    )


def _assert_pairs_equal(live: NoisyViewCache, ref: DictStores) -> None:
    _assert_common(live, ref)
    assert live.cached_pairs() == ref.cached_pairs()
    # Same entries, same counts, same LRU order (ascending stamps).
    lru = np.argsort(live._stamp, kind="stable")
    live_items = [
        (key, (int(n1), int(n2)))
        for key, n1, n2 in zip(
            _pair_of_codes(live._codes[lru]), live._n1[lru], live._n2[lru]
        )
    ]
    assert live_items == list(ref._pair_counts.items())
    assert set(_pair_of_codes(live._drawn_codes)) == ref._drawn_pairs
    every_key = np.array(
        [(a, b) for a in range(N_UPPER) for b in range(a + 1, N_UPPER)],
        dtype=np.int64,
    )
    np.testing.assert_array_equal(
        live.pair_cached_mask(every_key),
        [ref.has_pair(a, b) for a, b in every_key.tolist()],
    )
    np.testing.assert_array_equal(
        live.pair_charge_free_mask(every_key),
        [ref.pair_charge_free(a, b) for a, b in every_key.tolist()],
    )
    np.testing.assert_array_equal(
        live.unseen_pairs(every_key), ref.unseen_pairs(every_key)
    )
    for a, b in every_key.tolist()[::7]:
        assert live.has_pair(b, a) == ref.has_pair(b, a)
        assert live.pair_charge_free(b, a) == ref.pair_charge_free(b, a)


def _assert_views_equal(live: NoisyViewCache, ref: DictStores) -> None:
    _assert_common(live, ref)
    everyone = np.arange(N_UPPER, dtype=np.int64)
    assert list(live._views) == list(ref._views)
    np.testing.assert_array_equal(
        live.vertex_cached_mask(everyone), ref.vertex_cached_mask(everyone)
    )
    np.testing.assert_array_equal(live.uncharged(everyone), ref.uncharged(everyone))
    np.testing.assert_array_equal(
        live.vertex_charge_free_mask(everyone),
        [ref.vertex_charge_free(v) for v in everyone.tolist()],
    )
    for v in everyone.tolist():
        assert live.has_view(v) == ref.has_view(v)
        assert live.vertex_charge_free(v) == ref.vertex_charge_free(v)


class TestPairStoreReference:
    @given(st.lists(_pair_op, min_size=1, max_size=14), _budget)
    @settings(max_examples=80, deadline=None)
    def test_pair_store_matches_dict_store(self, script, budget):
        live = NoisyViewCache(
            _graph(), Layer.UPPER, EPSILON, mode=ExecutionMode.SKETCH,
            max_bytes=budget[0], max_entries=budget[1] or 10**6,
            rng=np.random.default_rng(3),
        )
        ref = DictStores(
            ExecutionMode.SKETCH, 0, max_bytes=budget[0],
            max_entries=budget[1] or 10**6,
        )
        for op in script:
            kind = op[0]
            if kind == "store":
                keys = np.array(op[1], dtype=np.int64)
                n1 = np.array(op[2][: len(keys)], dtype=np.int64)
                n2 = n1 + np.array(op[2][::-1][: len(keys)], dtype=np.int64)
                live.store_pair_counts(keys, n1, n2)
                ref.store_pair_counts(keys, n1, n2)
            elif kind == "fresh":
                keys = np.array(op[1], dtype=np.int64)
                n1, n2, _ = live.sketch_fresh(keys)
                ref.sketch_fresh(keys, n1, n2)
            elif kind == "read":
                resident = list(ref._pair_counts)
                if not resident:
                    continue
                keys = [resident[i % len(resident)] for i in op[1]]
                # Either endpoint order reads the same entry.
                rows = np.array(
                    [(b, a) if i % 2 else (a, b) for i, (a, b) in enumerate(keys)],
                    dtype=np.int64,
                )
                n1, n2 = live.gather_pair_counts(rows)
                expected = [ref.pair_counts(a, b) for a, b in rows.tolist()]
                assert list(zip(n1.tolist(), n2.tolist())) == expected
            elif kind == "degrees":
                _store_degrees(live, ref, op[1])
            elif kind == "evict":
                _evict(live, ref, op[1], op[2])
            elif kind == "rotate":
                _rotate(live, ref, None)
            else:
                _rotate(live, ref, op[1])
            _assert_pairs_equal(live, ref)

    def test_eviction_victims_leave_in_lru_order(self):
        live = NoisyViewCache(
            _graph(), Layer.UPPER, EPSILON, mode=ExecutionMode.SKETCH,
            max_entries=100, rng=np.random.default_rng(3),
        )
        keys = np.array([(0, 1), (2, 3), (4, 5), (1, 6), (0, 7)], dtype=np.int64)
        live.store_pair_counts(keys, np.arange(5), np.arange(5) + 9)
        live.pair_counts(2, 3)  # (2, 3) becomes the most recent
        live.store_pair_counts(keys[[0]], [40], [41])  # then (0, 1)
        order = []
        for bound in range(4, -1, -1):
            live.max_entries = max(bound, 1)
            before = {k for k in map(tuple, keys.tolist()) if live.has_pair(*k)}
            live.evict_to_budget(pin=frozenset({(0, 1)}))
            after = {k for k in map(tuple, keys.tolist()) if live.has_pair(*k)}
            order.extend(sorted(before - after))
        assert order == [(4, 5), (1, 6), (0, 7), (2, 3)]
        assert live.has_pair(0, 1) and live.pair_counts(1, 0) == (40, 41)
        assert live.unseen_pairs(keys).size == 0  # the charge memory stays

    def test_missing_and_out_of_range_pairs(self):
        live = NoisyViewCache(
            _graph(), Layer.UPPER, EPSILON, mode=ExecutionMode.SKETCH,
            rng=np.random.default_rng(3),
        )
        live.store_pair_counts(np.array([[1, 2]]), [3], [4])
        # Codes are min * n + max: (0, n + 2) would alias (1, 2).
        assert not live.has_pair(0, N_UPPER + 2)
        assert not live.pair_charge_free(0, N_UPPER + 2)
        assert not live.has_view(-1) and not live.vertex_charge_free(N_UPPER)
        for a, b in ((0, N_UPPER + 2), (0, 1)):
            try:
                live.pair_counts(a, b)
            except KeyError:
                pass
            else:  # pragma: no cover - the assertion below reports it
                raise AssertionError(f"pair ({a}, {b}) read without an entry")
        assert live._touches.sum() == 0  # a refused read touches nothing


class TestVertexFlagsReference:
    @given(st.lists(_view_op, min_size=1, max_size=14), _budget)
    @settings(max_examples=60, deadline=None)
    def test_vertex_flags_match_dict_store(self, script, budget):
        live = NoisyViewCache(
            _graph(), Layer.UPPER, EPSILON, mode=ExecutionMode.MATERIALIZE,
            max_bytes=budget[0], max_entries=budget[1] or 10**6,
            rng=np.random.default_rng(4),
        )
        ref = DictStores(
            ExecutionMode.MATERIALIZE, (N_LOWER + 7) // 8,
            max_bytes=budget[0], max_entries=budget[1] or 10**6,
        )
        for op in script:
            kind = op[0]
            if kind == "draw":
                vertices = np.array(op[1][: op[2]], dtype=np.int64)
                live.materialize_fresh(vertices)
                ref.materialize_fresh(vertices)
            elif kind == "gather":
                resident = list(ref._views)
                if not resident:
                    continue
                vertices = [resident[i % len(resident)] for i in op[1]]
                live.gather_views(np.array(vertices, dtype=np.int64))
                ref.gather_views(vertices)
            elif kind == "degrees":
                _store_degrees(live, ref, op[1])
            elif kind == "evict":
                _evict(live, ref, op[1], op[2])
            elif kind == "rotate":
                _rotate(live, ref, None)
            else:
                _rotate(live, ref, op[1])
            _assert_views_equal(live, ref)
