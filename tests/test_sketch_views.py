"""Unit tests for the sketch families in repro.engine.sketches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.sketches import (
    SKETCH_KINDS,
    BloomSketch,
    HllSketch,
    SketchConfig,
    VectorOfCountsSketch,
    sketch_family,
)
from repro.errors import ProtocolError
from repro.graph.bipartite import Layer

pytestmark = pytest.mark.timeout(120)

EPS = 2.0


# ----------------------------------------------------------------- config
def test_config_validates_kind_and_buckets():
    with pytest.raises(ProtocolError):
        SketchConfig("minhash", 64)
    with pytest.raises(ProtocolError):
        SketchConfig("voc", 4)  # below the minimum bucket count
    with pytest.raises(ProtocolError):
        SketchConfig("bloom", 65)  # bloom bits must pack into bytes


def test_config_bytes_per_vertex():
    assert SketchConfig("bloom", 512).bytes_per_vertex == 64
    assert SketchConfig("voc", 64).bytes_per_vertex == 512
    assert SketchConfig("hll", 64).bytes_per_vertex == 64


def test_for_budget_maximizes_buckets_within_budget():
    for kind in SKETCH_KINDS:
        config = SketchConfig.for_budget(kind, 64)
        assert config.bytes_per_vertex <= 64
    assert SketchConfig.for_budget("bloom", 64).m == 512
    assert SketchConfig.for_budget("voc", 64).m == 8
    assert SketchConfig.for_budget("hll", 64).m == 64
    with pytest.raises(ProtocolError):
        SketchConfig.for_budget("voc", 32)  # cannot hold 8 float buckets
    with pytest.raises(ProtocolError):
        SketchConfig.for_budget("minhash", 64)


def test_family_rejects_foreign_config():
    with pytest.raises(ProtocolError):
        BloomSketch(SketchConfig("voc", 64))
    assert isinstance(sketch_family(SketchConfig("hll", 64)), HllSketch)
    assert isinstance(
        sketch_family(SketchConfig("voc", 64)), VectorOfCountsSketch
    )


# ----------------------------------------------------------------- encode
def test_bloom_encode_sets_one_bit_per_distinct_neighbor(tiny_graph):
    family = sketch_family(SketchConfig("bloom", 64))
    raw = family.encode(tiny_graph, Layer.UPPER, np.array([0, 1, 2]))
    assert raw.shape == (3, 64) and raw.dtype == bool
    # Each vertex sets at most deg bits (hash collisions can merge some).
    degs = [tiny_graph.degree(Layer.UPPER, v) for v in (0, 1, 2)]
    for row, d in zip(raw, degs):
        assert 1 <= row.sum() <= d


def test_voc_encode_counts_sum_to_degree(tiny_graph):
    family = sketch_family(SketchConfig("voc", 16))
    raw = family.encode(tiny_graph, Layer.UPPER, np.array([0, 1, 2]))
    degs = [tiny_graph.degree(Layer.UPPER, v) for v in (0, 1, 2)]
    assert raw.sum(axis=1).tolist() == degs


def test_hll_encode_registers_bounded(tiny_graph):
    family = sketch_family(SketchConfig("hll", 16))
    raw = family.encode(tiny_graph, Layer.UPPER, np.array([0, 1]))
    assert raw.dtype == np.uint8
    assert raw.max() <= 30
    assert (raw > 0).sum(axis=1).max() <= max(
        tiny_graph.degree(Layer.UPPER, 0), tiny_graph.degree(Layer.UPPER, 1)
    )


def test_shared_hash_seed_makes_encodes_align(tiny_graph):
    a = sketch_family(SketchConfig("voc", 16, hash_seed=1))
    b = sketch_family(SketchConfig("voc", 16, hash_seed=1))
    c = sketch_family(SketchConfig("voc", 16, hash_seed=2))
    va = a.encode(tiny_graph, Layer.UPPER, np.array([0, 1]))
    vb = b.encode(tiny_graph, Layer.UPPER, np.array([0, 1]))
    vc = c.encode(tiny_graph, Layer.UPPER, np.array([0, 1]))
    assert np.array_equal(va, vb)
    assert not np.array_equal(va, vc)


# ---------------------------------------------------------------- release
@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_release_shapes_and_dtypes(small_graph, kind, expect_hll_floor):
    config = SketchConfig(kind, 64)
    family = sketch_family(config)
    vertices = np.arange(6, dtype=np.int64)
    with expect_hll_floor(kind, EPS):
        views = family.encode_release(
            small_graph, Layer.UPPER, vertices, EPS, rng=np.random.default_rng(0)
        )
    assert views.shape[0] == 6
    assert views.shape[1] * views.dtype.itemsize == config.bytes_per_vertex
    if kind == "hll":
        assert views.max() < HllSketch.num_values


@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_keyed_release_is_deterministic_and_epoch_scoped(
    small_graph, kind, expect_hll_floor
):
    family = sketch_family(SketchConfig(kind, 64))
    vertices = np.arange(8, dtype=np.int64)
    with expect_hll_floor(kind, EPS):
        one = family.encode_release(
            small_graph, Layer.UPPER, vertices, EPS, entropy=42, epoch=0
        )
        two = family.encode_release(
            small_graph, Layer.UPPER, vertices, EPS, entropy=42, epoch=0
        )
        other_epoch = family.encode_release(
            small_graph, Layer.UPPER, vertices, EPS, entropy=42, epoch=1
        )
        other_entropy = family.encode_release(
            small_graph, Layer.UPPER, vertices, EPS, entropy=43, epoch=0
        )
    assert np.array_equal(one, two)
    assert not np.array_equal(one, other_epoch)
    assert not np.array_equal(one, other_entropy)


@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_keyed_release_rows_are_vertex_keyed(small_graph, kind, expect_hll_floor):
    """Releasing a subset reproduces exactly the full batch's rows — the
    property that makes cache redraw and sharding bit-identical."""
    family = sketch_family(SketchConfig(kind, 64))
    subset = np.array([2, 5, 9], dtype=np.int64)
    with expect_hll_floor(kind, EPS):
        full = family.encode_release(
            small_graph, Layer.UPPER, np.arange(10, dtype=np.int64), EPS,
            entropy=7, epoch=0,
        )
        part = family.encode_release(
            small_graph, Layer.UPPER, subset, EPS, entropy=7, epoch=0
        )
    assert np.array_equal(part, full[subset])


def test_keyed_release_requires_vertex_ids(small_graph):
    family = sketch_family(SketchConfig("voc", 16))
    raw = family.encode(small_graph, Layer.UPPER, np.arange(4))
    with pytest.raises(ProtocolError):
        family.release(raw, EPS, entropy=1)


# ------------------------------------------------------------- estimation
@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_cardinality_tracks_degree_at_high_epsilon(small_graph, kind):
    family = sketch_family(SketchConfig(kind, 512 if kind == "bloom" else 64))
    vertices = np.arange(12, dtype=np.int64)
    degs = np.array(
        [small_graph.degree(Layer.UPPER, int(v)) for v in vertices], float
    )
    reps = 60
    acc = np.zeros(vertices.size)
    for i in range(reps):
        views = family.encode_release(
            small_graph, Layer.UPPER, vertices, 12.0,
            rng=np.random.default_rng(900 + i),
        )
        acc += family.cardinality(views, 12.0)
    mean = acc / reps
    # Within one count of the truth on average (hash collisions and the
    # log inversion keep this approximate rather than exact).
    assert np.abs(mean - degs).max() <= 1.5


@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_intersection_variance_is_positive_and_monotone(kind):
    family = sketch_family(SketchConfig(kind, 64))
    lo = family.intersection_variance(
        np.array([4.0]), np.array([4.0]), np.array([1.0]), EPS
    )
    hi = family.intersection_variance(
        np.array([12.0]), np.array([12.0]), np.array([1.0]), EPS
    )
    assert lo[0] > 0
    assert hi[0] >= lo[0]


def test_voc_intersect_unbiased_over_hash_and_noise(small_graph):
    """The VoC estimator is exactly unbiased over hash + noise randomness:
    average over many (hash_seed, noise) draws converges to C2."""
    u, w = 3, 9
    true = small_graph.count_common_neighbors(Layer.UPPER, u, w)
    rng = np.random.default_rng(777)
    reps = 300
    vals = np.empty(reps)
    for i in range(reps):
        family = sketch_family(
            SketchConfig("voc", 16, hash_seed=int(rng.integers(1 << 62)))
        )
        views = family.encode_release(
            small_graph, Layer.UPPER, np.array([u, w]), EPS, rng=rng
        )
        vals[i] = family.intersect(views, np.array([0]), np.array([1]), EPS)[0]
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - true) <= 5.0 * se + 0.05
