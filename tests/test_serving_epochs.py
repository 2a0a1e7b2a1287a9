"""End-to-end epoch accounting: replay is free, rotation recharges.

The acceptance contract of the serving layer: replaying a workload twice
within one epoch costs exactly the one-shot batch spend (every repeat is
a cache hit), while replaying it across an epoch boundary doubles the
per-vertex spend — and the served estimates stay unbiased (distributional
guarantees live in ``test_serving_statistics.py``; here the replay is
additionally checked to be bit-identical, which preserves whatever law
the first pass drew from).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.engine.core import BatchQueryEngine
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_query_pairs
from repro.protocol.session import ExecutionMode
from repro.serving import QueryServer

MODES = (ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH)
EPSILON = 1.5


@pytest.fixture(scope="module")
def workload():
    graph = random_bipartite(80, 60, 720, rng=13)
    pairs = sample_query_pairs(graph, Layer.UPPER, 25, rng=3)
    return graph, pairs


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_replay_free_within_epoch_doubles_across_boundary(workload, mode):
    graph, pairs = workload

    # Reference: the one-shot engine batch charges every distinct vertex
    # exactly epsilon (parallel composition across the workload).
    reference = BatchQueryEngine(mode=mode).estimate_pairs(
        graph, Layer.UPPER, pairs, EPSILON, rng=1
    )
    assert reference.max_epsilon_spent == pytest.approx(EPSILON)

    async def run():
        async with QueryServer(
            graph, Layer.UPPER, EPSILON, mode=mode, rng=5
        ) as server:
            first = await asyncio.gather(*(server.query_pair(p) for p in pairs))
            spend_first = server.accountant.max_lifetime_spent()
            replay = await asyncio.gather(*(server.query_pair(p) for p in pairs))
            spend_replay = server.accountant.max_lifetime_spent()
            server.rotate_epoch()
            rotated = await asyncio.gather(*(server.query_pair(p) for p in pairs))
            spend_rotated = server.accountant.max_lifetime_spent()
            return (
                server, first, replay, rotated,
                spend_first, spend_replay, spend_rotated,
            )

    (
        server, first, replay, rotated,
        spend_first, spend_replay, spend_rotated,
    ) = asyncio.run(run())

    # Within one epoch: total spend equals the one-shot batch spend.
    assert spend_first == pytest.approx(reference.max_epsilon_spent)
    assert spend_replay == pytest.approx(spend_first), "cache hits must be free"
    # Across the epoch boundary: the honest per-vertex total doubles.
    assert spend_rotated == pytest.approx(2.0 * EPSILON)
    assert server.accountant.epoch_peaks() == [pytest.approx(EPSILON)]
    assert server.accountant.max_epoch_spent() == pytest.approx(EPSILON)
    # The ledger's group view stays at one epsilon-round per epoch party.
    assert server.ledger.max_spent() == pytest.approx(EPSILON)

    # Replayed estimates are the identical draws (hence identically
    # distributed — unbiasedness of the first pass carries over verbatim).
    first_values = np.array([e.value for e in first])
    np.testing.assert_array_equal(
        first_values, np.array([e.value for e in replay])
    )
    assert all(estimate.cache_hit for estimate in replay)
    # A fresh epoch draws fresh views.
    assert not np.array_equal(
        first_values, np.array([e.value for e in rotated])
    )
    assert all(estimate.epoch == 1 for estimate in rotated)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_replay_uploads_no_new_bytes(workload, mode):
    graph, pairs = workload

    async def run():
        async with QueryServer(
            graph, Layer.UPPER, EPSILON, mode=mode, rng=21
        ) as server:
            await asyncio.gather(*(server.query_pair(p) for p in pairs))
            uploaded = server.comm.total_bytes()
            await asyncio.gather(*(server.query_pair(p) for p in pairs))
            return uploaded, server.comm.total_bytes()

    uploaded_once, uploaded_twice = asyncio.run(run())
    assert uploaded_once > 0
    assert uploaded_twice == uploaded_once


def test_materialize_overlap_charges_only_new_vertices(workload):
    """New pair (a, c) after (a, b): a's cached list is reused for free;
    only c is charged. Sketch mode recharges honestly instead."""
    graph, _ = workload

    async def run(mode):
        async with QueryServer(
            graph, Layer.UPPER, EPSILON, mode=mode, rng=31
        ) as server:
            await server.query(0, 1)
            await server.query(0, 2)
            accountant = server.accountant
            return {
                v: accountant.epoch_spent(Layer.UPPER, v) for v in (0, 1, 2)
            }

    spends = asyncio.run(run(ExecutionMode.MATERIALIZE))
    assert spends == {
        0: pytest.approx(EPSILON),
        1: pytest.approx(EPSILON),
        2: pytest.approx(EPSILON),
    }

    sketch_spends = asyncio.run(run(ExecutionMode.SKETCH))
    # Without a stored list there is nothing to reuse: the new pair's
    # fresh marginal draw is a fresh release of vertex 0.
    assert sketch_spends[0] == pytest.approx(2.0 * EPSILON)
    assert sketch_spends[1] == pytest.approx(EPSILON)
    assert sketch_spends[2] == pytest.approx(EPSILON)


def test_auto_epoch_rotation_by_ticks(workload):
    graph, pairs = workload

    async def run():
        async with QueryServer(
            graph, Layer.UPPER, EPSILON,
            mode=ExecutionMode.MATERIALIZE, epoch_ticks=1, rng=17,
        ) as server:
            first = await server.query_pair(pairs[0])
            second = await server.query_pair(pairs[0])
            return server, first, second

    server, first, second = asyncio.run(run())
    assert first.epoch == 0
    assert second.epoch == 1
    assert not second.cache_hit  # the rotation dropped the views
    assert server.accountant.max_lifetime_spent() == pytest.approx(2.0 * EPSILON)


@pytest.mark.parametrize("cache_bytes", [None, 10**7], ids=["unbounded", "bounded"])
@pytest.mark.parametrize(
    "views",
    [
        {"mode": ExecutionMode.MATERIALIZE},
        {"mode": ExecutionMode.SKETCH_VIEW, "sketch_bits": 512},
    ],
    ids=["materialize", "sketch-view"],
)
def test_warm_predraw_keeps_clean_views_after_incremental_rotation(
    workload, views, cache_bytes
):
    """An incremental rotation keeps clean views resident and charge-free;
    the warm pre-draw must neither redraw them (on a plain cache that is
    a fresh, uncharged release) nor count them as warmed."""
    graph, _ = workload
    hot = [0, 1, 2, 3]
    outside = 40
    lower = next(v for v in range(60) if not graph.has_edge(outside, v))

    async def run():
        async with QueryServer(
            graph, Layer.UPPER, EPSILON, warm_vertices=len(hot),
            cache_bytes=cache_bytes, rng=17, **views,
        ) as server:
            for i, a in enumerate(hot):
                for b in hot[i + 1 :]:
                    await server.query(a, b)
            before = {v: server.cache.view(v).copy() for v in hot}
            spent = {
                v: server.accountant.lifetime_spent(Layer.UPPER, v) for v in hot
            }
            server.mutate(inserts=[(outside, lower)])
            server.rotate_epoch()
            return server, before, spent

    server, before, spent = asyncio.run(run())
    assert server.cache.last_rotation["incremental"]
    assert sorted(server.cache.hottest_last_epoch(len(hot))) == hot
    for v in hot:
        np.testing.assert_array_equal(server.cache.view(v), before[v])
        assert server.accountant.lifetime_spent(Layer.UPPER, v) == spent[v]
    assert server.stats.warmed_vertices == 0
    assert server.cache.stats.warm_draws == 0
