"""Query vertex ids must be integers: no truncation into another vertex.

``QueryPair`` used to test distinctness before converting with ``int()``,
so ``QueryPair(UPPER, 1.5, 1)`` became the self-pair ``(1, 1)`` and a
served ``query(1.5, 1)`` answered (and charged for) it; ``query("3", 1)``
was served as ``(3, 1)``. Ids now pass through ``operator.index`` first:
Python and NumPy integers are accepted, anything else raises
:class:`~repro.errors.GraphError` before the server charges anything.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import QueryPair
from repro.serving.server import QueryServer

NOT_INTEGERS = [1.5, "3", np.float64(2.0), 2.0, None]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_query_pair_rejects_non_integers(bad):
    with pytest.raises(GraphError, match="integers"):
        QueryPair(Layer.UPPER, bad, 1)
    with pytest.raises(GraphError, match="integers"):
        QueryPair(Layer.UPPER, 4, bad)


@pytest.mark.parametrize("kind", [int, np.int32, np.int64, np.uint16])
def test_query_pair_accepts_integers(kind):
    pair = QueryPair(Layer.UPPER, kind(3), kind(7))
    assert pair == (Layer.UPPER, 3, 7)
    assert type(pair.a) is int and type(pair.b) is int


def test_query_pair_still_refuses_self_pairs():
    with pytest.raises(GraphError, match="distinct"):
        QueryPair(Layer.UPPER, np.int64(2), 2)


@pytest.mark.parametrize("bad", [1.5, "3", np.float64(2.0)], ids=repr)
def test_server_refuses_non_integer_queries_uncharged(bad):
    graph = random_bipartite(30, 40, 200, rng=1)

    async def run():
        async with QueryServer(graph, Layer.UPPER, 2.0, rng=5) as server:
            with pytest.raises(GraphError):
                await server.query(bad, 1)
            assert server.accountant.max_lifetime_spent() == 0.0
            assert server.stats.queries_served == 0
            # Integer ids of any width are still served.
            served = await server.query(np.int32(3), np.int64(1))
            assert served.pair == (Layer.UPPER, 3, 1)
            return server.accountant.max_lifetime_spent()

    assert asyncio.run(run()) > 0.0
