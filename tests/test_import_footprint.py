"""``import repro`` and serving stay free of SciPy.

SciPy backs only the optional ``sparse`` pairwise backend, which imports
it on first use; importing it at module level added ~14 MB of resident
memory to every process. A fresh interpreter that imports the package and
serves one tick in each execution mode must end with no ``scipy`` module
loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent(
    """
    import asyncio, sys
    import repro, repro.serving.cache
    from repro.graph.bipartite import Layer
    from repro.graph.generators import random_bipartite
    from repro.protocol.session import ExecutionMode
    from repro.serving.server import QueryServer

    graph = random_bipartite(40, 60, 300, rng=2)

    async def tick(**options):
        async with QueryServer(graph, Layer.UPPER, 2.0, rng=3, **options) as s:
            await asyncio.gather(s.query(0, 1), s.query(2, 3), s.query(0, 3))

    asyncio.run(tick(mode=ExecutionMode.MATERIALIZE))
    asyncio.run(tick(mode=ExecutionMode.SKETCH))
    asyncio.run(tick(sketch_bits=256))
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """
)


def test_import_and_serving_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]", out.stdout
