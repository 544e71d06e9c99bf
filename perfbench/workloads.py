"""The four benchmark workloads.

Each workload is one closed loop driven by one caller in the benchmark
process, with at most two worker processes behind it.  ``start`` builds
the inputs from the seed and starts whatever the workload keeps running
(pool, server); ``step`` runs one unit of work as one or more timed ops
through the runner's ``op``/``check`` hooks; ``close`` releases
everything ``start`` acquired.

Every op is checked against union-find truth computed by
``repro.graph.components.connected_components`` on the exact input the
op saw, never against recorded labels or a recorded random stream.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import mpc_connected_components
from repro.graph.components import components_agree, connected_components
from repro.graph.generators import planted_expander_components
from repro.graph.graph import Graph
from repro.mpc.process_backend import ProcessBackend
from repro.mpc.rpc import RpcBackend
from repro.service import ServiceClient, ServiceServer
from repro.streaming import StreamingConnectivity
from repro.streaming.streams import StreamWorkload

GAP_BOUND = 0.2


class Workload:
    """Shared shape: seed handling, the backend read for counters."""

    name = ""
    why = ""
    generator = ""
    #: The execution backend whose ``stats()`` the traced run reads
    #: (``None`` where the workload runs no MPC backend it owns).
    backend = None

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._draws = 0

    def rng(self) -> np.random.Generator:
        """A fresh generator, a pure function of (seed, draw index)."""
        self._draws += 1
        return np.random.default_rng([self.seed, self._draws])

    def start(self) -> None:
        raise NotImplementedError

    def step(self, run) -> None:
        raise NotImplementedError

    def counters(self) -> dict:
        """Run-total layer counters the workload itself holds."""
        return {}

    def close(self) -> None:
        pass


class PaperExpanders(Workload):
    name = "paper_expanders"
    why = (
        "Theorem 4 pipeline on local: the random-walk stage dominates and no "
        "backend runs, so walk work shows here and nowhere else"
    )
    sizes = [2048, 2048]
    generator = "planted_expander_components([2048, 2048], 8, rng=seed)"
    config = PipelineConfig(max_walk_length=64)

    def start(self) -> None:
        self.graph, _ = planted_expander_components(self.sizes, 8, rng=self.seed)
        self.truth = connected_components(self.graph)

    def step(self, run) -> None:
        with run.op("label", work=self.graph.m):
            result = mpc_connected_components(
                self.graph, GAP_BOUND, config=self.config, rng=self.rng(),
                engine="paper", backend="local",
            )
        run.check(components_agree(result.labels, self.truth))
        run.count("mpc.rounds", result.rounds)


class PortfolioProcess(Workload):
    name = "portfolio_process"
    why = (
        "portfolio picks exponentiation on a 2-worker process pool: no walks, "
        "all work in plans over the shm arena"
    )
    generator = "planted_expander_components([10000] * 4, 8, rng=seed)"

    def start(self) -> None:
        self.graph, _ = planted_expander_components([10000] * 4, 8, rng=self.seed)
        self.truth = connected_components(self.graph)
        self.backend = ProcessBackend(workers=2)

    def step(self, run) -> None:
        with run.op("label", work=self.graph.m):
            result = mpc_connected_components(
                self.graph, GAP_BOUND, rng=self.rng(),
                engine="portfolio", backend=self.backend,
            )
        run.check(components_agree(result.labels, self.truth))
        run.count("mpc.rounds", result.rounds)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


class StreamChurn(Workload):
    name = "stream_churn"
    why = (
        "monolithic AGM sketch on local under churn: sketch writes beside "
        "decodes, no MPC backend"
    )
    batches = 8
    generator = (
        'StreamWorkload("permutation_regular", 1024, "churn", batches=8)'
        ".build(seed)"
    )

    def start(self) -> None:
        self.stream = StreamWorkload(
            "permutation_regular", 1024, "churn", batches=self.batches
        ).build(self.seed)
        self.n = self.stream.n
        self.decode_failures = 0
        self.full_recomputes = 0
        self.structure = None
        self._restart()

    def _restart(self) -> None:
        """A fresh structure replays the stream from its first batch."""
        if self.structure is not None:
            self._retire()
        self.structure = StreamingConnectivity(self.n, rng=self.rng())
        self.position = 0
        self.multiplicity = np.zeros(self.n * self.n, dtype=np.int64)

    def _retire(self) -> None:
        stats = self.structure.stats
        self.decode_failures += stats.decode_failures
        self.full_recomputes += stats.full_recomputes
        self.structure.close()

    def _truth(self) -> np.ndarray:
        """Union-find labels of the live edge multiset, replayed here."""
        ids = np.flatnonzero(self.multiplicity)
        edges = np.column_stack([ids // self.n, ids % self.n])
        return connected_components(Graph(self.n, edges))

    def step(self, run) -> None:
        if self.position == len(self.stream.batches):
            self._restart()
        batch = self.stream.batches[self.position]
        self.position += 1
        stats = self.structure.stats
        failures, recomputes = stats.decode_failures, stats.full_recomputes
        with run.op("apply+query", work=batch.size):
            self.structure.apply(batch)
            labels = self.structure.query()
        lo = np.minimum(batch.edges[:, 0], batch.edges[:, 1])
        hi = np.maximum(batch.edges[:, 0], batch.edges[:, 1])
        np.add.at(self.multiplicity, lo * self.n + hi, batch.weights)
        run.check(components_agree(labels, self._truth()))
        run.count("streaming.decode_failures", stats.decode_failures - failures)
        run.count("streaming.full_recomputes", stats.full_recomputes - recomputes)

    def counters(self) -> dict:
        stats = self.structure.stats
        return {
            "streaming.decode_failures": self.decode_failures + stats.decode_failures,
            "streaming.full_recomputes": self.full_recomputes + stats.full_recomputes,
        }

    def close(self) -> None:
        if self.structure is not None:
            self._retire()
            self.structure = None


class ServiceRpc(Workload):
    name = "service_rpc"
    why = (
        "liu_tarjan service on a 2-worker RPC fleet: per graph one compute-heavy "
        "cache miss over the wire, then 50 wire-bound cache hits"
    )
    generator = "planted_expander_components([5000] * 4, 8, rng=[seed, graph_index])"
    hits_per_graph = 50
    pairs_per_hit = 64
    #: The server keeps every graph it was sent; restarting it (the RPC
    #: fleet stays up) bounds the store, so peak RSS does not grow with
    #: the number of graphs a run happens to get through.
    graphs_per_server = 16

    def start(self) -> None:
        self.backend = RpcBackend(workers=2)
        self.server = None
        self.client = None
        self.graphs = 0
        self.cache = {"cache_hits": 0, "cache_misses": 0}
        self._serve()

    def _serve(self) -> None:
        self._stop_server()
        self.server = ServiceServer(
            engine="liu_tarjan", backend=self.backend, spectral_gap_bound=GAP_BOUND
        ).start()
        self.client = ServiceClient(self.server.address)

    def _stop_server(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            stats = self.server.stats()
            for key in self.cache:
                self.cache[key] += stats[key]
            self.server.close()
            self.server = None

    def step(self, run) -> None:
        if self.graphs and self.graphs % self.graphs_per_server == 0:
            self._serve()
        self.graphs += 1
        rng = self.rng()
        graph, _ = planted_expander_components([5000] * 4, 8, rng=rng)
        truth = connected_components(graph)
        with run.op("put", work=1):
            digest = self.client.put_graph(graph.n, graph.edges)
        with run.op("miss", work=1):
            labels = self.client.components(digest)
        run.check(components_agree(labels, truth))
        for _ in range(self.hits_per_graph):
            pairs = rng.integers(0, graph.n, size=(self.pairs_per_hit, 2))
            with run.op("hit", work=1):
                answer = self.client.connected(digest, pairs)
            run.check(np.array_equal(answer, truth[pairs[:, 0]] == truth[pairs[:, 1]]))

    def counters(self) -> dict:
        hits, misses = self.cache["cache_hits"], self.cache["cache_misses"]
        if self.server is not None:
            stats = self.server.stats()
            hits += stats["cache_hits"]
            misses += stats["cache_misses"]
        return {"service.hit_rate": hits / (hits + misses) if hits + misses else 0.0}

    def close(self) -> None:
        self._stop_server()
        if self.backend is not None:
            self.backend.close()


WORKLOADS = {
    cls.name: cls for cls in (PaperExpanders, PortfolioProcess, StreamChurn, ServiceRpc)
}
