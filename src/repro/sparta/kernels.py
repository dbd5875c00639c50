"""Graph-processing workloads for SPARTA (paper Sec. III).

"SPARTA has primarily been tested on graph processing kernels, to
demonstrate its ability to generate efficient accelerators for irregular
applications."  Task generators for BFS, SpMV and PageRank over synthetic
graphs, plus a regular streaming kernel as the cache-friendly contrast.

Address map (word addresses, beyond the lane scratchpad window):
node *i*'s value lives at ``VALUE_BASE + i``, its adjacency list at
``ADJ_BASE + offset``.  Graph traversals therefore issue the
pointer-chasing irregular accesses that defeat static HLS pipelining and
motivate SPARTA's context switching.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.rng import SeedLike, make_rng
from repro.sparta.openmp import ParallelForRegion, Task, compute, load, store

if TYPE_CHECKING:
    import networkx as nx

#: Word-address bases (kept clear of the default 1024-word scratchpad).
VALUE_BASE = 1 << 16
ADJ_BASE = 1 << 20
MATRIX_BASE = 1 << 22


def random_graph(
    num_nodes: int = 256, avg_degree: float = 8.0, seed: SeedLike = 0
) -> nx.Graph:
    """Erdos-Renyi graph with the requested average degree.

    ``networkx`` is imported here, not at module import: it is the
    slowest import of the SPARTA stack, and only graph building uses it.
    """
    import networkx as nx

    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    if avg_degree <= 0:
        raise ValueError("average degree must be positive")
    rng = make_rng(seed)
    p = min(1.0, avg_degree / (num_nodes - 1))
    return nx.fast_gnp_random_graph(
        num_nodes, p, seed=int(rng.integers(2**31))
    )


def _adjacency_offsets(graph: nx.Graph) -> List[int]:
    offsets = []
    cursor = 0
    for node in sorted(graph.nodes):
        offsets.append(cursor)
        cursor += max(graph.degree[node], 1)
    return offsets


def bfs_tasks(graph: nx.Graph, seed: SeedLike = 0) -> ParallelForRegion:
    """Level-synchronous BFS expressed as one task per frontier node:
    load the adjacency list, load each neighbour's visited flag, compute
    the update, store the new frontier bit."""
    offsets = _adjacency_offsets(graph)
    tasks = []
    for node in sorted(graph.nodes):
        steps = [load(ADJ_BASE + offsets[node])]
        for neighbor in graph.neighbors(node):
            steps.append(load(VALUE_BASE + neighbor))
            steps.append(compute(1))
        steps.append(store(VALUE_BASE + node))
        tasks.append(Task(task_id=node, steps=steps))
    return ParallelForRegion(name="bfs", tasks=tasks)


def spmv_tasks(
    num_rows: int = 256,
    avg_nnz: float = 8.0,
    seed: SeedLike = 0,
) -> ParallelForRegion:
    """Sparse matrix-vector product: per row, gather column indices and
    x-vector entries at random positions, MAC each pair, store y[row]."""
    if num_rows < 1:
        raise ValueError("need at least one row")
    if avg_nnz <= 0:
        raise ValueError("avg_nnz must be positive")
    rng = make_rng(seed)
    tasks = []
    for row in range(num_rows):
        nnz = max(1, int(rng.poisson(avg_nnz)))
        steps = []
        for k in range(nnz):
            col = int(rng.integers(num_rows))
            steps.append(load(MATRIX_BASE + row * 64 + k))  # A value
            steps.append(load(VALUE_BASE + col))  # x[col] gather
            steps.append(compute(1))  # MAC
        steps.append(store(VALUE_BASE + num_rows + row))
        tasks.append(Task(task_id=row, steps=steps))
    return ParallelForRegion(name="spmv", tasks=tasks)


def pagerank_tasks(graph: nx.Graph, seed: SeedLike = 0) -> ParallelForRegion:
    """One PageRank iteration: per node, gather each in-neighbour's rank
    and degree, accumulate, apply the damping compute, store the rank."""
    offsets = _adjacency_offsets(graph)
    tasks = []
    for node in sorted(graph.nodes):
        steps = [load(ADJ_BASE + offsets[node])]
        for neighbor in graph.neighbors(node):
            steps.append(load(VALUE_BASE + neighbor))  # rank
            steps.append(load(VALUE_BASE + (1 << 14) + neighbor))  # degree
            steps.append(compute(2))  # divide-accumulate
        steps.append(compute(3))  # damping
        steps.append(store(VALUE_BASE + node))
        tasks.append(Task(task_id=node, steps=steps))
    return ParallelForRegion(name="pagerank", tasks=tasks)


def streaming_tasks(
    num_tasks: int = 256, elements_per_task: int = 16
) -> ParallelForRegion:
    """Regular unit-stride streaming kernel (AXPY-like): sequential
    addresses, high cache-line reuse -- the contrast workload where the
    memory-side cache, not context switching, does the heavy lifting."""
    if num_tasks < 1 or elements_per_task < 1:
        raise ValueError("sizes must be >= 1")
    tasks = []
    for t in range(num_tasks):
        base = VALUE_BASE + t * elements_per_task
        steps = []
        for e in range(elements_per_task):
            steps.append(load(base + e))
            steps.append(compute(1))
        steps.append(store(base))
        tasks.append(Task(task_id=t, steps=steps))
    return ParallelForRegion(name="streaming", tasks=tasks)
