"""Seeded job lists of the four benchmark workloads.

A workload's sizes and densities are fixed; the seed (with the pass index)
only picks the graphs, their relabellings and the job order, so different
seeds do comparable work.  `{graph}` in a job's arguments stands for the
file run.py writes the job's graph to.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("braid-ledger", "cone-graphs", "equivariant", "cache-replay")


@dataclass
class Job:
    id: str
    argv: list
    kind: str  # output family checked: kl, genfun, e1, verify, eqkl, eqkl-csv
    graph: tuple | None = None  # (n, sorted edge list), written before the run
    rank: int | None = None  # matroid rank of the KL query, for row checks
    first: str | None = None  # cache-replay: id of the job this one repeats

    @property
    def warm(self) -> bool:
        return self.first is not None

    def key(self) -> str:
        """Content key of the job: its arguments with the graph inlined."""
        text = " ".join(self.argv)
        if self.graph is not None:
            n, edges = self.graph
            text = text.replace("{graph}", f"{n}:{edges}")
        return text


def _connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def random_connected(rng: random.Random, n: int, m: int) -> tuple:
    """A uniformly random connected labelled graph with n vertices, m edges."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = rng.sample(pairs, m)
        if _connected(n, edges):
            return n, sorted(edges)


def relabel(rng: random.Random, graph: tuple) -> tuple:
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def _kl_braid(n: int) -> Job:
    return Job("", ["kl", "--n", str(n)], "kl", rank=n - 1)


def _kl_cone(graph: tuple, cone: int) -> Job:
    argv = ["kl", "--graph", "{graph}", "--cone", str(cone)]
    return Job("", argv, "kl", graph=graph, rank=graph[0] + cone - 1)


def _braid_ledger(rng: random.Random) -> list:
    jobs = [
        _kl_braid(32),
        Job("", "genfun --i 2 --max-n 30 --fit --asymptotics".split(), "genfun"),
        Job("", "e1 --i 3 --n 30".split(), "e1"),
        Job("", "verify --suite paper-i2".split(), "verify"),
        Job("", "verify --suite fs".split(), "verify"),
    ]
    rng.shuffle(jobs)
    return jobs


# (vertices of the base graph, its edges, cone vertices): a sparse and a
# dense base, each coned to 8 vertices.
CONE_SHAPES = ((4, 3, 4), (5, 8, 3))
# Base graph of the relative E1 ledger `e1 --i 2 --n 4 --graph`.
E1_GRAPH_SHAPE = (4, 4)


def _cone_graphs(rng: random.Random) -> list:
    jobs = [_kl_cone(random_connected(rng, n, m), k) for n, m, k in CONE_SHAPES]
    graph = random_connected(rng, *E1_GRAPH_SHAPE)
    argv = ["e1", "--i", "2", "--n", "4", "--graph", "{graph}"]
    jobs.append(Job("", argv, "e1", graph=graph))
    rng.shuffle(jobs)
    return jobs


def _equivariant(rng: random.Random) -> list:
    jobs = [
        Job("", "eqkl --n 9".split(), "eqkl"),
        Job("", "eqkl --n 8 --format csv".split(), "eqkl-csv"),
        Job("", "verify --suite properties".split(), "verify"),
    ]
    rng.shuffle(jobs)
    return jobs


# Distinct queries of one cache-replay pass: braid rows up to 30 and cones
# on 7 or 8 vertices.  Each is followed in the stream by a repeat of a
# query already seen, so half of the 24 jobs are repeats.
REPLAY_BRAID_EXTRA = 2  # braid rows picked from 20..29, besides row 30
REPLAY_CONE_SHAPES = (
    (4, 3, 3),
    (4, 4, 3),
    (4, 5, 3),
    (5, 4, 2),
    (5, 6, 2),
    (5, 8, 2),
    (5, 9, 2),
    (5, 5, 2),
    (5, 6, 3),
)


def _cache_replay(rng: random.Random) -> list:
    firsts = [_kl_braid(n) for n in [30, *rng.sample(range(20, 30), REPLAY_BRAID_EXTRA)]]
    firsts += [_kl_cone(random_connected(rng, n, m), k) for n, m, k in REPLAY_CONE_SHAPES]
    rng.shuffle(firsts)
    # row 30 computes every smaller braid row, so it comes first among the
    # braid queries: the braid work and peak memory then do not hang on
    # the order the seed picked
    braid = [k for k, job in enumerate(firsts) if job.graph is None]
    top = max(braid, key=lambda k: firsts[k].rank)
    firsts[braid[0]], firsts[top] = firsts[top], firsts[braid[0]]
    jobs: list = []
    for k, job in enumerate(firsts):
        job.id = f"j{len(jobs)}"
        jobs.append(job)
        orig = rng.choice(firsts[: k + 1])
        if orig.graph is None:
            repeat = _kl_braid(orig.rank + 1)
        else:
            repeat = _kl_cone(relabel(rng, orig.graph), int(orig.argv[-1]))
        repeat.first = orig.id
        repeat.id = f"j{len(jobs)}"
        jobs.append(repeat)
    return jobs


_BUILDERS = {
    "braid-ledger": _braid_ledger,
    "cone-graphs": _cone_graphs,
    "equivariant": _equivariant,
    "cache-replay": _cache_replay,
}


def jobs_for(workload: str, seed: int, pass_index: int) -> list:
    """The jobs of one pass, in run order, with ids `j0`, `j1`, ..."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    jobs = _BUILDERS[workload](rng)
    for k, job in enumerate(jobs):
        job.id = job.id or f"j{k}"
    return jobs
