"""Workload definitions: which cold `qgue` jobs a run makes, chosen by seed.

A job is the argument list of one `python -m qgue.cli` process.  Each moment
workload has one pool per cost class; a seed draws one query from every pool
and fixes the order of the jobs.  Members of a pool do the same expensive
computation and differ in how the answer is rendered (text, JSON, evaluated
at a rational q), or differ in a parameter that does not change the cost of
a cheap class, so that runs with different seeds cost the same and their
spread measures the machine, not the draw.  Seed 0 takes the first member of
every pool, in pool order.  Every oracle query stays inside the oracle
guardrail of at most 5 variables and total degree 40.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Job = Tuple[str, ...]

SUITES = (
    "duality",
    "orthogonality",
    "theorem1",
    "theorem2",
    "theorem3",
    "theorem4",
    "sigma",
    "theorem5",
    "qhz",
    "truncation",
)


def _q(text: str) -> Job:
    return tuple(text.split())


POOLS: Dict[str, List[List[Job]]] = {
    # Large degree in q: Bareiss det and gaussian_op over Q(q) with numerators
    # of degree in the hundreds, so the Z[q] multiply and exact division
    # kernels dominate.
    "moment_kernel": [
        [
            _q("moment --power-sum 4 --n-vars 20"),
            _q("moment --power-sum 4 --n-vars 20 --format json"),
            _q("moment --power-sum 4 --n-vars 20 --at-q 1/2"),
        ],
        [
            _q("moment --hermite-sq 4,20"),
            _q("moment --hermite-sq 4,20 --format json"),
            _q("moment --hermite-sq 4,20 --at-q 2"),
        ],
        [
            _q("moment --power-sum 6 --n-vars 12"),
            _q("moment --power-sum 6 --n-vars 12 --format json"),
            _q("moment --power-sum 6 --n-vars 12 --at-q 3"),
        ],
        [
            _q("moment --schur 6,4,2 --n-vars 12"),
            _q("moment --schur 6,4,2 --n-vars 12 --format json"),
            _q("moment --schur 6,4,2 --n-vars 12 --at-q 1/3"),
        ],
        [
            _q("moment --schur 4,2 --n-vars 10 --at-q 1/2"),
            _q("moment --schur 3,3 --n-vars 10 --at-q 1/2"),
            _q("moment --schur 5,1 --n-vars 10 --at-q 1/3"),
        ],
    ],
    # Small degree, many objects: the monomial oracle issues about 1.8 million
    # Scalar operations on short polynomials, so per-object overhead dominates
    # and a large-degree kernel should leave this workload flat.
    "moment_oracle": [
        [
            _q("moment --schur 4,2,2 --n-vars 5 --method oracle"),
            _q("moment --schur 4,2,2 --n-vars 5 --method oracle --format json"),
            _q("moment --schur 4,2,2 --n-vars 5 --method oracle --at-q 1/2"),
        ],
        [
            _q("moment --schur 6,4,2 --n-vars 4 --method oracle"),
            _q("moment --schur 6,4,2 --n-vars 4 --method oracle --format json"),
            _q("moment --schur 6,5,1 --n-vars 4 --method oracle"),
        ],
        [
            _q("moment --power-sum 10 --n-vars 5 --method oracle"),
            _q("moment --power-sum 8 --n-vars 5 --method oracle"),
            _q("moment --power-sum 12 --n-vars 5 --method oracle"),
        ],
        [
            _q("moment --schur 3,3,1 --n-vars 4 --method oracle"),
            _q("moment --schur 3,2,2 --n-vars 4 --method oracle"),
            _q("moment --schur 4,2,1 --n-vars 4 --method oracle"),
        ],
        [
            _q("table --harer-zagier --max-m 6"),
            _q("table --harer-zagier --max-m 6 --format json"),
            _q("table --harer-zagier --max-m 6 --format latex"),
        ],
    ],
}

WORKLOADS = ("verify_all", "moment_kernel", "moment_oracle")

# a cheap job run once before timing and discarded
WARMUP: Job = _q("moment --power-sum 2 --n-vars 2")


def verify_job(seed: int) -> Job:
    """`verify --suite all` for seed 0, else every suite named in a seeded order."""
    if seed == 0:
        return _q("verify --suite all --format json")
    order = list(SUITES)
    random.Random(seed).shuffle(order)
    flags = [w for name in order for w in ("--suite", name)]
    return ("verify", *flags, "--format", "json")


def jobs_for(workload: str, seed: int) -> List[Job]:
    """The jobs of one pass of `workload`, in the order they run."""
    if workload == "verify_all":
        return [verify_job(seed)]
    pools = POOLS[workload]
    if seed == 0:
        return [pool[0] for pool in pools]
    rng = random.Random(seed)
    jobs = [rng.choice(pool) for pool in pools]
    rng.shuffle(jobs)
    return jobs


def pool_queries() -> List[Job]:
    """Every moment query any seed can draw."""
    out: List[Job] = []
    for pools in POOLS.values():
        for pool in pools:
            out.extend(pool)
    return out
