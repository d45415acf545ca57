"""Span arithmetic and the per-layer metrics of a traced pass.

A span is (name id, parent index, start, end); spans of one job come from one
tracer file and share its job id.  Self time is a span's duration minus the
part of its interval that its direct children cover.  Inclusive time of a
group (a layer, or one function) is the summed duration of its spans that
have no ancestor in the same group, so nested calls are not counted twice.
"""

from __future__ import annotations

import json
import statistics
from array import array
from typing import Dict, List, Sequence

from tracer import LAYERS
# tracer statistics that are maxima over jobs; the others are sums
MAX_STATS = {
    "exactq.poly_max_degree",
    "exactq.coeff_max_bits",
    "qxpoly.gaussian_op_max_degree",
    "qxpoly.hermite_max_n",
    "symschur.det_max_order",
}


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Duration minus child coverage for every span.

    Children may come in any order and may overlap each other or stick out
    of their parent; coverage is the length of the union of the children's
    intervals clipped to the parent's.
    """
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    cover = [0.0] * n
    reach = {}  # parent -> end of the union of its children seen so far
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            cover[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - cover[i] for i in range(n)]


def inclusive_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    groups: Sequence[int],
    n_groups: int,
) -> List[float]:
    """Per group, the summed duration of its outermost spans.

    groups[i] is the group of span i, or -1 for none.  A parent must start
    no later than its children and end no earlier, as in any recorded trace.
    """
    n = len(starts)
    order = range(n)
    if any(parents[i] >= i for i in range(n)):
        order = sorted(order, key=lambda i: (starts[i], -ends[i]))
    inside = [0] * n  # bit g set: some ancestor belongs to group g
    total = [0.0] * n_groups
    for i in order:
        p = parents[i]
        mask = 0
        if p >= 0:
            mask = inside[p] | (1 << groups[p] if groups[p] >= 0 else 0)
        inside[i] = mask
        g = groups[i]
        if g >= 0 and not mask >> g & 1:
            total[g] += ends[i] - starts[i]
    return total


def load_job(path: str):
    """Read one tracer output: (meta, names, parents, starts, ends)."""
    with open(path + ".json") as fh:
        meta = json.load(fh)
    n = meta["n_spans"]
    names, parents, starts, ends = array("i"), array("i"), array("d"), array("d")
    with open(path + ".spans", "rb") as fh:
        for arr in (names, parents, starts, ends):
            arr.fromfile(fh, n)
    return meta, names, parents, starts, ends


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(paths: List[str], speeds: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, summed (or maxed) over its jobs.

    speeds[k] converts job k's wall seconds into reference seconds (see
    run.py); every time is reported in reference seconds.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    incl_s = dict.fromkeys(LAYERS, 0.0)
    hermite_incl = 0.0
    counts: Dict[str, int] = {}
    stats: Dict[str, float] = {}
    caches = {layer: [0, 0] for layer in LAYERS}
    import_s = []
    for path, speed in zip(paths, speeds):
        meta, names, parents, starts, ends = load_job(path)
        layer_ids = [LAYERS.index(layer) for layer in meta["layers"]]
        span_layer = [layer_ids[nid] for nid in names]
        for i, t in enumerate(self_times(starts, ends, parents)):
            self_s[LAYERS[span_layer[i]]] += t * speed
        incl = inclusive_times(starts, ends, parents, span_layer, len(LAYERS))
        for layer, t in zip(LAYERS, incl):
            incl_s[layer] += t * speed
        herm = meta["names"].index("qxpoly.hermite")
        in_hermite = [0 if nid == herm else -1 for nid in names]
        (t,) = inclusive_times(starts, ends, parents, in_hermite, 1)
        hermite_incl += t * speed
        for name, c in meta["counts"].items():
            counts[name] = counts.get(name, 0) + c
        for key, v in meta["stats"].items():
            stats[key] = max(stats.get(key, 0), v) if key in MAX_STATS else stats.get(key, 0) + v
        for layer, (hits, misses) in meta["caches"].items():
            caches[layer][0] += hits
            caches[layer][1] += misses
        import_s.append(meta["import_s"] * speed)

    def calls(*names: str) -> int:
        return sum(counts.get(n, 0) for n in names)

    def hit_ratio(layer: str) -> float:
        hits, misses = caches[layer]
        return _ratio(hits, hits + misses)

    exact_div_calls = calls("exactq.QPolynomial.exact_div")
    return {
        "exactq.self_s": self_s["exactq"],
        "exactq.poly_mul_calls": calls("exactq.QPolynomial.__mul__"),
        "exactq.poly_mul_coeff_products": stats["exactq.poly_mul_coeff_products"],
        "exactq.poly_max_degree": stats["exactq.poly_max_degree"],
        "exactq.coeff_max_bits": stats["exactq.coeff_max_bits"],
        "exactq.exact_div_calls": exact_div_calls,
        "exactq.exact_div_hit_ratio": _ratio(stats["exactq.exact_div_hits"], exact_div_calls),
        "exactq.gcd_calls": calls("exactq._poly_gcd"),
        "exactq.gcd_fallback_calls": calls("exactq._subresultant_gcd"),
        "exactq.scalar_ops": stats["exactq.scalar_ops"],
        "exactq.cache_hit_ratio": hit_ratio("exactq"),
        "qxpoly.self_s": self_s["qxpoly"],
        "qxpoly.incl_s": incl_s["qxpoly"],
        "qxpoly.gaussian_op_calls": calls("qxpoly.gaussian_op"),
        "qxpoly.gaussian_op_max_degree": stats["qxpoly.gaussian_op_max_degree"],
        "qxpoly.hermite_incl_s": hermite_incl,
        "qxpoly.hermite_max_n": stats["qxpoly.hermite_max_n"],
        "symschur.self_s": self_s["symschur"],
        "symschur.incl_s": incl_s["symschur"],
        "symschur.det_calls": calls("symschur.det"),
        "symschur.det_max_order": stats["symschur.det_max_order"],
        "symschur.monomial_term_products": stats["symschur.monomial_term_products"],
        "symschur.oracle_calls": calls("symschur.apply_M2"),
        "symschur.cache_hit_ratio": hit_ratio("symschur"),
        "moments.self_s": self_s["moments"],
        "moments.incl_s": incl_s["moments"],
        "moments.integrate_calls": calls(
            "moments.integrate_schur", "moments.integrate_symmetric", "moments.level_density_moment"
        ),
        "moments.cache_hit_ratio": hit_ratio("moments"),
        "verify.self_s": self_s["verify"],
        "verify.incl_s": incl_s["verify"],
        "verify.points": stats["verify.points"],
        "cli.import_s": statistics.median(import_s),
        "cli.self_s": self_s["cli"],
    }
