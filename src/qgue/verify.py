"""The errata harness: compare closed forms against definitional oracles.

Every suite walks a parameter grid, evaluates a closed form and an oracle
for each point, and classifies the point as exactly equal or discrepant.
Discrepant points carry the symbolic ratio closed/oracle whenever the
oracle is nonzero, and when that ratio is plus or minus a single power of
q the (sign, exponent) pair is extracted, which localizes a defect to a
sign or exponent slip rather than a structural error.

Every suite is a generator of point results in grid order, listed once in
the registry `_SUITES` with its bound defaults and its report grid label.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .exactq import ONE, ZERO, Scalar, q_binomial, q_factorial, series_coefficient
from .qxpoly import XPoly, functional_L, hermite, truncated_in_shadow_basis
from .symschur import (
    SizeError,
    check_oracle_size,
    hook_partition,
    partitions,
    power_sum_vector,
    sigma_at_zero,
)
from .moments import (
    hermite_norm,
    hook_moment_closed_form,
    integrate_power_sum,
    integrate_schur,
    level_density_moment,
    p2m_closed_form,
    qhz_lhs,
    qhz_rhs,
    sigma_closed_form,
    theorem5_lhs,
    theorem5_rhs,
)

__all__ = [
    "SUITE_NAMES",
    "PointResult",
    "SuiteResult",
    "verify_suite",
    "report_to_json",
    "render_json",
    "summary_table",
    "has_discrepancies",
]

Params = Tuple[Tuple[str, object], ...]


class PointResult(NamedTuple):
    params: Params
    status: str  # "equal" | "discrepant"
    ratio: Optional[Scalar] = None
    sign: Optional[int] = None
    qpower: Optional[int] = None
    note: Optional[str] = None

    @property
    def is_equal(self) -> bool:
        return self.status == "equal"

    @property
    def is_monomial(self) -> bool:
        return self.sign is not None


class SuiteResult(NamedTuple):
    identity: str
    grid: Dict[str, int]
    points: List[PointResult]

    @property
    def discrepancies(self) -> List[PointResult]:
        return [p for p in self.points if not p.is_equal]

    def find(self, **params) -> Optional[PointResult]:
        want = set(params.items())
        for p in self.points:
            if want <= set(p.params):
                return p
        return None

    def summary(self) -> Dict[str, object]:
        disc = self.discrepancies
        out: Dict[str, object] = {
            "points": len(self.points),
            "equal": len(self.points) - len(disc),
            "discrepant": len(disc),
            "monomial_ratios": sum(1 for p in disc if p.is_monomial),
        }
        if self.identity == "theorem5":
            out["printed_normalization_matches"] = out["equal"]
            out["shifted_normalization_matches"] = sum(
                1 for p in self.points if p.note == "index-shifted normalization matches"
            )
        return out


def _classify(params: Params, closed: Scalar, oracle: Scalar, note: str = None) -> PointResult:
    if closed == oracle:
        return PointResult(params, "equal", note=note)
    if oracle.is_zero:
        return PointResult(
            params, "discrepant", note=(note or "oracle value is zero; no ratio")
        )
    ratio = closed / oracle
    mono = ratio.as_signed_q_power()
    if mono is None:
        return PointResult(params, "discrepant", ratio=ratio, note=note)
    return PointResult(params, "discrepant", ratio=ratio, sign=mono[0], qpower=mono[1], note=note)


# ---------------------------------------------------------------------------
# suites: each is a generator of point results in grid order
# ---------------------------------------------------------------------------


def _duality(max_n: int) -> Iterator[PointResult]:
    for squared in (False, True):
        # the sums are cleared by [d]!: for any values of e_j and E_k in Q(q),
        # e_j E_k [d]! = (e_j [j]!) (E_k [k]!) [d]! / ([j]! [k]!) = u_j v_k [d over j]
        # with k = d - j, so every term is a Gaussian binomial times the
        # library's own coefficients, each cleared once by its own [k]!
        ks = range(max_n + 1)
        u = [series_coefficient(k, "e", squared) * q_factorial(k, squared) for k in ks]
        v = [series_coefficient(k, "E", squared) * q_factorial(k, squared) for k in ks]
        for d in range(max_n + 1):
            total = ZERO
            for j in range(d + 1):
                k = d - j
                t = q_binomial(d, j, squared) * u[j] * v[k]
                # the sign goes on once, as a subtraction of the cleared term
                total = total - t if k % 2 else total + t
            expected = ONE if d == 0 else ZERO
            yield _classify((("d", d), ("base", "q^2" if squared else "q")), total, expected)


def _orthogonality(max_n: int) -> Iterator[PointResult]:
    for n in range(max_n + 1):
        for m in range(max_n + 1):
            params = (("n", n), ("m", m))
            oracle = functional_L(hermite(n) * hermite(m))
            closed = hermite_norm(n) if n == m else ZERO
            if closed.is_zero and not oracle.is_zero:
                yield PointResult(params, "discrepant", ratio=None, note="expected zero")
            else:
                yield _classify(params, closed, oracle)


def _theorem1(max_weight: int, max_vars: int) -> Iterator[PointResult]:
    for m in range(1, max_weight // 2 + 1):
        for n in range(1, max_vars + 1):
            closed = level_density_moment(XPoly.x_power(2 * m), n)
            oracle = integrate_power_sum(m, n, "fast")
            yield _classify((("m", m), ("N", n)), closed, oracle)


def _theorem2(max_vars: int, max_ell: int) -> Iterator[PointResult]:
    for n in range(1, max_vars + 1):
        for ell in range(1, max_ell + 1):
            coeffs = truncated_in_shadow_basis(n, ell, "direct")
            for i in range(n):
                value = coeffs.get(n - 1 - i, ZERO)
                closed = -value if (n - 1 - i) % 2 else value
                oracle = sigma_at_zero(hook_partition(ell + 1, i), n)
                yield _classify((("N", n), ("ell", ell), ("i", i)), closed, oracle)


def _theorem3_rows(rows: Iterable[Tuple[int, int]]) -> Iterator[PointResult]:
    """Fast against oracle Schur integrals, for each row (N, max weight)."""
    for n, max_weight in rows:
        for kappa in sorted(partitions(max_weight, n)):
            yield _classify(
                (("kappa", str(kappa)), ("N", n)),
                integrate_schur(kappa, n, "fast"),
                integrate_schur(kappa, n, "oracle"),
            )


def _theorem4(max_weight: int, max_vars: int) -> Iterator[PointResult]:
    for m in range(1, max_weight // 2 + 1):
        for n in range(1, max_vars + 1):
            # the hooks (ell + 1, 1^(2m - ell - 1)) of p_2m that fit, ell ascending
            for mu in reversed(power_sum_vector(m, n).entries):
                ell = mu.part(0) - 1
                closed = hook_moment_closed_form(ell, m, n)
                oracle = integrate_schur(mu, n, "oracle")
                yield _classify((("m", m), ("N", n), ("ell", ell)), closed, oracle)


def _sigma(max_weight: int, max_vars: int) -> Iterator[PointResult]:
    for m in range(1, max_weight // 2 + 1):
        for n in range(1, max_vars + 1):
            # oracle integrals of the hooks (2m - i, 1^i) of p_2m that fit, by i
            # the oracle pairs the legs i = 2m - 2t, 2m - 2t - 1, that is ell in {2t - 1, 2t},
            # while the printed sigma pairs ell in {2t, 2t + 1}
            hooks = {
                mu.length - 1: integrate_schur(mu, n, "oracle")
                for mu in power_sum_vector(m, n).entries
            }
            for t in range(m + 1):
                closed = sigma_closed_form(m, t, n)
                oracle = hooks.get(2 * m - 2 * t, ZERO) - hooks.get(2 * m - 2 * t - 1, ZERO)
                params = (("target", "sigma"), ("m", m), ("t", t), ("N", n))
                yield _classify(params, closed, oracle)
            params = (("target", "p2m"), ("m", m), ("N", n))
            yield _classify(params, p2m_closed_form(m, n), integrate_power_sum(m, n, "oracle"))


def _theorem5(max_weight: int, max_s: int) -> Iterator[PointResult]:
    for m in range(1, max_weight // 2 + 1):
        for s in range(max_s + 1):
            closed = theorem5_rhs(m, s)
            note = (
                "index-shifted normalization matches"
                if closed == qhz_lhs(m, s)
                else "index-shifted normalization differs"
            )
            yield _classify((("m", m), ("s", s)), closed, theorem5_lhs(m, s), note=note)


def _qhz(max_weight: int, max_s: int) -> Iterator[PointResult]:
    for m in range(1, max_weight // 2 + 1):
        for s in range(max_s + 1):
            yield _classify((("m", m), ("s", s)), qhz_rhs(m, s), qhz_lhs(m, s))


def _truncation(max_total: int) -> Iterator[PointResult]:
    for variant in ("closed", "printed"):
        for n in range(1, max_total):
            for ell in range(1, max_total + 1 - n):
                params = (("N", n), ("ell", ell), ("variant", variant))
                direct = truncated_in_shadow_basis(n, ell, "direct")
                other = truncated_in_shadow_basis(n, ell, variant)
                if direct == other:
                    yield PointResult(params, "equal")
                    continue
                # coefficient maps: report the ratio at the lowest disagreeing degree
                bad = sorted(
                    k
                    for k in set(direct) | set(other)
                    if direct.get(k, ZERO) != other.get(k, ZERO)
                )
                k = bad[0]
                yield _classify(
                    params,
                    other.get(k, ZERO),
                    direct.get(k, ZERO),
                    note=f"first mismatch at S_{k} (of {len(bad)} degrees)",
                )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


class _Suite(NamedTuple):
    """A suite's points and its report grid.

    `grid` maps each key of the report's grid label to the bound it reads
    (max_weight, max_vars or max_n) and that bound's default; `points` takes
    the label as keywords.  `preset`, when set, is the label and the points
    used instead when the caller gives none of the suite's bounds.  `caps`
    maps grid keys, or sizes named in `_SIZES`, to the largest value a
    request may give them.  `oracle`, when set, maps the label to the
    (variables, weight) of the suite's costliest monomial-oracle point.
    """

    points: Callable[..., Iterator[PointResult]]
    grid: Dict[str, Tuple[str, int]]
    preset: Optional[Tuple[Dict[str, int], Callable[[], Iterator[PointResult]]]] = None
    caps: Dict[str, int] = {}
    oracle: Optional[Callable[..., Tuple[int, int]]] = None


def _theorem3(max_weight: int, max_vars: int) -> Iterator[PointResult]:
    return _theorem3_rows((n, max_weight) for n in range(1, max_vars + 1))


_WEIGHT_VARS = {"max_weight": ("max_weight", 6), "max_vars": ("max_vars", 3)}
_WEIGHT_S = {"max_weight": ("max_weight", 6), "max_s": ("max_n", 3)}

# sizes a cap may bound besides the grid keys: the largest x-degree of
# x^(2m) H_s^2 over an (m, s) grid
_SIZES = {"2(m+s)": lambda max_weight, max_s: 2 * (max_weight // 2 + max_s)}


def _even_weight_oracle(max_weight: int, max_vars: int) -> Tuple[int, int]:
    """The oracle size of a grid whose integrands have even weight 2m <= max_weight."""
    return max_vars, 2 * (max_weight // 2)


# The caps were set where the slowest request inside them took 13-19 s in a
# cold process on a 2-vCPU machine, and one step past them 19-30 s.  The
# qhz line was re-timed on one machine after the one-variable moments became
# path counts, the theorem5 line after p_2m and Theorem 5 became sums of the
# printed sigma term, the duality line after one q-ratio step built the
# q-factorials and Gaussian binomials, and with six runs over two host
# loads each, the theorem3, theorem4 and sigma lines after the monomial
# oracle moved to byte keys and the theorem1, theorem2 and truncation lines
# after the Scalar path applied each sign once and unpacked limb lanes.  Past
# a cap, the duality, theorem1, theorem2, truncation and theorem5 lines time
# the suite generator in a fresh process.  The qhz, theorem1, theorem2,
# truncation, duality and theorem5 caps now sit below that range, and every
# bound stays until the caps are re-derived.  Caps on two bounds are timed
# where both sit at their caps, the costliest request they admit; a 2(m+s) cap
# is timed at the costliest (m, s) on its line:
#   duality max_n 40: 0.10-0.12 s (41: 0.12-0.13 s, 50: 0.24-0.27 s);
#   truncation max_total 23: 0.9-1.2 s (24: 1.0-1.5 s);
#   theorem1 max_weight 12, max_vars 17: 1.7-2.3 s (max_vars 18: 1.8-2.8 s,
#     max_weight 14: 2.9-4.6 s);
#   theorem2 max_vars 8, max_ell 17: 1.4-2.2 s (max_vars 9: 2.7-4.1 s);
#   theorem5 2(m+s) 52: 4.6-5.3 s at (17, 9) and (16, 10) (54: 6.5-6.7 s at (18, 9));
#   qhz 2(m+s) 58: 0.2-0.3 s at (4, 25) and (3, 26) (60: 0.2-0.3 s at (4, 26), (5, 25));
#   theorem3 max_weight 14: 7.3-13.8 s at max_vars 5 (15: 10.6-18.6 s).
# theorem4 and sigma need no cap: the oracle guardrail bounds them, and at its
# edge they take 2.7-4.4 and 2.3-5.0 s at (max_weight, max_vars) = (20, 5),
# 0.7 and 1.0 s at (28, 4), and 0.2 and 0.6 s at (34, 3).
# The max_s caps of 26 were timed at the default max_weight 6; for theorem5
# the 2(m+s) cap is the tighter one.  theorem2's max_ell cap equals
# orthogonality's max_n cap, so `--max-n 17` still runs every suite.
# Orthogonality at its cap of 17 takes 2.0-2.2 s, so that cap leaves headroom.
_SUITES: Dict[str, _Suite] = {
    "duality": _Suite(_duality, {"max_n": ("max_n", 30)}, caps={"max_n": 40}),
    "orthogonality": _Suite(_orthogonality, {"max_n": ("max_n", 10)}, caps={"max_n": 17}),
    "theorem1": _Suite(_theorem1, _WEIGHT_VARS, caps={"max_weight": 12, "max_vars": 17}),
    "theorem2": _Suite(
        _theorem2,
        {"max_vars": ("max_vars", 5), "max_ell": ("max_n", 4)},
        caps={"max_vars": 8, "max_ell": 17},
    ),
    "theorem3": _Suite(
        _theorem3,
        _WEIGHT_VARS,
        # weight 6 up to N = 3, and weight 4 at N = 4
        preset=(
            {"max_weight": 6, "max_vars": 4},
            lambda: _theorem3_rows([(1, 6), (2, 6), (3, 6), (4, 4)]),
        ),
        caps={"max_weight": 14},
        oracle=lambda max_weight, max_vars: (max_vars, max_weight),
    ),
    "theorem4": _Suite(
        _theorem4,
        {"max_weight": ("max_weight", 8), "max_vars": ("max_vars", 4)},
        oracle=_even_weight_oracle,
    ),
    "sigma": _Suite(_sigma, _WEIGHT_VARS, oracle=_even_weight_oracle),
    "theorem5": _Suite(_theorem5, _WEIGHT_S, caps={"max_s": 26, "2(m+s)": 52}),
    "qhz": _Suite(_qhz, _WEIGHT_S, caps={"max_s": 26, "2(m+s)": 58}),
    "truncation": _Suite(_truncation, {"max_total": ("max_n", 10)}, caps={"max_total": 23}),
}

SUITE_NAMES = tuple(_SUITES)


def verify_suite(
    suites=("all",),
    max_weight: Optional[int] = None,
    max_vars: Optional[int] = None,
    max_n: Optional[int] = None,
) -> List[SuiteResult]:
    """Run each named identity suite once, in first-seen order; return per-suite reports.

    Bounds default per suite; passing a bound overrides it for every suite
    that uses it.  A bound above a suite's cap, or a grid whose costliest
    oracle point is outside the oracle guardrails, raises SizeError before
    any point is evaluated.  No suite at all, or a requested suite whose grid
    has no points, raises ValueError before any suite is run to completion.
    """
    if isinstance(suites, str):
        suites = (suites,)
    names = list(SUITE_NAMES) if "all" in suites else list(dict.fromkeys(suites))
    if not names:
        raise ValueError(f"no suite requested; choose from {SUITE_NAMES}")
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    given = {"max_weight": max_weight, "max_vars": max_vars, "max_n": max_n}
    plans = []
    for name in names:
        entry = _SUITES[name]
        if entry.preset and all(given[b] is None for b, _ in entry.grid.values()):
            grid, points = dict(entry.preset[0]), entry.preset[1]()
        else:
            grid = {k: d if given[b] is None else given[b] for k, (b, d) in entry.grid.items()}
            for key, cap in entry.caps.items():
                size = _SIZES[key](**grid) if key in _SIZES else grid[key]
                if size > cap:
                    raise SizeError(f"suite {name} limited to {key} <= {cap}, got {size}")
            if entry.oracle:
                try:
                    check_oracle_size(*entry.oracle(**grid))
                except SizeError as exc:
                    raise SizeError(f"suite {name}: {exc}") from None
            points = entry.points(**grid)
        plans.append((name, grid, points))
    # evaluate each suite's first point now, so an empty grid fails fast
    runs = [(name, grid, next(points, None), points) for name, grid, points in plans]
    empty = [name for name, _, first, _ in runs if first is None]
    if empty:
        raise ValueError(f"empty grid in suite(s) {', '.join(empty)}; raise the bounds")
    return [SuiteResult(name, grid, [first, *points]) for name, grid, first, points in runs]


def has_discrepancies(results: List[SuiteResult]) -> bool:
    return any(suite.discrepancies for suite in results)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _point_obj(p: PointResult) -> Dict[str, object]:
    obj: Dict[str, object] = {"params": dict(p.params), "status": p.status}
    if p.ratio is not None:
        obj["ratio"] = str(p.ratio)
    if p.sign is not None:
        obj["sign"] = p.sign
        obj["qpower"] = p.qpower
    if p.note is not None:
        obj["note"] = p.note
    return obj


def report_to_json(results: List[SuiteResult]) -> Dict[str, object]:
    suites = [
        {
            "identity": s.identity,
            "grid": s.grid,
            "points": [_point_obj(p) for p in s.points],
            "summary": s.summary(),
        }
        for s in results
    ]
    total = sum(len(s.points) for s in results)
    disc = sum(len(s.discrepancies) for s in results)
    return {
        "suites": suites,
        "summary": {
            "suites": len(results),
            "points": total,
            "equal": total - disc,
            "discrepant": disc,
        },
    }


def _json_text(obj) -> str:
    """The one JSON layout of qgue output: two-space indent, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def render_json(results: List[SuiteResult]) -> str:
    return _json_text(report_to_json(results))


def summary_table(results: List[SuiteResult]) -> str:
    lines = [f"{'suite':<14} {'points':>7} {'equal':>7} {'discrepant':>11}  notes"]
    for s in results:
        counts = s.summary()
        note = f"{counts['monomial_ratios']} with ratio +/-q^j" if counts["discrepant"] else ""
        lines.append(
            f"{s.identity:<14} {counts['points']:>7} {counts['equal']:>7} "
            f"{counts['discrepant']:>11}  {note}"
        )
    return "\n".join(lines)
