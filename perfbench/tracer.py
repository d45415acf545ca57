"""Run one `qgue` CLI job under a layer tracer and write its spans and counts.

    python perfbench/tracer.py OUT -- ARGS...

ARGS are the arguments of `python -m qgue.cli`; stdout, stderr and the exit
code are those of the plain job.  The tracer wraps every function in the
`__all__` of each qgue module, the public methods and arithmetic operators of
QPolynomial, Scalar, XPoly and MonomialMap, `cli.main`, and the gcd entry
points `_poly_gcd` and `_subresultant_gcd`.  Each wrapped name is rebound in
every qgue namespace that holds it, so calls through imported names are seen.

Every wrapped call is counted.  A call whose layer differs from the layer of
the innermost open span (and every call of `hermite`) also records a span:
name, start, end and parent.  Spans stay in memory and are written at exit:
OUT.json holds the name table, counts, hook statistics and cache_info()
totals; OUT.spans holds four packed arrays (name id, parent, start, end).
Private helpers are not wrapped, so their time belongs to their caller.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from types import FunctionType

LAYERS = ("cli", "verify", "moments", "symschur", "qxpoly", "exactq")

CLASSES = {
    "exactq": ("QPolynomial", "Scalar"),
    "qxpoly": ("XPoly",),
    "symschur": ("MonomialMap",),
}
OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "__call__")
EXTRA = {"cli": ("main",), "exactq": ("_poly_gcd", "_subresultant_gcd")}
ALWAYS_SPAN = ("qxpoly.hermite",)
SCALAR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inverse")


def _coeff_bits(coeffs) -> int:
    try:
        return max(map(int.bit_length, coeffs), default=0)
    except TypeError:  # Fraction coefficients
        return max(
            max(abs(c).numerator.bit_length(), c.denominator.bit_length()) for c in coeffs
        )


class Tracer:
    """Counts and spans of one traced process."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.counts = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [(-1, -1)]  # (layer id, span index) of the innermost open span
        self.stats = {
            "exactq.poly_mul_coeff_products": 0,
            "exactq.poly_max_degree": 0,
            "exactq.coeff_max_bits": 0,
            "exactq.exact_div_hits": 0,
            "qxpoly.gaussian_op_max_degree": 0,
            "qxpoly.hermite_max_n": 0,
            "symschur.det_max_order": 0,
            "symschur.monomial_term_products": 0,
            "verify.points": 0,
        }

    def wrap(self, fn, name: str, layer: int, hook=None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.counts.append(0)
        counts, stack = self.counts, self.stack
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter
        always = name in ALWAYS_SPAN

        def traced(*args, **kwargs):
            counts[nid] += 1
            if stack[-1][0] == layer and not always:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            # the span opens before the bookkeeping and closes after the hook,
            # so the tracer's own cost is charged to the callee, not the caller
            start = clock()
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][1])
            s_start.append(start)
            s_end.append(0.0)
            stack.append((layer, idx))
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
            finally:
                stack.pop()
                s_end[idx] = clock()
            return result

        return traced

    # -- hooks: per-call statistics the counts alone do not give -----------

    def _max(self, key, value):
        if value > self.stats[key]:
            self.stats[key] = value

    def on_poly_mul(self, args, result):
        a, b = args
        self.stats["exactq.poly_mul_coeff_products"] += len(a.coeffs) * len(b.coeffs)
        self._max("exactq.poly_max_degree", len(result.coeffs) - 1)
        self._max("exactq.coeff_max_bits", _coeff_bits(result.coeffs))

    def on_exact_div(self, args, result):
        self._max("exactq.poly_max_degree", len(args[0].coeffs) - 1)
        if result is not None:
            self.stats["exactq.exact_div_hits"] += 1
            self._max("exactq.coeff_max_bits", _coeff_bits(result.coeffs))

    def on_gaussian_op(self, args, result):
        self._max("qxpoly.gaussian_op_max_degree", len(args[0].coeffs) - 1)

    def on_hermite(self, args, result):
        self._max("qxpoly.hermite_max_n", args[0])

    def on_det(self, args, result):
        self._max("symschur.det_max_order", len(args[0]))

    def on_monomial_mul(self, args, result):
        a, b = args
        self.stats["symschur.monomial_term_products"] += len(a.terms) * len(b.terms)

    def on_verify_suite(self, args, result):
        self.stats["verify.points"] += sum(len(s.points) for s in result)

    def hooks(self):
        return {
            "exactq.QPolynomial.__mul__": self.on_poly_mul,
            "exactq.QPolynomial.exact_div": self.on_exact_div,
            "qxpoly.gaussian_op": self.on_gaussian_op,
            "qxpoly.hermite": self.on_hermite,
            "symschur.det": self.on_det,
            "symschur.MonomialMap.__mul__": self.on_monomial_mul,
            "verify.verify_suite": self.on_verify_suite,
        }

    # -- installation -------------------------------------------------------

    def install(self, package, modules):
        """Wrap and rebind; return the lru caches of each layer, unwrapped."""
        hooks = self.hooks()
        caches = {layer: [] for layer in LAYERS}
        rebind = {}  # id(original) -> wrapper
        for layer_id, layer in enumerate(LAYERS):
            mod = modules[layer]
            for obj in vars(mod).values():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                    caches[layer].append(obj)
            names = [
                n
                for n in getattr(mod, "__all__", ())
                if _is_function(getattr(mod, n)) and getattr(mod, n).__module__ == mod.__name__
            ]
            for attr in names + list(EXTRA.get(layer, ())):
                fn = getattr(mod, attr)
                qual = f"{layer}.{attr}"
                rebind[id(fn)] = self.wrap(fn, qual, layer_id, hooks.get(qual))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and attr not in OPERATORS:
                        continue
                    qual = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        kind = type(raw)
                        setattr(cls, attr, kind(self.wrap(raw.__func__, qual, layer_id)))
                    elif _is_function(raw):
                        setattr(cls, attr, self.wrap(raw, qual, layer_id, hooks.get(qual)))
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = rebind.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return caches

    def scalar_op_ids(self):
        prefix = "exactq.Scalar."
        return [
            i
            for i, n in enumerate(self.names)
            if n.startswith(prefix) and n[len(prefix):] in SCALAR_OPS
        ]

    def write(self, out: str, import_s: float, caches):
        count_by_name = dict(zip(self.names, self.counts))
        stats = dict(self.stats)
        stats["exactq.scalar_ops"] = sum(self.counts[i] for i in self.scalar_op_ids())
        cache_totals = {}
        for layer, objs in caches.items():
            infos = [c.cache_info() for c in objs]
            cache_totals[layer] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
        meta = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "counts": count_by_name,
            "stats": stats,
            "caches": cache_totals,
            "import_s": import_s,
            "n_spans": len(self.span_start),
        }
        with open(out + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(out + ".json", "w") as fh:
            json.dump(meta, fh)


def _is_function(obj) -> bool:
    return isinstance(obj, FunctionType) or hasattr(obj, "cache_info")


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT -- ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import qgue.cli

    import_s = time.perf_counter() - t0
    modules = {layer: sys.modules[f"qgue.{layer}"] for layer in LAYERS}
    tracer = Tracer()
    caches = tracer.install(sys.modules["qgue"], modules)
    code = 1
    try:
        code = qgue.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors and --help
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.write(out, import_s, caches)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
