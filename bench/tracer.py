"""In-memory spans around the public functions of each `dilationlab` module.

The tracer wraps functions from the outside and changes no file of the
package. A function imported by name into another `dilationlab` module (as
`cli` imports `window_gram` and `hatspace` imports `opnorm`) is replaced in
every namespace that holds it, so no call path escapes the wrapper. Methods
are replaced on their class. The numpy kernels are replaced in `numpy.linalg`
and in the module that defines them, so calls made inside numpy (the SVD
behind `np.linalg.norm(m, 2)`, `pinv` and `matrix_rank`) are counted too.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from dataclasses import dataclass

# (module, attribute path, span name). An attribute path with a dot is a
# method on a class of that module.
PACKAGE_TARGETS = (
    ("instances", "parse_instance", "instances.parse_instance"),
    ("prodsys", "ProductSystem.__init__", "prodsys.ProductSystem.__init__"),
    ("prodsys", "ProductSystem.mult_iso", "prodsys.ProductSystem.mult_iso"),
    ("prodsys", "ProductSystem.fiber", "prodsys.ProductSystem.fiber"),
    ("correspondence", "localize", "correspondence.localize"),
    ("correspondence", "interior_tensor", "correspondence.interior_tensor"),
    ("correspondence", "descend_map", "correspondence.descend_map"),
    ("representation", "validate_representation", "representation.validate_representation"),
    ("representation", "doubly_commuting_check", "representation.doubly_commuting_check"),
    ("representation", "brehmer_check_NS", "representation.brehmer_check_NS"),
    ("representation", "CCRepresentation.lowering_block", "representation.CCRepresentation.lowering_block"),
    ("hatspace", "TruncatedFock.__init__", "hatspace.TruncatedFock.__init__"),
    ("hatspace", "TruncatedFock.hat", "hatspace.TruncatedFock.hat"),
    ("hatspace", "check_hat_semigroup", "hatspace.check_hat_semigroup"),
    ("dilation", "window_gram", "dilation.window_gram"),
    ("dilation", "kolmogorov", "dilation.kolmogorov"),
    ("dilation", "verify_regular_dilation", "dilation.verify_regular_dilation"),
    ("dilation", "verify_doubly_commuting_V", "dilation.verify_doubly_commuting_V"),
    ("dilation", "verify_hat_doubly_commuting", "dilation.verify_hat_doubly_commuting"),
    ("dilation", "compare_minimal_dilations", "dilation.compare_minimal_dilations"),
    ("dilation", "DilationBundle.build_Vs", "dilation.DilationBundle.build_Vs"),
    ("linalg", "opnorm", "linalg.opnorm"),
    ("linalg", "psd_factor", "linalg.psd_factor"),
    ("linalg", "null_split", "linalg.null_split"),
    ("linalg", "pivoted_cholesky", "linalg.pivoted_cholesky"),
    ("linalg", "lstsq_map", "linalg.lstsq_map"),
    ("report", "render", "report.render"),
)

NUMPY_KERNELS = ("eigh", "eigvalsh", "pinv", "svd")

KOLMOGOROV_METHODS = ("eig", "chol")

SIZE_NAMES = (
    "hatspace.dim_HL",
    "dilation.gram_dim",
    "dilation.factor_rank",
    "dilation.k_min_dim",
)


def span_names() -> list[str]:
    """Every span name the tracer can record, kolmogorov split by method."""
    names = []
    for _module, _attr, name in PACKAGE_TARGETS:
        if name == "dilation.kolmogorov":
            names.extend(f"{name}.{m}" for m in KOLMOGOROV_METHODS)
        else:
            names.append(name)
    return names


def kernel_names() -> list[str]:
    return [f"numpy.linalg.{k}" for k in NUMPY_KERNELS]


def _n3(a) -> int:
    """Computed cost m*n*min(m, n) of a dense factorization of `a` (n^3 when
    square), times the number of stacked matrices."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    m, n = int(shape[-2]), int(shape[-1])
    return math.prod(int(b) for b in shape[:-2]) * m * n * min(m, n)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    instance: int | None
    start: float
    end: float = 0.0
    n3: int = 0
    # True when a span of the same name is already open (recursion); such a
    # span is excluded from total_s so that time is not counted twice.
    nested: bool = False


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: int | None = None
        self.sizes: dict[int, dict[str, int]] = {}
        self.bundles: dict[int, object] = {}
        self._stack: list[Span] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._active = True

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.instance, 0.0)
        span.nested = self._open.get(name, 0) > 0
        self._open[name] = self._open.get(name, 0) + 1
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def _wrap(self, fn, name_of, after=None, n3=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            span = tracer._enter(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if n3 and args:
                span.n3 = _n3(args[0])
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _size(self, key: str, value) -> None:
        """Record the first value of `key` in the current instance."""
        if self.instance is not None and value is not None:
            self.sizes.setdefault(self.instance, {}).setdefault(key, int(value))

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        import numpy

        package = [m for n, m in sorted(sys.modules.items()) if n == "dilationlab" or n.startswith("dilationlab.")]
        # Sizes are read with getattr so that a later change to these objects
        # drops a size from the trace instead of breaking the traced run.
        hooks = {
            "hatspace.TruncatedFock.__init__": lambda args, _r: self._size("hatspace.dim_HL", getattr(args[0], "dim", None)),
            "dilation.window_gram": lambda _a, r: self._size(
                "dilation.gram_dim", getattr(getattr(r, "gram", None), "shape", (None,))[0]
            ),
        }
        for module_name, attr, name in PACKAGE_TARGETS:
            owner = sys.modules.get(f"dilationlab.{module_name}")
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                # gone from the package: reported with zero calls
                self.missing.append(name)
                continue
            if name == "dilation.kolmogorov":
                wrapper = self._wrap(original, _kolmogorov_name, self._after_kolmogorov)
            else:
                wrapper = self._wrap(original, lambda a, k, n=name: n, hooks.get(name))
            if cls_path:
                self._patches.append((owner, fn_name, original))
                setattr(owner, fn_name, wrapper)
            else:
                self._replace_everywhere(original, wrapper, package)
        # numpy reports "numpy.linalg" as the public kernels' module, so every
        # loaded numpy.linalg submodule is searched for the defining namespace.
        linalg_modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("numpy.linalg") and m is not None]
        for kernel in NUMPY_KERNELS:
            original = getattr(numpy.linalg, kernel)
            wrapper = self._wrap(original, lambda a, k, n=f"numpy.linalg.{kernel}": n, n3=True)
            self._replace_everywhere(original, wrapper, linalg_modules)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after_kolmogorov(self, args, bundle) -> None:
        if getattr(bundle, "method", None) == "eig" and self.instance is not None and self.instance not in self.bundles:
            self._size("dilation.factor_rank", getattr(bundle, "rank", None))
            self.bundles[self.instance] = bundle

    def record_k_min(self, instance: int) -> None:
        """dim K_min of the instance's eig bundle, computed outside any span."""
        bundle = self.bundles.pop(instance, None)
        if bundle is None or not hasattr(bundle, "k_min_rank"):
            return
        with self.paused():
            self.sizes.setdefault(instance, {})["dilation.k_min_dim"] = int(bundle.k_min_rank())

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, total_s, self_s and n3_computed per span name."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + (span.end - span.start)
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n3_computed": 0}
            for name in span_names() + kernel_names()
        }
        for span in self.spans:
            entry = out[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            if not span.nested:
                entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(span.id, 0.0)
            entry["n3_computed"] += span.n3
        return out

    def span_records(self) -> list[dict]:
        return [vars(span) for span in self.spans]


def _kolmogorov_name(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "eig")
    return f"dilation.kolmogorov.{method}"
