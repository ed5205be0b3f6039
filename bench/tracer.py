"""Layer tracing from outside the program.

``Tracer.install()`` wraps the public functions and methods of the eight
layer modules and rebinds each wrapped name in every ``nsympeak`` module
that imported it, so ``from .scalars import zeta`` sees the wrapper too.
A call that crosses from one layer into another opens a span; calls
within a layer only bump counters, which keeps the per-call cost and the
memory small (the leaf layers ``scalars`` and ``compositions`` see
millions of calls).  Spans are aggregated as they close: a layer's self
time is its spans' time minus the time of the spans they caused.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "scalars",
    "compositions",
    "elements",
    "descent",
    "series",
    "peak",
    "textforms",
    "cli",
)

# Operator methods traced on the classes of each layer; other dunders
# (hashing, truth, repr) are too small to be worth a wrapper.
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
}

# Named counters: metric stem -> the functions it sums.  Names that no
# longer exist in the program are skipped.
KINDS = {
    "scalars.mul": ("CyclotomicNumber.__mul__", "CyclotomicNumber.__rmul__"),
    "scalars.add": ("CyclotomicNumber.__add__", "CyclotomicNumber.__radd__",
                    "CyclotomicNumber.__sub__", "CyclotomicNumber.__rsub__"),
    "scalars.inv": ("CyclotomicNumber.inverse",),
    "compositions.lower_set": ("lower_set",),
    "compositions.descent_composition": ("descent_composition",),
    "elements.s_to_r": ("s_to_r",),
    "elements.r_to_s": ("r_to_s",),
    "elements.multiply": ("multiply",),
    "elements.add": ("NsymElement.__add__",),
    "series.generator": ("theta_q_generator",),
    "series.inverse": ("GradedSeries.inverse",),
    "series.theta": ("theta_q", "Theta"),
    "peak.membership": ("membership", "rho_membership", "T_membership"),
    "peak.expand": ("expand_sigma_coords", "expand_rho_coords"),
    "peak.decomp": ("decomp_theta_S", "decomp_theta_R", "decomp_S_on_rho",
                    "decomp_R_on_rho"),
    "descent.internal_product": ("internal_product",),
    "cli.build_parser": ("build_parser",),
}

# Kinds whose results are element values; their term counts add up to
# ``elements.terms_out``.
_TERM_KINDS = {"elements.s_to_r", "elements.r_to_s", "elements.multiply",
               "elements.add"}


class Tracer:
    def __init__(self):
        # Open spans: [layer, time covered by child spans].  The bottom
        # entry stands for the benchmark itself.
        self.stack = [[None, 0.0]]
        self.layer_calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.kind_calls = defaultdict(int)
        self.kind_time = defaultdict(float)
        self.kind_depth = defaultdict(int)
        self.bytes_in = 0
        self.terms_out = 0

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        kind = next((k for k, names in KINDS.items()
                     if k.startswith(layer + ".") and qualname in names), None)
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind is not None:
                tracer.kind_calls[kind] += 1
                outer = tracer.kind_depth[kind] == 0
                tracer.kind_depth[kind] += 1
            crossing = stack[-1][0] != layer
            if crossing:
                frame = [layer, 0.0]
                stack.append(frame)
                if layer == "textforms" and args and isinstance(args[0], str):
                    tracer.bytes_in += len(args[0].encode())
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                if crossing:
                    stack.pop()
                    stack[-1][1] += dt
                    tracer.layer_calls[layer] += 1
                    tracer.layer_self[layer] += dt - frame[1]
                if kind is not None:
                    tracer.kind_depth[kind] -= 1
                    if outer:
                        tracer.kind_time[kind] += dt
            if kind in _TERM_KINDS:
                tracer.terms_out += len(getattr(result, "terms", ()))
            return result

        return wrapper

    def install(self):
        """Wrap every layer's public callables and rebind them everywhere."""
        replaced = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"nsympeak.{layer}")
            except ImportError:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "nsympeak" or mod_name.startswith("nsympeak.")
            ):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer, cls):
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if name.startswith("_") and name not in _OPERATORS:
                continue
            setattr(cls, name, self._wrap(layer, f"{cls.__name__}.{name}", obj))

    # -- results ----------------------------------------------------------

    def summary(self):
        return {
            "layer_calls": dict(self.layer_calls),
            "layer_self_s": dict(self.layer_self),
            "kind_calls": dict(self.kind_calls),
            "kind_time_s": dict(self.kind_time),
            "bytes_in": self.bytes_in,
            "terms_out": self.terms_out,
        }
