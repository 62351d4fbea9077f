"""Per-layer tracing by wrapping the library's public functions.

The library has no tracer of its own, so spans are recorded from here:
each traced function is replaced, at its own module attribute and at every
name another fewweights module imported it under, by a wrapper that records
a span.  A layer's self time is its span time minus the time of the spans
nested inside it.  `cells` is computed from operand shapes, not measured.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter

import numpy as np


def _shape(x):
    shape = getattr(x, "shape", None)  # WeightMatrix and ndarray
    return tuple(np.shape(x) if shape is None else shape)


def _product_cells(a, b):
    r, k = _shape(a)
    c = _shape(b)[1]
    return r * k * c


def _poly_cells(a_exp, b_exp, p):
    # one n x n x n product per evaluation point, m = 2^ceil(log2(2p-1))
    n = _shape(a_exp)[0]
    m = 1
    while m < 2 * p - 1:
        m *= 2
    return m * n ** 3


# (module, attribute, span name, cells from bound arguments or None)
TARGETS = (
    ("minplus", "boolean_min_plus", "minplus.boolean_min_plus",
     lambda a: _product_cells(a["A"], a["B"])),
    ("minplus", "boolean_matrix_multiply", "minplus.boolean_matrix_multiply",
     lambda a: _product_cells(a["P"], a["Q"])),
    ("minplus", "d_weights_min_plus", "minplus.d_weights_min_plus",
     lambda a: _product_cells(a["A"], a["B"])),
    ("minplus", "min_plus_naive", "minplus.min_plus_naive",
     lambda a: _product_cells(a["A"], a["B"])),
    ("minplus", "hop_bounded_product", "minplus.hop", None),
    ("minplus", "hop_bounded_product_left", "minplus.hop", None),
    ("minplus", "hop_bounded_product_edge", "minplus.hop", None),
    ("apsp", "solve_apsp", "apsp.solve", None),
    ("apsp", "greedy_hitting_set", "apsp.greedy_hitting_set", None),
    ("apsp", "eliminate_negative_cycles", "apsp.eliminate_negative_cycles", None),
    ("apsp", "apsp_oracle", "apsp.apsp_oracle", None),
    ("exact_triangle", "aete_few_weights", "exact_triangle.aete_few_weights", None),
    ("exact_triangle", "regularize", "exact_triangle.regularize", None),
    ("exact_triangle", "uniformize", "exact_triangle.uniformize", None),
    ("exact_triangle", "regularize_naive", "exact_triangle.regularize_naive", None),
    ("exact_triangle", "aete_uniform_regular", "exact_triangle.aete_uniform_regular", None),
    ("exact_triangle", "aete_small_doubling", "exact_triangle.aete_small_doubling", None),
    ("exact_triangle", "poly_matrix_multiply", "exact_triangle.poly_matrix_multiply",
     lambda a: _poly_cells(a["a_exp"], a["b_exp"], a["p"])),
    ("exact_triangle", "aete_brute", "exact_triangle.aete_brute", None),
    ("additive", "popular_sum_decomposition", "additive.popular_sum_decomposition", None),
    ("additive", "bsg_cover", "additive.bsg_cover", None),
    ("additive", "isolating_primes", "additive.isolating_primes", None),
    ("reductions", "minplus_from_aete", "reductions.minplus_from_aete", None),
    ("reductions", "apsp_from_minplus", "reductions.apsp_from_minplus", None),
    ("reductions", "row_weight_minplus_via_nw_apsp",
     "reductions.row_weight_minplus_via_nw_apsp", None),
    ("reductions", "gen_column_weight_gadget", "reductions.gadget", None),
)

# Methods patched on their class; the decode step belongs to the gadget.
METHOD_TARGETS = (
    ("reductions", "GadgetGraph", "decode", "reductions.gadget"),
)

# Span name -> key in minplus.snapshot_counters() that counts the same calls.
KERNEL_COUNTERS = {
    "minplus.boolean_min_plus": "boolean_min_plus",
    "minplus.boolean_matrix_multiply": "boolean_matmul",
    "minplus.d_weights_min_plus": "d_weights_min_plus",
    "minplus.min_plus_naive": "min_plus_naive",
}

HOP_SPAN = "minplus.hop"

# Per-layer metrics reported by a traced run: span name -> fields.
LAYER_FIELDS = {
    "minplus.boolean_min_plus": ("calls", "self_s", "cells"),
    "minplus.boolean_matrix_multiply": ("calls", "self_s", "cells"),
    "minplus.d_weights_min_plus": ("calls", "self_s", "cells"),
    "minplus.min_plus_naive": ("calls", "self_s", "cells"),
    "minplus.hop": ("self_s",),
    "apsp.solve": ("self_s",),
    "apsp.greedy_hitting_set": ("calls", "self_s"),
    "apsp.eliminate_negative_cycles": ("self_s",),
    "apsp.apsp_oracle": ("self_s",),
    "exact_triangle.aete_few_weights": ("self_s",),
    "exact_triangle.regularize": ("self_s",),
    "exact_triangle.uniformize": ("calls", "self_s"),
    "exact_triangle.regularize_naive": ("calls", "self_s"),
    "exact_triangle.aete_uniform_regular": ("calls", "self_s"),
    "exact_triangle.aete_small_doubling": ("calls", "self_s"),
    "exact_triangle.poly_matrix_multiply": ("calls", "self_s", "cells"),
    "exact_triangle.aete_brute": ("self_s",),
    "additive.popular_sum_decomposition": ("calls", "self_s"),
    "additive.bsg_cover": ("calls", "self_s"),
    "additive.isolating_primes": ("calls", "self_s"),
    "reductions.minplus_from_aete": ("self_s",),
    "reductions.apsp_from_minplus": ("self_s",),
    "reductions.row_weight_minplus_via_nw_apsp": ("self_s",),
    "reductions.gadget": ("self_s",),
}

FIELD_UNITS = {"calls": "count", "self_s": "s", "cells": "cells-computed"}


class Tracer:
    """Span recorder for one pass: per-name calls, self time and cells.

    `calls` and `cells` are exact counts.  `hop_iterations` counts kernel
    calls made directly from a hop-product span, one per iteration of the
    hop recurrence.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.cells = Counter()
        self.hop_iterations = 0
        self.scale = 1.0  # the pass's speed factor, set when the pass ends
        self._stack = []

    def wrap(self, fn, name, cells=None):
        signature = inspect.signature(fn) if cells is not None else None

        def traced(*args, **kwargs):
            if name in KERNEL_COUNTERS and self._stack and self._stack[-1][0] == HOP_SPAN:
                self.hop_iterations += 1
            frame = [name, 0]
            self._stack.append(frame)
            t0 = time.process_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.process_time_ns() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[1]
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.cells[name] += cells(bound.arguments)
                if self._stack:
                    self._stack[-1][1] += elapsed

        return traced

    def tallies(self):
        """Cumulative traced counts, keyed like minplus.snapshot_counters()."""
        out = {key: self.calls[span] for span, key in KERNEL_COUNTERS.items()}
        out["hop_iterations"] = self.hop_iterations
        return out

    def counts(self):
        """Every exact count of the pass, for the determinism check."""
        return (tuple(sorted(self.calls.items())), tuple(sorted(self.cells.items())),
                self.hop_iterations)


def layer_metrics(tracers):
    """Per-layer metrics per pass: counts of the first pass (all passes
    agree), self time scaled to the reference speed and averaged over the
    passes."""
    first, passes = tracers[0], len(tracers)
    out = {}
    for span, fields in LAYER_FIELDS.items():
        for field in fields:
            if field == "self_s":
                value = sum(t.self_ns[span] * t.scale for t in tracers) / 1e9 / passes
            else:
                value = (first.calls if field == "calls" else first.cells)[span]
            out[f"{span}.{field}"] = (value, FIELD_UNITS[field])
    out["minplus.hop_iterations"] = (first.hop_iterations, "count")
    return out


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fewweights" or name.startswith("fewweights."))]


@contextlib.contextmanager
def installed(tracer, fw):
    """Patch every traced function for the duration of the block.

    `fw` maps short module names to the loaded fewweights modules.  Each
    function is replaced wherever a fewweights module holds it, so calls
    through names imported at load time are traced too.
    """
    modules = _library_modules()
    undo = []
    try:
        for mod_name, attr, span, cells in TARGETS:
            orig = getattr(fw[mod_name], attr)
            wrapped = tracer.wrap(orig, span, cells)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, orig))
        for mod_name, cls_name, attr, span in METHOD_TARGETS:
            cls = getattr(fw[mod_name], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(orig, span))
            undo.append((cls, attr, orig))
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
