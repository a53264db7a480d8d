"""Spans and exact counts at fastband's layer boundaries, from outside the package.

``Tracer.install`` replaces public functions with timing wrappers in the
namespaces their callers look them up in (``fastband.selector.psi_binned``,
``fastband.functionals.convolve``, ``CountsFftCache.get`` on the class, ...)
and ``Tracer.uninstall`` puts the originals back.  Each call becomes a span
``(name, start, end, parent)`` kept in memory; ``write`` saves them once at
the end of a run.

Counts are kept per root span, the outermost call the benchmark made, so the
work of ``select_bandwidth`` and of ``kde_on_grid`` stays apart.  Element
counts derived from array shapes (``fft_elems``) are computed, not measured.
"""

import json
import math
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import fastband.fftconv
import fastband.functionals
import fastband.linalg
import fastband.mixtures
import fastband.selector

SELECT = "selector.select_bandwidth"
DENSITY = "selector.kde_on_grid"

# Exception types counted separately among rejected evaluations; any other
# type, or a non-finite value returned without one, counts as "other".
REJECT_TYPES = ("SingularBandwidth", "NotPositiveDefinite")


def _rows(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self._stack = []
        self._patched = []
        self._eval_error = None
        self._fft_keys = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    @property
    def root(self):
        return self.spans[self._stack[0]][0] if self._stack else None

    def count(self, key, value=1):
        self.counts[self.root][key] += value

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``name``."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if self._eval_error is None:
                self._eval_error = type(exc).__name__
            raise
        finally:
            self.spans[idx][1:3] = start, perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr, name, after=None, before=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            out = self.call(name, orig, *args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    # -- count hooks -------------------------------------------------------

    def _after_dedup(self, out, x, *args, **kwargs):
        self.count("selector.dedup.rows_dropped", _rows(x) - _rows(out))

    def _after_convolve(self, out, counts, kernel, padded_shape=None, counts_fft=None):
        if padded_shape is None:
            half = tuple((s - 1) // 2 for s in np.shape(kernel))
            padded_shape = fastband.fftconv.padded_size_truncated(np.shape(counts), half)
        self.count("fftconv.convolve.calls")
        self.count("fftconv.convolve.fft_elems", math.prod(padded_shape))

    def _before_fft_get(self, cache, padded_shape):
        seen = self._fft_keys.setdefault(cache, set())
        key = tuple(int(p) for p in padded_shape)
        self.count("fftconv.counts_fft.gets")
        if key not in seen:
            seen.add(key)
            self.count("fftconv.counts_fft.misses")

    def _after_kernel_grid(self, out, *args, **kwargs):
        self.count("functionals.kernel_points", int(np.size(out)))

    def _after_normal_pdf(self, out, x, *args, **kwargs):
        self.count("gaussian.normal_pdf.points", _rows(x))

    def _wrap_nelder_mead(self):
        orig = fastband.selector.nelder_mead

        def objective_span(func):
            def evaluate(theta):
                self._eval_error = None
                value = self.call("selector.objective", func, theta)
                self.count("selector.evals")
                if not math.isfinite(value):
                    kind = self._eval_error if self._eval_error in REJECT_TYPES else "other"
                    self.count("selector.evals_rejected")
                    self.count(f"selector.evals_rejected.{kind}")
                return value
            return evaluate

        def wrapper(func, *args, **kwargs):
            return self.call("selector.nelder_mead", orig, objective_span(func), *args, **kwargs)

        fastband.selector.nelder_mead = wrapper
        self._patched.append((fastband.selector, "nelder_mead", orig))

    # -- install -----------------------------------------------------------

    def install(self):
        sel, fun, fft = fastband.selector, fastband.functionals, fastband.fftconv
        self._wrap(sel, "select_bandwidth", SELECT)
        self._wrap(sel, "kde_on_grid", DENSITY)
        self._wrap(sel, "dedup", "selector.dedup", after=self._after_dedup)
        self._wrap(sel, "make_grid", "binning.make_grid")
        self._wrap(sel, "linear_binning", "binning.linear_binning")
        self._wrap(sel, "normal_scale_start", "selector.normal_scale_start")
        self._wrap(sel, "lscv_objective", "selector.lscv_objective")
        self._wrap(sel, "psi_binned", "functionals.psi_binned")
        self._wrap(sel, "psi_direct", "functionals.psi_direct")
        self._wrap(sel, "eta_kernel_grid", "functionals.eta_kernel_grid")
        self._wrap(sel, "convolve", "fftconv.convolve", after=self._after_convolve)
        self._wrap(sel, "convolve_direct", "fftconv.convolve_direct")
        self._wrap(fun, "build_kernel_grid", "functionals.build_kernel_grid",
                   after=self._after_kernel_grid)
        self._wrap(fun, "convolve", "fftconv.convolve", after=self._after_convolve)
        self._wrap(fun, "convolve_direct", "fftconv.convolve_direct")
        self._wrap(fun, "normal_pdf", "gaussian.normal_pdf", after=self._after_normal_pdf)
        self._wrap(fun, "eta_r", "gaussian.eta_r")
        self._wrap(fft.CountsFftCache, "get", "fftconv.CountsFftCache.get",
                   before=self._before_fft_get)
        self._wrap(fastband.linalg.BandwidthMatrix, "__init__", "linalg.BandwidthMatrix")
        self._wrap(fastband.mixtures, "sample_mixture", "mixtures.sample_mixture")
        self._wrap_nelder_mead()

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Self seconds per (root, span name): duration minus child spans."""
        child = [0.0] * len(self.spans)
        roots = [None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            roots[i] = name if parent < 0 else roots[parent]
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(Counter)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[roots[i]][name] += end - start - child[i]
        return out

    def write(self, path):
        """Save all spans as ``[name, start, end, parent]`` rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans],
            }, fh, separators=(",", ":"))
