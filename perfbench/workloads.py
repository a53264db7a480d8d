"""Benchmark workloads: seeded sample pools and the selector settings they use.

Every sample is drawn from a catalog mixture through
``fastband.mixtures.sample_mixture``.  The benchmark's ``--seed`` feeds a
``SeedSequence`` that is split into one generator per sample, so a seed fixes
every input and the library only ever sees the generated arrays.
"""

from dataclasses import dataclass, field

import numpy as np

import fastband.mixtures
from fastband import SelectorConfig, mixture_catalog

# Set-up warms up with a selection on this fixed sample.
WARMUP_N = 300
WARMUP_SEED = 0
# The reference pool (one sample per mixture) is drawn from this fixed seed.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    """A pool of samples and the configuration every selection on it uses.

    The pool holds ``reps`` samples of size ``n`` from each catalog mixture
    in ``mixtures``.
    """

    name: str
    mixtures: tuple
    reps: int
    n: int
    config: dict = field(default_factory=dict)

    def selector_config(self, **overrides):
        return SelectorConfig(**{**self.config, **overrides})


@dataclass
class Sample:
    """One pool entry: the generating mixture, its name and the points."""

    label: str
    mixture: object
    x: np.ndarray


WORKLOADS = {
    w.name: w
    for w in (
        # The default user path: fft-L at grid 150, then a density.
        Workload(
            "fftL-2d",
            ("standard", "correlated", "bimodal", "asymmetric-bimodal", "trimodal"),
            reps=6, n=2000,
        ),
        # No binning and no FFT inside the selection: the O(n^2) exact sum.
        Workload(
            "exact-2d",
            ("correlated", "trimodal", "bimodal"),
            reps=5, n=150,
            config={"mode": "direct-exact"},
        ),
    )
}


def make_pool(workload, seed, reps=None):
    """Draw the workload's samples; the same seed gives the same arrays.

    ``reps`` overrides the workload's samples per mixture.
    """
    names = [m for m in workload.mixtures for _ in range(reps or workload.reps)]
    streams = np.random.SeedSequence(seed).spawn(len(names))
    pool = []
    for name, stream in zip(names, streams):
        mix = mixture_catalog(name)
        x = fastband.mixtures.sample_mixture(mix, workload.n, np.random.default_rng(stream))
        pool.append(Sample(name, mix, x))
    return pool


def warmup_sample(workload):
    """The fixed sample that set-up selects on once."""
    mix = mixture_catalog(workload.mixtures[0])
    return fastband.mixtures.sample_mixture(mix, WARMUP_N, np.random.default_rng(WARMUP_SEED))


def reference_pool(workload):
    """One sample per mixture, at the workload's size, from a fixed seed."""
    return [Sample(f"reference {s.label}", s.mixture, s.x)
            for s in make_pool(workload, REFERENCE_SEED, reps=1)]
