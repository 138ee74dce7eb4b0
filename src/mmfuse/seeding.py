"""Seeded random number generation.

Every stochastic operation in this package takes an explicit
``numpy.random.Generator``; there is no module-level or ambient randomness.
The fixed bit generator is PCG64, whose output for a given seed is stable
across platforms and numpy releases.

Derived streams (per item, per operation, per experiment) use the documented
rule ``child = (base_seed XOR index) & (2**64 - 1)``; the child seed is then
run through numpy's SeedSequence, so nearby seeds still yield independent
streams.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-standard generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def derive_seed(base_seed: int, index: int) -> int:
    """Child seed for stream ``index`` under ``base_seed`` (XOR rule)."""
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return (base_seed ^ index) & _MASK64
