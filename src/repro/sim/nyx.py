"""Synthetic Nyx cosmology snapshot fields.

Nyx dumps six fields per snapshot: baryon density, dark matter density,
temperature, and the three velocity components.  We synthesize all six with
the statistical properties that matter to an error-bounded compressor:

* **baryon density** — log-normal transform of the Gaussian contrast,
  ``ρ_b = ρ̄ exp(σ δ − σ²/2)``; heavy right tail, strictly positive, mean
  ``ρ̄ ≈ 1e9`` (Msun/Mpc³ scale), matching the 1e8–1e10 absolute error
  bounds the paper's Table 2 sweeps.
* **dark matter density** — log-normal of a field correlated with the
  baryons at 0.9.
* **temperature** — the IGM equation of state ``T = T0 (ρ/ρ̄)^(γ−1)`` with
  log-space scatter (T0 = 1e4 K, γ = 1.6).
* **velocities** — linear-theory flows from the same realization, RMS
  ~1e7 cm/s.

The clustering strength σ grows with cosmic time, which is how the
registry (:mod:`repro.sim.datasets`) makes later redshifts denser at the
fine level, as in the paper's Run 1.
"""

from __future__ import annotations

import numpy as np

from repro.sim.gaussian_field import FieldGenerator

#: Field names in Nyx plotfile order.
NYX_FIELDS = (
    "baryon_density",
    "dark_matter_density",
    "temperature",
    "velocity_x",
    "velocity_y",
    "velocity_z",
)

#: Physical scales (order-of-magnitude fidelity to Nyx outputs).
MEAN_BARYON_DENSITY = 1.0e9
MEAN_DM_DENSITY = 1.0e10
T0_KELVIN = 1.0e4
EOS_GAMMA = 1.6
VELOCITY_RMS = 1.0e7
DM_CORRELATION = 0.9


def lognormal_density(delta: np.ndarray, sigma: float, mean_density: float) -> np.ndarray:
    """Log-normal density with exact mean ``mean_density``.

    ``exp(σδ − σ²/2)`` has unit expectation for Gaussian unit-variance δ, so
    the mean density is preserved independent of clustering strength.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    return mean_density * np.exp(sigma * delta - 0.5 * sigma * sigma)


def generate_field(
    field: str,
    n: int,
    *,
    seed: int = 0,
    box_size: float = 64.0,
    sigma: float = 1.5,
    dtype=np.float32,
) -> np.ndarray:
    """Generate one Nyx field on an ``n^3`` grid (see module docstring)."""
    if field not in NYX_FIELDS:
        raise ValueError(f"unknown field {field!r}; choose from {NYX_FIELDS}")
    gen = FieldGenerator(n, box_size=box_size, seed=seed)
    if field == "baryon_density":
        out = lognormal_density(gen.delta(), sigma, MEAN_BARYON_DENSITY)
    elif field == "dark_matter_density":
        out = lognormal_density(gen.correlated_delta(DM_CORRELATION), sigma, MEAN_DM_DENSITY)
    elif field == "temperature":
        rho_ratio = np.exp(sigma * gen.delta() - 0.5 * sigma * sigma)
        rng = np.random.default_rng(seed + 7919)
        scatter = rng.normal(0.0, 0.1, rho_ratio.shape)
        out = T0_KELVIN * rho_ratio ** (EOS_GAMMA - 1.0) * np.exp(scatter)
    else:
        axis = {"velocity_x": 0, "velocity_y": 1, "velocity_z": 2}[field]
        out = gen.velocities(amplitude=VELOCITY_RMS)[axis]
    return np.ascontiguousarray(out, dtype=dtype)
