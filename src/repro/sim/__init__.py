"""Synthetic Nyx cosmology substrate: fields, refinement, dataset registry."""

from repro.sim.datasets import DATASET_NAMES, TABLE1, DatasetSpec, make_dataset
from repro.sim.gaussian_field import FieldGenerator
from repro.sim.nyx import NYX_FIELDS, generate_field, lognormal_density
from repro.sim.refinement import build_amr
from repro.sim.timesteps import make_timestep_series

__all__ = [
    "make_timestep_series",
    "FieldGenerator",
    "NYX_FIELDS",
    "generate_field",
    "lognormal_density",
    "build_amr",
    "make_dataset",
    "DatasetSpec",
    "TABLE1",
    "DATASET_NAMES",
]
