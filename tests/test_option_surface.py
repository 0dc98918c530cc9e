"""The settable values of the public configs and constructors, pinned.

Every option a caller can set is code to keep, document and test.  This
file names each settable value of the twelve surfaces below, and every
argument of every ``repro`` verb, so a new option shows up in review as a
one-line diff here.  The subject a call acts on (the dataset, the source,
the directory, the codec's name and factory) is not counted as an option.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import pytest

from repro.cli import build_parser
from repro.core.container import LazyCompressedDataset, make_source
from repro.core.tac import TACConfig
from repro.engine import LazyBatchArchive, default_shard_opener, register
from repro.ingest import IngestConfig, IngestSession
from repro.serve import ArchiveReader, RetryPolicy
from repro.sz import SZConfig

SUBJECTS = {"self", "source", "dataset", "fields", "base_dir", "name", "factory"}

CENSUS = [
    ("SZConfig", SZConfig, ["predictor"]),
    (
        "TACConfig",
        TACConfig,
        [
            "unit_block", "adaptive_baseline", "force_strategy", "pad_layers",
            "avg_layers", "brick_size", "store_masks", "sz",
        ],
    ),
    (
        "IngestConfig",
        IngestConfig,
        [
            "codec", "codec_options", "error_bound", "mode", "shard_size",
            "keyframe_interval", "workers",
        ],
    ),
    ("IngestSession.submit", IngestSession.submit, ["key"]),
    ("IngestSession.submit_step", IngestSession.submit_step, []),
    (
        "ArchiveReader",
        ArchiveReader,
        [
            "shard_opener", "verify_shards", "retry", "cache_bytes", "request_workers",
            "default_deadline", "degraded", "fill_value",
        ],
    ),
    ("LazyBatchArchive.open", LazyBatchArchive.open, ["shard_opener", "verify_shards"]),
    ("LazyCompressedDataset.open", LazyCompressedDataset.open, ["offset"]),
    ("default_shard_opener", default_shard_opener, []),
    ("make_source", make_source, []),
    ("RetryPolicy", RetryPolicy, ["attempts", "base_delay", "sleep"]),
    ("register", register, ["method_name", "aliases", "description", "config_cls"]),
]


def settable(surface) -> list[str]:
    """The names a caller can set on ``surface``, in declaration order."""
    if dataclasses.is_dataclass(surface):
        names = [f.name for f in dataclasses.fields(surface)]
    else:
        names = list(inspect.signature(surface).parameters)
    return [name for name in names if name not in SUBJECTS]


@pytest.mark.parametrize(
    "surface, expected", [row[1:] for row in CENSUS], ids=[row[0] for row in CENSUS]
)
def test_settable_values_are_pinned(surface, expected):
    assert settable(surface) == expected


def test_census_total():
    assert sum(len(settable(surface)) for _label, surface, _names in CENSUS) == 35


#: Each verb's arguments, positionals by name and options by their long
#: spelling, in declaration order (``--help`` not counted).
CLI_CENSUS = {
    "make": ["name", "--output", "--scale", "--field", "--seed"],
    "info": ["path"],
    "compress": [
        "path", "--output", "--eb", "--mode", "--method", "--level-scale", "--predictor",
        "--brick-size", "--profile",
    ],
    "decompress": ["path", "--output", "--key", "--level", "--region"],
    "inspect": ["path", "--key"],
    "batch": ["inputs", "--output", "--eb", "--mode", "--method", "--shard-size", "--workers"],
    "ingest": [
        "inputs", "--output", "--eb", "--mode", "--method", "--shard-size", "--workers",
        "--sim", "--steps", "--scale", "--field", "--seed", "--sigma-step", "--refresh-every",
        "--keyframe-interval",
    ],
    "serve": [
        "path", "--key", "--level", "--requests", "--rois", "--roi-frac", "--threads",
        "--cache-bytes", "--seed", "--json", "--chaos", "--chaos-seed", "--deadline",
        "--degraded",
    ],
    "scrub": ["path", "--key", "--json"],
    "codecs": ["--schema"],
    "lint": ["lint_args"],
    "experiments": ["names", "--scale", "--list"],
}


def cli_arguments() -> dict[str, list[str]]:
    """``verb -> its arguments`` as the ``repro`` parser declares them."""
    (verbs,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        verb: [
            action.option_strings[-1] if action.option_strings else action.dest
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for verb, parser in verbs.choices.items()
    }


@pytest.mark.parametrize("verb", list(CLI_CENSUS))
def test_cli_arguments_are_pinned(verb):
    assert cli_arguments()[verb] == CLI_CENSUS[verb]


def test_cli_census_total():
    surface = cli_arguments()
    assert list(surface) == list(CLI_CENSUS)
    assert len(surface) == 12 and sum(map(len, surface.values())) == 66
