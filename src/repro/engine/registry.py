"""Unified codec registry: one lookup for every dataset-level compressor.

TAC and the three baselines all share the same call shape —
``compress(dataset, error_bound, mode, ...) -> CompressedDataset`` and
``decompress(comp, structure=None, ...) -> AMRDataset`` — but before this
module existed, every consumer (the CLI, the experiment harness, the
examples) hand-rolled its own name→compressor map, and each map drifted:
the CLI said ``"1d"`` where the experiments said ``"baseline_1d"``.

The registry is the single source of truth:

* :func:`register` binds a canonical name (plus aliases) to a codec
  factory; it also doubles as a class decorator for user codecs;
* :func:`get_codec` builds a fresh codec instance from any name or alias;
* :func:`codec_for_method` resolves the ``method`` string recorded inside
  a stored archive back to a codec that can decompress it.

Factories — not instances — are registered so every lookup yields an
independent codec (compressors carry per-instance config and must be safe
to hand to worker threads).  The built-in codecs are registered at import
time.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from repro.amr.hierarchy import AMRDataset
from repro.baselines import Naive1DCompressor, Uniform3DCompressor, ZMeshCompressor
from repro.core.container import CompressedDataset
from repro.core.tac import TACCompressor, TACConfig


@runtime_checkable
class Codec(Protocol):
    """Structural interface every registered compressor satisfies."""

    method_name: str

    def compress(
        self, dataset: AMRDataset, error_bound: float, mode: str = "rel", **kwargs
    ) -> CompressedDataset: ...

    def decompress(self, comp: CompressedDataset, **kwargs) -> AMRDataset: ...


@runtime_checkable
class PartialCodec(Codec, Protocol):
    """Codecs whose read path is the plan/assemble hook pair.

    A codec writes two hooks — ``build_decode_plan`` (the decode units a
    box of some levels needs, already pruned to the box) and ``assemble``
    (unit results → exactly that box of one level) — plus ``codec_for``
    (the codec whose hooks read a given blob: itself, unless the blob
    records a delegation).  :class:`repro.core.plan.PlanExecutorMixin`
    derives ``decompress`` and the three partial reads from the pair, and
    the read service (:class:`repro.serve.ArchiveReader`) drives the same
    pair with its cache and prefetch pipeline in between.  All built-ins
    qualify; consumers (``repro decompress --level`` / ``--region``)
    feature-detect with :func:`supports_partial_decode` instead of
    assuming it.
    """

    def build_decode_plan(self, comp: CompressedDataset, levels=None, box=None): ...

    def assemble(self, comp: CompressedDataset, level: int, results: dict, structure, box): ...

    def codec_for(self, comp: CompressedDataset): ...

    def decompress_level(self, comp: CompressedDataset, level: int, structure=None): ...

    def decompress_levels(self, comp: CompressedDataset, levels, structure=None): ...

    def decompress_region(
        self, comp: CompressedDataset, level: int, region, structure=None
    ): ...


def supports_partial_decode(codec) -> bool:
    """Whether ``codec`` exposes the partial-decompression surface."""
    return isinstance(codec, PartialCodec)


def supports_kwarg(call, name: str) -> bool:
    """Whether ``call`` accepts keyword argument ``name``.

    Capability detection for optional encoder keywords (``want_recon``):
    any registered codec that grows the keyword gets it forwarded — no
    isinstance special-cases against built-in classes.
    """
    try:
        signature = inspect.signature(call)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if parameter.name == name and parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


@dataclass(frozen=True)
class CodecSpec:
    """One registry entry: how to build a codec and how to find it.

    Attributes
    ----------
    name:
        Canonical registry name (the CLI spelling, e.g. ``"1d"``).
    factory:
        Zero-or-keyword-argument callable returning a fresh codec.
    method_name:
        The ``method`` string this codec records in its archives (what
        :func:`codec_for_method` matches against).
    aliases:
        Alternate lookup names (e.g. the experiments' ``"baseline_1d"``).
    description:
        One-line summary for ``repro batch --help`` style listings.
    config_cls:
        Optional config dataclass whose fields define the codec's valid
        keyword options (what :func:`config_schema` enumerates and
        :func:`validate_codec_options` checks against).  Codecs whose
        factory signature is directly enumerable don't need one.
    """

    name: str
    factory: Callable[..., Codec]
    method_name: str
    aliases: tuple[str, ...] = ()
    description: str = ""
    config_cls: type | None = None


_SPECS: dict[str, CodecSpec] = {}
#: Every accepted spelling (canonical names and aliases) → canonical name.
_LOOKUP: dict[str, str] = {}


def register(
    name: str,
    factory: Callable[..., Codec] | None = None,
    *,
    method_name: str | None = None,
    aliases: tuple[str, ...] | list[str] = (),
    description: str = "",
    config_cls: type | None = None,
):
    """Register a codec factory under ``name`` (and ``aliases``).

    Usable directly (``register("1d", Naive1DCompressor)``) or as a class
    decorator::

        @register("npz", description="lossless npz fallback")
        class NpzCodec: ...

    ``method_name`` defaults to the factory's ``method_name`` attribute
    (every codec class in this package carries one); it is what stored
    archives record, so :func:`codec_for_method` can route decompression.
    Re-registering an existing spelling raises.
    """

    def _do_register(fac: Callable[..., Codec]) -> Callable[..., Codec]:
        resolved_method = method_name or getattr(fac, "method_name", None)
        if not resolved_method:
            raise ValueError(
                f"codec {name!r} needs a method_name (none given and the "
                "factory has no method_name attribute)"
            )
        spec = CodecSpec(
            name=name,
            factory=fac,
            method_name=resolved_method,
            aliases=tuple(aliases),
            description=description,
            config_cls=config_cls,
        )
        spellings = (name, *spec.aliases)
        for spelling in spellings:
            claimed = _LOOKUP.get(spelling)
            if claimed is not None:
                raise ValueError(f"codec name {spelling!r} already registered (by {claimed!r})")
        _SPECS[name] = spec
        for spelling in spellings:
            _LOOKUP[spelling] = name
        return fac

    if factory is None:
        return _do_register
    return _do_register(factory)


def get_spec(name: str) -> CodecSpec:
    """The :class:`CodecSpec` for any registered spelling of ``name``."""
    canonical = _LOOKUP.get(name)
    if canonical is None:
        raise KeyError(
            f"unknown codec {name!r}; registered: {codec_names(include_aliases=True)}"
        )
    return _SPECS[canonical]


def get_codec(name: str, **options) -> Codec:
    """Build a fresh codec instance from any registered spelling.

    Keyword ``options`` are forwarded to the factory (e.g.
    ``get_codec("tac", unit_block=8)``).
    """
    return get_spec(name).factory(**options)


def config_schema(name: str) -> dict[str, dict] | None:
    """The enumerable option schema for codec ``name``, if there is one.

    Maps option name → ``{"type": ..., "default": ...}`` (either key may
    be absent when the source carries no annotation/default).  Derived
    from the spec's ``config_cls`` dataclass when registered, else from
    the factory's signature.  Returns ``None`` when the options are not
    enumerable (a bare ``**kwargs`` factory with no config class) — in
    that case validation is necessarily permissive.
    """
    spec = get_spec(name)
    if spec.config_cls is not None and dataclasses.is_dataclass(spec.config_cls):
        schema: dict[str, dict] = {}
        for fld in dataclasses.fields(spec.config_cls):
            row: dict = {"type": str(fld.type)}
            if fld.default is not dataclasses.MISSING:
                row["default"] = fld.default
            elif fld.default_factory is not dataclasses.MISSING:
                row["default"] = fld.default_factory()
            schema[fld.name] = row
        return schema
    try:
        signature = inspect.signature(spec.factory)
    except (TypeError, ValueError):
        return None
    schema = {}
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.VAR_KEYWORD,
            inspect.Parameter.VAR_POSITIONAL,
        ):
            return None
        if parameter.name in ("self", "config"):
            continue
        row = {}
        if parameter.annotation is not inspect.Parameter.empty:
            row["type"] = str(parameter.annotation)
        if parameter.default is not inspect.Parameter.empty:
            row["default"] = parameter.default
        schema[parameter.name] = row
    return schema


def validate_codec_options(name: str, options: dict | None) -> dict:
    """A validated deep copy of ``options`` for codec ``name``.

    Unknown keys fail loudly *here* — at session/CLI construction time —
    instead of as a ``TypeError`` deep inside a worker once the first job
    runs.  The deep copy severs shared-by-reference option dicts, so a
    caller (or retry logic) mutating its dict after submission cannot
    reconfigure in-flight jobs.  Codecs without an enumerable schema skip
    the key check but still get the copy.
    """
    options = copy.deepcopy(dict(options or {}))
    schema = config_schema(name)
    if schema is None:
        return options
    unknown = sorted(set(options) - set(schema))
    if unknown:
        raise ValueError(
            f"unknown option(s) {', '.join(map(repr, unknown))} for codec "
            f"{name!r}; valid options: {', '.join(sorted(schema))}"
        )
    return options


def codec_names(include_aliases: bool = False) -> list[str]:
    """Sorted canonical names (optionally with every accepted alias)."""
    if include_aliases:
        return sorted(_LOOKUP)
    return sorted(_SPECS)


def all_specs() -> list[CodecSpec]:
    """Every registered spec, sorted by canonical name."""
    return [_SPECS[name] for name in sorted(_SPECS)]


def codec_for_method(method: str, **options) -> Codec:
    """A codec able to decompress an archive recorded with ``method``.

    When several codecs share a ``method_name`` (the hybrid TAC also
    writes ``"tac"``), the earliest-registered one wins — archives do not
    record configuration, only the format, and any codec of that format
    can read it.
    """
    for spec in _SPECS.values():
        if spec.method_name == method:
            return spec.factory(**options)
    raise KeyError(
        f"no registered codec produces method {method!r}; "
        f"known methods: {sorted({s.method_name for s in _SPECS.values()})}"
    )


def _tac_hybrid_factory(**options) -> TACCompressor:
    """TAC with the §4.4 dataset-scope 3D-baseline fallback enabled."""
    options.setdefault("adaptive_baseline", True)
    return TACCompressor(TACConfig(**options))


# -- built-ins ------------------------------------------------------------
# Canonical names follow the CLI spelling; aliases cover the method names
# recorded in archives and the experiment harness's historical keys.
register(
    "tac",
    TACCompressor,
    description="TAC hybrid level-wise compressor (OpST/AKDTree/GSP + SZ)",
    config_cls=TACConfig,
)
register(
    "tac-hybrid",
    _tac_hybrid_factory,
    method_name="tac",
    description="TAC with the adaptive 3D-baseline fallback (paper §4.4)",
    config_cls=TACConfig,
)
register(
    "1d",
    Naive1DCompressor,
    aliases=("baseline_1d", "naive1d"),
    description="per-level 1D baseline (paper §2.3.1)",
)
register(
    "zmesh",
    ZMeshCompressor,
    description="zMesh level-interleaved reordering baseline [Luo'21]",
)
register(
    "3d",
    Uniform3DCompressor,
    aliases=("baseline_3d", "uniform3d"),
    description="up-sample + merge 3D baseline (paper §2.3.2)",
)
