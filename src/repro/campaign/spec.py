"""Declarative campaign cells.

A :class:`CellSpec` is the unit of work of the experiments layer: one
fully-described simulation whose result is a pure
function of the spec and the simulator source.  Specs are frozen and
hashable, serialize to canonical JSON, and therefore support
content-addressed caching (see :mod:`repro.campaign.cache`) and
process-pool execution (see :mod:`repro.campaign.engine`).

Cell kinds and their payloads:

``parsec``
    Closed-loop CMP run of one PARSEC-profile benchmark under one
    scheme → :class:`~repro.campaign.runner.RunRecord`.
``synthetic``
    Open-loop synthetic-traffic point → ``RunRecord``.
``synthetic_metrics``
    Synthetic point returning the extended metrics dict used by the
    ablations and the NoRD comparison (off-fraction, wake events,
    detours, ..., and the measurement window's ``activity`` record,
    which the reader prices at whatever power constants it needs).
``reliability``
    One Monte-Carlo reliability trial: a fault schedule sampled from
    the cell's seed (see ``repro.noc.faults.sample_fault_schedule``)
    injected into a reroute-capable network under synthetic traffic,
    with strict invariants and the deadlock watchdog armed → outcome
    dict (delivered/dropped/refused counts, ``deadlocked`` flag, the
    sampled fault spec string, retry/reroute counters).
``guarantees``
    One bound-validation run: a fault-free synthetic run with a
    :class:`repro.guarantees.BoundChecker` on the delivery stream →
    tightness dict (checked/violation counts, worst observed/bound
    ratio with decomposition, exact latency quantiles, the bound
    model's parameters).  ``extras: strict`` selects raise-on-first
    enforcement instead of violation accounting.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional, Sequence, Tuple, Union

from ..noc import NoCConfig

#: The per-core instruction budget of the documented PARSEC runs
#: (EXPERIMENTS.md): every default points here, so the documented run
#: and the default run are the same.
CANONICAL_INSTRUCTIONS = 2000

#: Sorted, hashable ``(key, value)`` pairs — the wire form of every
#: mapping-valued spec field.
Items = Tuple[Tuple[str, object], ...]

ItemsLike = Union[None, Items, Mapping[str, object], Sequence[Tuple[str, object]]]

CELL_KINDS = (
    "parsec",
    "synthetic",
    "synthetic_metrics",
    "reliability",
    "guarantees",
)


def freeze_items(mapping: ItemsLike) -> Items:
    """Normalize a mapping (or pair sequence) to sorted item tuples."""
    if not mapping:
        return ()
    pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
    return tuple(sorted((str(k), v) for k, v in pairs))


def _config_items(config: Optional[NoCConfig]) -> Items:
    return () if config is None else config.to_items()


@dataclass(frozen=True)
class CellSpec:
    """One frozen, hashable unit of campaign work."""

    kind: str
    #: Benchmark name (parsec) or traffic pattern (every other kind).
    workload: str
    scheme: str = "-"
    #: Constructor kwargs for the scheme, as sorted items.
    scheme_kwargs: Items = ()
    #: Post-construction attribute overrides (ablations toggle
    #: ``slack2``/``use_forewarning`` this way), as sorted items.
    scheme_attrs: Items = ()
    #: Non-default :class:`NoCConfig` fields, as sorted items.
    config: Items = ()
    seed: int = 1
    #: Per-core instruction budget (parsec cells only).
    instructions: int = CANONICAL_INSTRUCTIONS
    #: Synthetic-traffic parameters (ignored by parsec cells).
    injection_rate: float = 0.0
    warmup: int = 1000
    measurement: int = 6000
    drain: bool = False
    #: Kind-specific extension point (e.g. the reliability sampler's
    #: parameters), as sorted items.
    extras: Items = ()

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; one of {CELL_KINDS}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def parsec(
        cls,
        benchmark: str,
        scheme: str,
        *,
        instructions: int = CANONICAL_INSTRUCTIONS,
        seed: int = 1,
        config: Optional[NoCConfig] = None,
        scheme_kwargs: ItemsLike = None,
        scheme_attrs: ItemsLike = None,
    ) -> "CellSpec":
        """A closed-loop PARSEC-profile cell."""
        return cls(
            kind="parsec",
            workload=benchmark,
            scheme=scheme,
            scheme_kwargs=freeze_items(scheme_kwargs),
            scheme_attrs=freeze_items(scheme_attrs),
            config=_config_items(config),
            seed=seed,
            instructions=instructions,
        )

    @classmethod
    def synthetic(
        cls,
        pattern: str,
        injection_rate: float,
        scheme: str,
        *,
        warmup: int = 1000,
        measurement: int = 6000,
        seed: int = 7,
        drain: bool = True,
        config: Optional[NoCConfig] = None,
        scheme_kwargs: ItemsLike = None,
        scheme_attrs: ItemsLike = None,
        metrics: bool = False,
    ) -> "CellSpec":
        """An open-loop synthetic-traffic cell.

        ``metrics=True`` selects the extended metrics payload instead
        of a :class:`RunRecord`.
        """
        return cls(
            kind="synthetic_metrics" if metrics else "synthetic",
            workload=pattern,
            scheme=scheme,
            scheme_kwargs=freeze_items(scheme_kwargs),
            scheme_attrs=freeze_items(scheme_attrs),
            config=_config_items(config),
            seed=seed,
            injection_rate=injection_rate,
            warmup=warmup,
            measurement=measurement,
            drain=drain,
        )

    @classmethod
    def reliability(
        cls,
        sample_seed: int,
        *,
        pattern: str = "uniform_random",
        injection_rate: float = 0.02,
        scheme: str = "PowerPunch-PG",
        warmup: int = 500,
        measurement: int = 4000,
        config: Optional[NoCConfig] = None,
        max_faults: int = 2,
        horizon: int = 2000,
        watchdog: int = 50_000,
        scheme_kwargs: ItemsLike = None,
    ) -> "CellSpec":
        """One Monte-Carlo reliability trial.

        ``sample_seed`` drives both the fault-schedule sampler and the
        traffic generator, so the trial is a pure function of the spec;
        ``max_faults``/``horizon`` parameterize the sampler and
        ``watchdog`` bounds the deadlock detector.  ``scheme="-"``
        runs without power gating (structural faults only).
        """
        return cls(
            kind="reliability",
            workload=pattern,
            scheme=scheme,
            scheme_kwargs=freeze_items(scheme_kwargs),
            seed=sample_seed,
            injection_rate=injection_rate,
            warmup=warmup,
            measurement=measurement,
            config=_config_items(config),
            extras=freeze_items(
                {
                    "max_faults": max_faults,
                    "horizon": horizon,
                    "watchdog": watchdog,
                }
            ),
        )

    @classmethod
    def guarantees(
        cls,
        pattern: str,
        injection_rate: float,
        scheme: str,
        *,
        warmup: int = 500,
        measurement: int = 2000,
        seed: int = 7,
        drain: bool = True,
        config: Optional[NoCConfig] = None,
        scheme_kwargs: ItemsLike = None,
        strict: bool = False,
    ) -> "CellSpec":
        """One latency-bound validation run.

        A fault-free synthetic run whose delivery stream is checked
        against the analytical per-route bounds.  ``strict=True``
        raises on the first violating packet (the enforcement
        acceptance scenario); the default records violations into the
        payload so tightness campaigns report them as data.
        ``scheme="-"`` runs the always-on baseline.
        """
        return cls(
            kind="guarantees",
            workload=pattern,
            scheme=scheme,
            scheme_kwargs=freeze_items(scheme_kwargs),
            config=_config_items(config),
            seed=seed,
            injection_rate=injection_rate,
            warmup=warmup,
            measurement=measurement,
            drain=drain,
            extras=freeze_items({"strict": strict}),
        )

    # ------------------------------------------------------------------
    # Canonical form / cache key
    # ------------------------------------------------------------------
    def build_config(self) -> NoCConfig:
        """Materialize this cell's :class:`NoCConfig`."""
        return NoCConfig.from_items(self.config)

    def with_config_overrides(self, overrides: ItemsLike) -> "CellSpec":
        """This cell with ``overrides`` laid over its config items.

        An override wins over the cell's own value.  The merged items
        go through :class:`NoCConfig`, so an invalid combination fails
        here — before the cell is hashed or run — and an override equal
        to the field default leaves the content address unchanged.
        """
        if not overrides:
            return self
        merged = {**dict(self.config), **dict(freeze_items(overrides))}
        return replace(self, config=NoCConfig(**merged).to_items())

    def canonical(self) -> dict:
        """All fields as a deterministic JSON-ready dict."""
        doc = {}
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = [list(pair) for pair in value]
            doc[name] = value
        return doc

    @classmethod
    def from_canonical(cls, doc: Mapping[str, object]) -> "CellSpec":
        """Rebuild a spec from :meth:`canonical` output (or its JSON).

        The exact inverse of :meth:`canonical`: item-valued fields come
        back as sorted tuples, so ``from_canonical(json.loads(
        spec.canonical_json()))`` equals ``spec`` (and hashes to the
        same cache key).  This is the wire form of the campaign
        service — specs travel between orchestrator and worker hosts
        as canonical JSON.
        """
        kwargs = {}
        item_fields = {"scheme_kwargs", "scheme_attrs", "config", "extras"}
        for name in _FIELD_NAMES:
            if name not in doc:
                continue
            value = doc[name]
            if name in item_fields:
                value = freeze_items(value)  # type: ignore[arg-type]
            kwargs[name] = value
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return _encode_canonical(self.canonical())

    def cache_key(self, salt: str) -> str:
        """Content address: hash of the code salt, a NUL and the
        canonical spec."""
        return hashlib.sha256(
            f"{salt}\x00{self.canonical_json()}".encode("utf-8")
        ).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable identity for logs."""
        work = self.workload
        if self.kind in ("synthetic", "synthetic_metrics"):
            work = f"{self.workload}@{self.injection_rate:g}"
        return f"{self.kind}:{work}:{self.scheme}:s{self.seed}"


#: Field names in declaration order and the canonical-JSON encoder, both
#: built once: ``canonical()`` and ``canonical_json()`` run for every cell
#: of every campaign.
_FIELD_NAMES = tuple(f.name for f in fields(CellSpec))
_encode_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
