"""Wire schema v1: versioned JSON encoding of run and grid submissions.

This is the frozen contract shared by ``repro serve`` (the server),
:class:`repro.client.SweepClient`, and the CLI: a :class:`~repro.sim.spec.
RunSpec` encoded here, shipped over HTTP, and decoded on the other side
produces **byte-identical result-store keys** to a spec built locally — so
remote submissions and ``repro sweep`` interchange results freely.

Schema rules (v1):

* Every payload carries ``"v": 1``. A missing or different version is
  rejected (:class:`WireError`), never guessed at.
* Unknown top-level keys are rejected with an error naming the offending
  field (and the closest known spelling) — a typo'd ``num_opss`` must fail
  loudly at the submission boundary, not silently mean "the default".
* The one forward-compatibility escape hatch is ``"ext"``: a dict that v1
  readers carry along and ignore, so future writers can attach data
  without breaking deployed readers. Anything that must *change meaning*
  bumps ``v``.
* Payloads are sparse: fields at their default are omitted by writers and
  defaulted by readers, so the wire form stays small and stable.

Only *wire-encodable* specs are accepted: registry-named workloads and
predictors, no probe instances, no branch-predictor overrides. Host-local
execution detail (``trace_dir``) never crosses the wire — the server
applies its own artifact stores. Identity (``RunSpec.key()``) survives the
round trip exactly; see ``docs/server.md`` for the full field table.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import GENERATIONS, CoreConfig
from repro.isa.microop import OpKind
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.spec import RunSpec, build_cells
from repro.workloads.generator import WorkloadProfile

#: The wire-format version this build speaks. Bump only on an incompatible
#: change of meaning; additive data rides in ``"ext"``.
WIRE_VERSION = 1


class WireError(ValueError):
    """A payload (or spec) that cannot cross the wire, with the field named.

    ``field`` is the offending field path (``"predictor"``,
    ``"config.hierarchy.l1d.ways"``); ``value`` the rejected value;
    ``choices`` the valid alternatives when they are enumerable. The
    server renders :meth:`to_payload` as the body of a structured 422.
    """

    def __init__(
        self,
        message: str,
        field: Optional[str] = None,
        value: object = None,
        choices: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(message)
        self.field = field
        self.value = value
        self.choices = tuple(choices) if choices is not None else None

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"message": str(self)}
        if self.field is not None:
            payload["field"] = self.field
        if self.value is not None:
            payload["value"] = repr(self.value)
        if self.choices is not None:
            payload["choices"] = list(self.choices)
        return payload


def _reject_unknown_keys(
    payload: Mapping[str, object], known: Sequence[str], where: str
) -> None:
    unknown = sorted(set(payload) - set(known))
    if not unknown:
        return
    hints = []
    for key in unknown:
        close = difflib.get_close_matches(key, known, n=1)
        hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
    raise WireError(
        f"unknown {where} field(s): {', '.join(hints)}; v{WIRE_VERSION} "
        "readers reject unrecognised keys — put forward-compatible data "
        "under 'ext'",
        field=unknown[0],
    )


def _check_version(payload: Mapping[str, object], where: str) -> None:
    if "v" not in payload:
        raise WireError(f"{where} payload is missing the 'v' version field", field="v")
    version = payload["v"]
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported {where} wire version {version!r}; this build "
            f"speaks v{WIRE_VERSION}",
            field="v",
            value=version,
        )


def _typed(
    payload: Mapping[str, object],
    key: str,
    kinds: Tuple[type, ...],
    what: str,
    field: Optional[str] = None,
) -> object:
    value = payload.get(key)
    if value is None:
        return None
    # bool is an int subclass; an explicit check keeps `true` out of int slots.
    if isinstance(value, bool) and bool not in kinds:
        raise WireError(
            f"{key} must be {what}, got {value!r}", field=field or key, value=value
        )
    if not isinstance(value, kinds):
        raise WireError(
            f"{key} must be {what}, got {value!r}", field=field or key, value=value
        )
    return value


# ------------------------------------------------------------------ config --


def _opkind_map_to_wire(mapping: Mapping[OpKind, int]) -> Dict[str, int]:
    return {kind.value: int(count) for kind, count in sorted(
        mapping.items(), key=lambda item: item[0].value
    )}


def _opkind_map_from_wire(
    payload: object, field: str
) -> Dict[OpKind, int]:
    if not isinstance(payload, Mapping):
        raise WireError(f"{field} must be an object", field=field, value=payload)
    result: Dict[OpKind, int] = {}
    for name, count in payload.items():
        try:
            kind = OpKind(name)
        except ValueError:
            raise WireError(
                f"unknown op kind {name!r} in {field}",
                field=f"{field}.{name}",
                value=name,
                choices=[kind.value for kind in OpKind],
            ) from None
        if isinstance(count, bool) or not isinstance(count, int):
            raise WireError(
                f"{field}.{name} must be an integer, got {count!r}",
                field=f"{field}.{name}",
                value=count,
            )
        result[kind] = count
    return result


def _dataclass_from_wire(cls, payload: object, field: str):
    """Rebuild a flat frozen dataclass (CacheConfig) from a wire dict."""
    if not isinstance(payload, Mapping):
        raise WireError(f"{field} must be an object", field=field, value=payload)
    known = [f.name for f in fields(cls)]
    _reject_unknown_keys(payload, known, field)
    try:
        return cls(**dict(payload))
    except (TypeError, ValueError) as exc:
        raise WireError(f"invalid {field}: {exc}", field=field) from exc


def _hierarchy_to_wire(hierarchy: HierarchyConfig) -> Dict[str, object]:
    wire: Dict[str, object] = {}
    for spec_field in fields(HierarchyConfig):
        value = getattr(hierarchy, spec_field.name)
        if isinstance(value, CacheConfig):
            wire[spec_field.name] = {
                f.name: getattr(value, f.name) for f in fields(CacheConfig)
            }
        else:
            wire[spec_field.name] = value
    return wire


def _hierarchy_from_wire(payload: object, field: str) -> HierarchyConfig:
    if not isinstance(payload, Mapping):
        raise WireError(f"{field} must be an object", field=field, value=payload)
    known = [f.name for f in fields(HierarchyConfig)]
    _reject_unknown_keys(payload, known, field)
    kwargs: Dict[str, object] = {}
    for spec_field in fields(HierarchyConfig):
        if spec_field.name not in payload:
            continue
        value = payload[spec_field.name]
        if spec_field.name.startswith("l"):
            value = _dataclass_from_wire(
                CacheConfig, value, f"{field}.{spec_field.name}"
            )
        kwargs[spec_field.name] = value
    try:
        return HierarchyConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise WireError(f"invalid {field}: {exc}", field=field) from exc


#: CoreConfig fields that are plain scalars on the wire.
_CONFIG_SCALARS = tuple(
    f.name
    for f in fields(CoreConfig)
    if f.name not in ("latencies", "ports", "hierarchy")
)


def config_to_wire(config: Optional[CoreConfig]) -> Optional[object]:
    """Encode a core config: ``None``, a generation name, or a full dict.

    A config that *is* one of the :data:`~repro.core.config.GENERATIONS`
    presets (field-for-field) travels as its name — compact, and immune to
    field-set drift. Anything custom travels as the complete field dict, so
    the receiver rebuilds an equal ``CoreConfig`` and therefore an equal
    ``config_fingerprint`` (the store-key ingredient).
    """
    if config is None:
        return None
    preset = GENERATIONS.get(config.name)
    if preset is not None and preset == config:
        return config.name
    wire: Dict[str, object] = {name: getattr(config, name) for name in _CONFIG_SCALARS}
    wire["latencies"] = _opkind_map_to_wire(config.latencies)
    wire["ports"] = _opkind_map_to_wire(config.ports)
    wire["hierarchy"] = _hierarchy_to_wire(config.hierarchy)
    return wire


def config_from_wire(payload: object, field: str = "config") -> Optional[CoreConfig]:
    """Decode :func:`config_to_wire` output back to an equal ``CoreConfig``."""
    if payload is None:
        return None
    if isinstance(payload, str):
        preset = GENERATIONS.get(payload)
        if preset is None:
            raise WireError(
                f"unknown core generation {payload!r}",
                field=field,
                value=payload,
                choices=sorted(GENERATIONS),
            )
        return preset
    if not isinstance(payload, Mapping):
        raise WireError(
            f"{field} must be null, a generation name, or an object",
            field=field,
            value=payload,
        )
    known = list(_CONFIG_SCALARS) + ["latencies", "ports", "hierarchy"]
    _reject_unknown_keys(payload, known, field)
    kwargs: Dict[str, object] = {
        name: payload[name] for name in _CONFIG_SCALARS if name in payload
    }
    if "latencies" in payload:
        kwargs["latencies"] = _opkind_map_from_wire(
            payload["latencies"], f"{field}.latencies"
        )
    if "ports" in payload:
        kwargs["ports"] = _opkind_map_from_wire(payload["ports"], f"{field}.ports")
    if "hierarchy" in payload:
        kwargs["hierarchy"] = _hierarchy_from_wire(
            payload["hierarchy"], f"{field}.hierarchy"
        )
    try:
        return CoreConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise WireError(f"invalid {field}: {exc}", field=field) from exc


# -------------------------------------------------------------------- spec --

#: Top-level keys a v1 spec payload may carry.
SPEC_WIRE_KEYS = (
    "v",
    "workload",
    "predictor",
    "config",
    "num_ops",
    "warmup_ops",
    "seed",
    "check_invariants",
    "interval_ops",
    "backend",
    "ext",
)


def _wire_workload_name(spec: RunSpec) -> str:
    """The registry name a spec's workload travels as (or a WireError).

    Profile *instances* are accepted only when they are exactly the
    registered profile (the common ``workload(name)`` round trip); a
    customised or re-seeded instance has no wire identity — the seed
    override belongs on ``RunSpec.seed`` (which is what the store key
    reads) and custom profiles must be registered on the server side.
    """
    if isinstance(spec.workload, str):
        return spec.workload
    profile = spec.workload
    from repro.workloads.spec2017 import SPEC_PROFILES

    base = SPEC_PROFILES.get(profile.name)
    if base is None:
        raise WireError(
            f"workload profile {profile.name!r} is not a registered profile; "
            "wire v1 carries registry names only",
            field="workload",
            value=profile.name,
        )
    if replace(base, seed=profile.seed) != profile:
        raise WireError(
            f"workload profile {profile.name!r} was customised beyond its "
            "seed; wire v1 carries registry names only",
            field="workload",
            value=profile.name,
        )
    if profile.seed != base.seed and spec.seed is None:
        raise WireError(
            f"workload profile {profile.name!r} carries a non-default seed "
            f"({profile.seed}); put the override on RunSpec.seed so the "
            "store key and the wire form agree",
            field="seed",
            value=profile.seed,
        )
    return profile.name


def spec_to_wire(spec: RunSpec) -> Dict[str, object]:
    """Encode a :class:`RunSpec` as a v1 wire payload (sparse dict).

    Raises :class:`WireError` for specs that cannot cross a process
    boundary by name: predictor/branch-predictor instances, probe objects,
    customised workload profiles. ``trace_dir`` is host-local execution
    detail and is deliberately dropped — identity (``spec.key()``) is
    preserved exactly.
    """
    if not isinstance(spec.predictor, str):
        raise WireError(
            "predictor instances are not wire-encodable; register the "
            "factory (repro.api.register_predictor) and submit its name",
            field="predictor",
            value=spec.predictor_label,
        )
    if spec.probes:
        raise WireError(
            "probe instances are not wire-encodable; the server attaches "
            "its own heartbeat probes",
            field="probes",
        )
    if spec.branch_predictor is not None:
        raise WireError(
            "branch-predictor overrides are not wire-encodable",
            field="branch_predictor",
        )
    wire: Dict[str, object] = {
        "v": WIRE_VERSION,
        "workload": _wire_workload_name(spec),
        "predictor": spec.predictor,
    }
    if spec.config is not None:
        wire["config"] = config_to_wire(spec.config)
    for name in ("num_ops", "warmup_ops", "seed", "interval_ops"):
        value = getattr(spec, name)
        if value is not None:
            wire[name] = value
    if spec.check_invariants is not None:
        wire["check_invariants"] = spec.check_invariants
    if spec.backend is not None:
        wire["backend"] = spec.backend
    return wire


def spec_from_wire(payload: object) -> RunSpec:
    """Decode a v1 wire payload into a :class:`RunSpec`.

    Enforces the schema rules documented at module level: version pinning,
    unknown-key rejection (with a nearest-spelling hint), per-field type
    checks. Registry *name* validation (does this predictor exist?) is the
    submission boundary's job — :func:`repro.sim.spec.validate_names` —
    so the codec stays usable for offline round trips.
    """
    if not isinstance(payload, Mapping):
        raise WireError(f"spec payload must be an object, got {type(payload).__name__}")
    _check_version(payload, "spec")
    _reject_unknown_keys(payload, SPEC_WIRE_KEYS, "spec")
    workload = _typed(payload, "workload", (str,), "a workload name string")
    if not workload:
        raise WireError("spec payload is missing 'workload'", field="workload")
    predictor = _typed(payload, "predictor", (str,), "a predictor name string")
    if not predictor:
        raise WireError("spec payload is missing 'predictor'", field="predictor")
    ext = payload.get("ext")
    if ext is not None and not isinstance(ext, Mapping):
        raise WireError("ext must be an object", field="ext", value=ext)
    try:
        return RunSpec(
            workload=workload,
            predictor=predictor,
            config=config_from_wire(payload.get("config")),
            num_ops=_typed(payload, "num_ops", (int,), "an integer"),
            warmup_ops=_typed(payload, "warmup_ops", (int,), "an integer"),
            seed=_typed(payload, "seed", (int,), "an integer"),
            check_invariants=_typed(
                payload, "check_invariants", (bool,), "a boolean"
            ),
            interval_ops=_typed(payload, "interval_ops", (int,), "an integer"),
            backend=_typed(payload, "backend", (str,), "a backend name string"),
        )
    except ValueError as exc:
        if isinstance(exc, WireError):
            raise
        raise WireError(f"invalid spec: {exc}") from exc


# -------------------------------------------------------------------- grid --

#: Top-level keys a v1 grid payload may carry.
GRID_WIRE_KEYS = (
    "v",
    "workloads",
    "predictors",
    "config",
    "num_ops",
    "seed",
    "check_invariants",
    "backend",
    "ext",
)


@dataclass(frozen=True)
class WireGrid:
    """A decoded grid submission: the (workloads × predictors) population.

    ``num_ops=0`` keeps the established cell-key convention: "the default
    trace length at run time" (see :meth:`RunSpec.key`).
    """

    workloads: Tuple[str, ...]
    predictors: Tuple[str, ...]
    config: Optional[CoreConfig] = None
    num_ops: int = 0
    seed: Optional[int] = None
    check_invariants: bool = False
    backend: Optional[str] = None

    def specs(self) -> List[RunSpec]:
        """The grid expanded to one :class:`RunSpec` per cell, in grid order."""
        return build_cells(
            self.workloads,
            self.predictors,
            config=self.config,
            num_ops=self.num_ops,
            seed=self.seed,
            backend=self.backend,
        )


def _name_list(payload: Mapping[str, object], key: str) -> Tuple[str, ...]:
    value = payload.get(key)
    if (
        not isinstance(value, Sequence)
        or isinstance(value, (str, bytes))
        or not value
        or not all(isinstance(item, str) and item for item in value)
    ):
        raise WireError(
            f"{key} must be a non-empty list of name strings, got {value!r}",
            field=key,
            value=value,
        )
    return tuple(value)


def grid_to_wire(grid: WireGrid) -> Dict[str, object]:
    """Encode a :class:`WireGrid` as a v1 wire payload (sparse dict)."""
    wire: Dict[str, object] = {
        "v": WIRE_VERSION,
        "workloads": list(grid.workloads),
        "predictors": list(grid.predictors),
    }
    if grid.config is not None:
        wire["config"] = config_to_wire(grid.config)
    if grid.num_ops:
        wire["num_ops"] = grid.num_ops
    if grid.seed is not None:
        wire["seed"] = grid.seed
    if grid.check_invariants:
        wire["check_invariants"] = True
    if grid.backend is not None:
        wire["backend"] = grid.backend
    return wire


def grid_from_wire(payload: object) -> WireGrid:
    """Decode a v1 grid payload (same schema rules as :func:`spec_from_wire`)."""
    if not isinstance(payload, Mapping):
        raise WireError(f"grid payload must be an object, got {type(payload).__name__}")
    _check_version(payload, "grid")
    _reject_unknown_keys(payload, GRID_WIRE_KEYS, "grid")
    ext = payload.get("ext")
    if ext is not None and not isinstance(ext, Mapping):
        raise WireError("ext must be an object", field="ext", value=ext)
    num_ops = _typed(payload, "num_ops", (int,), "an integer")
    if num_ops is not None and num_ops < 0:
        raise WireError(
            f"num_ops must be >= 0, got {num_ops}", field="num_ops", value=num_ops
        )
    return WireGrid(
        workloads=_name_list(payload, "workloads"),
        predictors=_name_list(payload, "predictors"),
        config=config_from_wire(payload.get("config")),
        num_ops=num_ops or 0,
        seed=_typed(payload, "seed", (int,), "an integer"),
        check_invariants=bool(
            _typed(payload, "check_invariants", (bool,), "a boolean") or False
        ),
        backend=_typed(payload, "backend", (str,), "a backend name string"),
    )


def is_grid_payload(payload: Mapping[str, object]) -> bool:
    """Discriminate the two submission shapes (grids carry ``workloads``)."""
    return "workloads" in payload or "predictors" in payload


# ------------------------------------------------------------------ tenant --

#: The ``ext`` key the tenant convention rides under (see docs/api.md).
#: Carrying the tenant id in ``ext`` keeps it out of cell identity — two
#: tenants submitting the same grid share store keys — and needs no v2:
#: v1 readers that don't speak tenancy carry it along untouched.
EXT_TENANT_KEY = "tenant"


def attach_tenant(wire: Dict[str, object], tenant: str) -> Dict[str, object]:
    """Attach a tenant id to an encoded payload via the ``ext`` escape hatch.

    Mutates and returns ``wire``. An existing ``ext`` dict is preserved;
    only its ``tenant`` key is written.
    """
    if not isinstance(tenant, str) or not tenant:
        raise WireError(
            "tenant must be a non-empty string",
            field=f"ext.{EXT_TENANT_KEY}",
            value=tenant,
        )
    ext = wire.get("ext")
    if ext is None:
        ext = {}
        wire["ext"] = ext
    elif not isinstance(ext, dict):
        raise WireError("ext must be an object", field="ext", value=ext)
    ext[EXT_TENANT_KEY] = tenant
    return wire


def tenant_from_payload(payload: Mapping[str, object]) -> Optional[str]:
    """The tenant id riding in a payload's ``ext``, validated, or ``None``.

    Malformed shapes (``ext`` not an object, a non-string or empty tenant)
    raise :class:`WireError` rather than silently dropping attribution —
    a submission that *tries* to name a tenant must not sneak past that
    tenant's quota because of a type slip.
    """
    ext = payload.get("ext")
    if ext is None:
        return None
    if not isinstance(ext, Mapping):
        raise WireError("ext must be an object", field="ext", value=ext)
    tenant = ext.get(EXT_TENANT_KEY)
    if tenant is None:
        return None
    if not isinstance(tenant, str) or not tenant:
        raise WireError(
            "ext.tenant must be a non-empty string",
            field=f"ext.{EXT_TENANT_KEY}",
            value=tenant,
        )
    return tenant
