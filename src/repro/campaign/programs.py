"""Declarative application registry for campaign runs.

Worker processes can't receive closures, so a :class:`~.spec.RunSpec`
names its program declaratively: an ``app`` id plus JSON-scalar
``app_args``.  This module maps those back to the package's program
factories.  Every app accepts a ``config`` argument naming a canonical
problem set plus per-field overrides applied with
:func:`dataclasses.replace` — e.g. ``("lammps", {"config": "ljs",
"steps": 2})`` is the LJS problem cut to two timesteps.  An override
must fit its field's type, so it is refused before a machine is built
rather than bent into another value or left to crash a rank mid-run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional, get_type_hints

from ..apps import (
    CG_CLASS_A,
    CG_CLASS_B,
    FT_CLASS_A,
    FT_CLASS_W,
    IS_CLASS_A,
    IS_CLASS_S,
    LJS,
    MEMBRANE,
    MG_CLASS_A,
    MG_CLASS_S,
    SWEEP150,
    Sweep3dConfig,
    cg_program,
    ft_program,
    is_program,
    lammps_program,
    mg_program,
    sweep3d_program,
)
from ..errors import ConfigurationError
from ..microbench.pingpong import default_repetitions, pingpong_program


#: Field type -> (the JSON value types it takes, their name in an error).
_FIELD_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a boolean"),
    str: ((str,), "a string"),
}


def _typed(name: str, value: Any, kind: type = int) -> Any:
    """``value`` if it fits an argument of type ``kind``, else a named
    :class:`~repro.errors.ConfigurationError`.

    A bare ``int()``, or :func:`dataclasses.replace` with no check, would
    run ``1.5`` or ``true`` as a valid count under a key of its own, or
    crash a rank mid-run.  A bool is an ``int`` to Python, so only a bool
    argument takes one.  :class:`~.spec.RunSpec` already turns integral
    floats into ints, so no valid spec is refused here.
    """
    allowed, wanted = _FIELD_TYPES.get(kind, ((), kind.__name__))
    if isinstance(value, bool) is not (kind is bool) or not isinstance(
        value, allowed
    ):
        raise ConfigurationError(
            f"app argument {name} must be {wanted}, got {value!r}"
        )
    return value


def _override(config: Any, args: Dict[str, Any]) -> Any:
    """``config`` with ``args`` applied, each checked against the type of
    the field it sets."""
    if not args:
        return config
    valid = {f.name for f in dataclasses.fields(config)}
    bad = set(args) - valid
    if bad:
        raise ConfigurationError(
            f"unknown app arguments {sorted(bad)}; "
            f"valid fields: {sorted(valid)}"
        )
    types = get_type_hints(type(config))
    for name, value in sorted(args.items()):
        _typed(name, value, types[name])
    return dataclasses.replace(config, **args)


def _configured(factory: Callable, presets: Dict[str, Any], default: str):
    """App builder: pick a preset config by name, apply field overrides."""

    def build(args: Dict[str, Any]) -> Callable:
        args = dict(args)
        name = args.pop("config", default)
        if name not in presets:
            raise ConfigurationError(
                f"unknown config {name!r}; expected one of {sorted(presets)}"
            )
        return factory(_override(presets[name], args))

    return build


def _build_sweep3d(args: Dict[str, Any]) -> Callable:
    # Sweep3D is usually addressed by grid size directly ({"n": 100});
    # config presets still work ({"config": "sweep150"}).
    args = dict(args)
    name = args.pop("config", None)
    if name is not None and name != "sweep150":
        raise ConfigurationError(
            f"unknown config {name!r}; expected 'sweep150'"
        )
    if name:
        base = SWEEP150
    else:
        base = Sweep3dConfig(n=_typed("n", args.pop("n", SWEEP150.n)))
    return sweep3d_program(_override(base, args))


def _build_pingpong(args: Dict[str, Any]) -> Callable:
    args = dict(args)
    size = _typed("size", args.pop("size", 0))
    reps = args.pop("repetitions", None)
    warmup = args.pop("warmup", None)
    if args:
        raise ConfigurationError(
            f"unknown app arguments {sorted(args)}; "
            "valid: size, repetitions, warmup"
        )
    reps = (
        _typed("repetitions", reps)
        if reps is not None
        else default_repetitions(size)
    )
    if warmup is not None:
        return pingpong_program(size, reps, warmup=_typed("warmup", warmup))
    return pingpong_program(size, reps)


#: app id -> builder(app_args dict) -> program factory result.
APPS: Dict[str, Callable[[Dict[str, Any]], Callable]] = {
    "lammps": _configured(
        lammps_program, {"ljs": LJS, "membrane": MEMBRANE}, default="ljs"
    ),
    "sweep3d": _build_sweep3d,
    "cg": _configured(
        cg_program, {"A": CG_CLASS_A, "B": CG_CLASS_B}, default="A"
    ),
    "ft": _configured(
        ft_program, {"A": FT_CLASS_A, "W": FT_CLASS_W}, default="A"
    ),
    "mg": _configured(
        mg_program, {"A": MG_CLASS_A, "S": MG_CLASS_S}, default="A"
    ),
    "is": _configured(
        is_program, {"A": IS_CLASS_A, "S": IS_CLASS_S}, default="A"
    ),
    "pingpong": _build_pingpong,
}


def build_program(app: str, app_args: Optional[Dict[str, Any]] = None) -> Callable:
    """A fresh per-rank program for one declarative (app, app_args) pair."""
    if app not in APPS:
        raise ConfigurationError(
            f"unknown app {app!r}; known apps: {sorted(APPS)}"
        )
    return APPS[app](dict(app_args or {}))
