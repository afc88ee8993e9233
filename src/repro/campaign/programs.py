"""Declarative application registry for campaign runs.

Worker processes can't receive closures, so a :class:`~.spec.RunSpec`
names its program declaratively: an ``app`` id plus JSON-scalar
``app_args``.  This module maps those back to the package's program
factories.  Every app accepts a ``config`` argument naming a canonical
problem set plus per-field overrides applied with
:func:`dataclasses.replace` — e.g. ``("lammps", {"config": "ljs",
"steps": 2})`` is the LJS problem cut to two timesteps.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional

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


def _int_arg(name: str, value: Any) -> int:
    """``value`` if it is an ``int`` (not a ``bool``), else a named error.

    A bare ``int()`` would bend ``1.5`` or ``true`` into a valid size and
    run it under a key of its own.  :class:`~.spec.RunSpec` already turns
    integral floats into ints, so no valid spec is refused here.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"app argument {name} must be an integer, got {value!r}"
        )
    return value


def _configured(factory: Callable, presets: Dict[str, Any], default: str):
    """App builder: pick a preset config by name, apply field overrides."""

    def build(args: Dict[str, Any]) -> Callable:
        args = dict(args)
        name = args.pop("config", default)
        if name not in presets:
            raise ConfigurationError(
                f"unknown config {name!r}; expected one of {sorted(presets)}"
            )
        config = presets[name]
        if args:
            valid = {f.name for f in dataclasses.fields(config)}
            bad = set(args) - valid
            if bad:
                raise ConfigurationError(
                    f"unknown app arguments {sorted(bad)}; "
                    f"valid fields: {sorted(valid)}"
                )
            config = dataclasses.replace(config, **args)
        return factory(config)

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
    if "n" in args:
        _int_arg("n", args["n"])
    base = SWEEP150 if name else Sweep3dConfig(n=args.pop("n", SWEEP150.n))
    if args:
        valid = {f.name for f in dataclasses.fields(base)}
        bad = set(args) - valid
        if bad:
            raise ConfigurationError(
                f"unknown app arguments {sorted(bad)}; "
                f"valid fields: {sorted(valid)}"
            )
        base = dataclasses.replace(base, **args)
    return sweep3d_program(base)


def _build_pingpong(args: Dict[str, Any]) -> Callable:
    args = dict(args)
    size = _int_arg("size", args.pop("size", 0))
    reps = args.pop("repetitions", None)
    warmup = args.pop("warmup", None)
    if args:
        raise ConfigurationError(
            f"unknown app arguments {sorted(args)}; "
            "valid: size, repetitions, warmup"
        )
    reps = (
        _int_arg("repetitions", reps)
        if reps is not None
        else default_repetitions(size)
    )
    if warmup is not None:
        return pingpong_program(size, reps, warmup=_int_arg("warmup", warmup))
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
