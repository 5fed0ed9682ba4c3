"""Config-file parsing and artifact serialization for the batch front end.

All configuration is JSON (human-readable key/value, no environment
variables).  Components can be given inline or pulled from the shipped
presets with {"preset": "<name>"}.  Parse and validation errors carry the
file position or the dotted field path that failed.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import presets
from .chain import ClosedChainGeometry
from .control import DisturbanceProfile, SubsystemGains, nominal_disturbance, published_gains
from .drivetrain import DriveTrainParams
from .effmap import EmlaModel
from .losses import DriveConfig
from .manipulator import ChainModel, ClosedChainStage, TelescopeStage
from .pmsm import PmsmParams
from .spatial import RigidBodyParams
from .trajopt import NlpProblem


class ConfigError(ValueError):
    """Configuration file problem with a field-path diagnostic."""


def load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: file does not exist")
    text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _get(doc: dict, key: str, path: str, required=True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return doc[key]


def check_preset(doc: dict, path: str, takes: dict) -> str:
    """The preset name of ``doc``, checked against ``takes``, which maps each
    preset name to the keys it reads beside "preset"; an unknown name or an
    unread key is an error, never ignored."""
    name = doc["preset"]
    if name not in takes:
        raise ConfigError(f"{path}.preset: unknown preset {name!r}; available: {sorted(takes)}")
    unknown = sorted(set(doc) - {"preset", *takes[name]})
    if unknown:
        keys = f"only {sorted(takes[name])}" if takes[name] else "no other keys"
        raise ConfigError(f"{path}: the {name!r} preset takes {keys}, got unknown keys {unknown}")
    return name


def _vector(value, n, path):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"{path}: expected a {n}-vector, got shape {arr.shape}")
    return arr


def build_actuator(doc: dict, path: str = "actuator") -> EmlaModel:
    if "preset" in doc:
        name = check_preset(doc, path, dict.fromkeys(presets.ACTUATOR_PRESETS, ()))
        return presets.ACTUATOR_PRESETS[name]()
    try:
        motor = PmsmParams(**_get(doc, "motor", path))
        drivetrain = DriveTrainParams(**_get(doc, "drivetrain", path))
        drive = DriveConfig(**_get(doc, "drive", path, required=False, default={}))
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return EmlaModel(
        motor=motor, drivetrain=drivetrain, drive=drive, name=doc.get("name", "custom")
    )


def build_actuators(doc, path: str = "actuators") -> list:
    if isinstance(doc, dict) and "preset" in doc:
        check_preset(doc, path, {"default": ()})
        return presets.actuators()
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: expected a list of actuator configs or preset 'default'")
    return [build_actuator(d, f"{path}[{i}]") for i, d in enumerate(doc)]


def _body(doc: dict, path: str, gravity: float) -> RigidBodyParams:
    mass = _get(doc, "mass", path)
    inertia = np.asarray(_get(doc, "inertia", path), dtype=float)
    if inertia.shape == (3,):
        inertia = np.diag(inertia)
    if inertia.shape != (3, 3):
        raise ConfigError(f"{path}.inertia: expected 3 principal values or a 3x3 matrix")
    com = _vector(_get(doc, "com", path), 3, f"{path}.com")
    try:
        return RigidBodyParams(
            mass=mass, inertia=inertia, com_offset=com,
            gravity=np.array([0.0, 0.0, gravity]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_manipulator(doc: dict, path: str = "manipulator") -> ChainModel:
    if "preset" in doc:
        check_preset(doc, path, {"default": ("gravity",)})
        return presets.default_manipulator(gravity=doc.get("gravity", 9.81))
    gravity = doc.get("gravity", 9.81)
    stages = []
    for i, sd in enumerate(_get(doc, "stages", path)):
        spath = f"{path}.stages[{i}]"
        kind = _get(sd, "type", spath)
        try:
            if kind == "closed_chain":
                geom = ClosedChainGeometry(**_get(sd, "geometry", spath))
                stages.append(
                    ClosedChainStage(
                        name=_get(sd, "name", spath),
                        geometry=geom,
                        hinge_pos=_vector(_get(sd, "hinge_pos", spath), 3, spath),
                        anchor_pos=_vector(_get(sd, "anchor_pos", spath), 3, spath),
                        boom=_body(_get(sd, "boom", spath), f"{spath}.boom", gravity),
                        barrel=_body(_get(sd, "barrel", spath), f"{spath}.barrel", gravity),
                        rod=_body(_get(sd, "rod", spath), f"{spath}.rod", gravity),
                        mount_pos=_vector(_get(sd, "mount_pos", spath), 3, spath),
                        mount_angle=sd.get("mount_angle", 0.0),
                    )
                )
            elif kind == "telescope":
                stages.append(
                    TelescopeStage(
                        name=_get(sd, "name", spath),
                        carriage=_body(_get(sd, "carriage", spath), f"{spath}.carriage", gravity),
                        slide_pos=_vector(_get(sd, "slide_pos", spath), 3, spath),
                        stroke_min=_get(sd, "stroke_min", spath),
                        stroke_max=_get(sd, "stroke_max", spath),
                        mount_pos=_vector(_get(sd, "mount_pos", spath), 3, spath),
                        mount_angle=sd.get("mount_angle", 0.0),
                    )
                )
            else:
                raise ConfigError(f"{spath}.type: unknown stage type {kind!r}")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{spath}: {exc}") from exc
    base_doc = _get(doc, "base", path)
    return ChainModel(
        base=_body(base_doc, f"{path}.base", gravity),
        stages=tuple(stages),
        base_pos=_vector(doc.get("base_pos", [0.0, 0.0, 0.0]), 3, f"{path}.base_pos"),
        base_angle=doc.get("base_angle", 0.0),
    )


def build_problem(doc: dict, model: ChainModel, path: str = "problem") -> NlpProblem:
    if "preset" in doc:
        check_preset(doc, path, {"benchmark": ("n_partitions", "n_ctrl")})
        return presets.benchmark_problem(
            model,
            n_partitions=doc.get("n_partitions", 50),
            n_ctrl=doc.get("n_ctrl", 12),
        )
    n = model.n_joints
    try:
        kwargs = dict(
            q_lower=_vector(_get(doc, "q_lower", path), n, f"{path}.q_lower"),
            q_upper=_vector(_get(doc, "q_upper", path), n, f"{path}.q_upper"),
            qd_lower=_vector(_get(doc, "qd_lower", path), n, f"{path}.qd_lower"),
            qd_upper=_vector(_get(doc, "qd_upper", path), n, f"{path}.qd_upper"),
            fx_lower=_vector(_get(doc, "fx_lower", path), n, f"{path}.fx_lower"),
            fx_upper=_vector(_get(doc, "fx_upper", path), n, f"{path}.fx_upper"),
            vx_lower=_vector(_get(doc, "vx_lower", path), n, f"{path}.vx_lower"),
            vx_upper=_vector(_get(doc, "vx_upper", path), n, f"{path}.vx_upper"),
            t_lower=_get(doc, "t_lower", path),
            t_upper=_get(doc, "t_upper", path),
            q_init=_vector(_get(doc, "q_init", path), n, f"{path}.q_init"),
            q_final=_vector(_get(doc, "q_final", path), n, f"{path}.q_final"),
            qd_init=_vector(_get(doc, "qd_init", path), n, f"{path}.qd_init"),
            qd_final=_vector(_get(doc, "qd_final", path), n, f"{path}.qd_final"),
        )
        for opt in ("weights", "criterion_scales"):
            if opt in doc:
                kwargs[opt] = np.asarray(doc[opt], dtype=float)
        for opt in ("degree", "n_ctrl", "n_partitions"):
            if opt in doc:
                kwargs[opt] = int(doc[opt])
        for opt in ("ctrl_lower", "ctrl_upper"):
            if opt in doc:
                kwargs[opt] = _vector(doc[opt], n, f"{path}.{opt}")
        return NlpProblem(**kwargs)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def build_gains(doc, n_joints: int, path: str = "gains") -> list:
    if isinstance(doc, dict) and "preset" in doc:
        check_preset(doc, path, {"published": ()})
        return [published_gains()] * n_joints
    if isinstance(doc, dict):
        try:
            g = SubsystemGains(
                delta=doc["delta"], epsilon=doc["epsilon"], k=doc["k"], sigma=doc["sigma"]
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return [g] * n_joints
    if isinstance(doc, list):
        if len(doc) != n_joints:
            raise ConfigError(f"{path}: expected {n_joints} gain sets")
        return [build_gains(d, 1, f"{path}[{i}]")[0] for i, d in enumerate(doc)]
    raise ConfigError(f"{path}: expected a gains object, list, or preset")


def build_disturbance(doc: dict, seed_offset: int = 0, path: str = "disturbance") -> DisturbanceProfile:
    """A preset ({"preset": "none"}, the default, or {"preset": "nominal"}) or
    an inline profile; unknown presets and keys are errors, never a silent zero."""
    doc = {"preset": "none"} if doc is None else doc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    if "preset" not in doc:
        try:
            d = DisturbanceProfile(**doc)
            return replace(d, band_hz=tuple(d.band_hz), n_tones=int(d.n_tones),
                           seed=int(d.seed) + seed_offset)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    bases = {"none": DisturbanceProfile(), "nominal": nominal_disturbance()}
    base = bases[check_preset(doc, path, dict.fromkeys(bases, ()))]
    return replace(base, seed=base.seed + seed_offset)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_artifacts(out_dir, files: dict, config_text: str, seed: int) -> Path:
    """Write artifact files plus a manifest; remove partial output on failure.

    ``files`` maps filename -> text content.  The manifest records the
    config hash, seed, package version and a checksum per artifact, and
    contains nothing time-dependent so identical runs produce identical
    bytes.
    """
    from . import __version__

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        checksums = {}
        for name, content in files.items():
            target = out_dir / name
            data = content.encode() if isinstance(content, str) else content
            target.write_bytes(data)
            written.append(target)
            checksums[name] = sha256_bytes(data)
        manifest = {
            "version": __version__,
            "seed": seed,
            "config_sha256": sha256_bytes(config_text.encode()),
            "outputs": checksums,
        }
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        (out_dir / "manifest.json").write_bytes(data)
        written.append(out_dir / "manifest.json")
    except BaseException:
        for f in written:
            f.unlink(missing_ok=True)
        raise
    return out_dir
