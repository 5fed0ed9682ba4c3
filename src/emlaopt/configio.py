"""Config-file parsing and artifact serialization for the batch front end.

All configuration is JSON (human-readable key/value, no environment
variables).  Components can be given inline or pulled from the shipped
presets with {"preset": "<name>"}; a builder given ``None`` builds its
default preset.  A preset block takes only the keyword parameters of its
preset function, and an inline block only the fields of the dataclass it
builds (:func:`read`), so a key nothing reads is an error, never ignored,
and each value is read by its declared type (``READERS``).  Parse and
validation errors carry the file position or the dotted field path.
"""

import hashlib
import inspect
import json
from dataclasses import MISSING, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import presets
from .bilevel import BilevelConfig
from .control import DisturbanceProfile, SubsystemGains, nominal_disturbance, published_gains
from .effmap import EmlaModel
from .manipulator import ChainModel, ClosedChainStage, RigidBodyParams, TelescopeStage
from .trajopt import NlpProblem, check_count


class ConfigError(ValueError):
    """Configuration file problem with a field-path diagnostic."""


def load_json(path) -> dict:
    return load_json_text(path)[1]


def load_json_text(path) -> tuple[str, dict]:
    """The text of the JSON file at ``path``, read once, and its document;
    a missing file, a syntax error or a value ``json.loads`` cannot convert
    (an integer of more digits than Python converts) raises ``ConfigError``
    naming the path."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: file does not exist")
    text = path.read_text()
    try:
        return text, json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def check_keys(doc, path: str, takes, owner: str = "it", required=()) -> dict:
    """``doc``, checked to be an object whose keys all lie in ``takes``, the
    keys its reader reads, and that holds every key of ``required``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(doc) - set(takes))
    if unknown:
        keys = f"only {sorted(takes)}" if takes else "no other keys"
        raise ConfigError(f"{path}: {owner} takes {keys}, got unknown keys {unknown}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}.{key}: missing required field")
    return doc


def number(value, path: str) -> float:
    """``value``, checked to be a finite JSON number (not a bool or a string)."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            result = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(result):
                return result
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def integer(value, path: str) -> int:
    """``value``, checked to be a JSON integer (not a bool or a number such as
    4.0) that a float can hold, as the models compute with it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{path}: expected an integer within the float range, "
                          f"got {value!r}") from None
    return value


def boolean(value, path: str) -> bool:
    """``value``, checked to be a JSON ``true`` or ``false`` (not a string or a number)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def string(value, path: str) -> str:
    """``value``, checked to be a JSON string (not a number or null)."""
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def file_path(value, path: str, what: str) -> str:
    """``value``, checked to be a JSON string: the file path of ``what``."""
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected the path of {what}, got {value!r}")
    return value


def vector(value, path: str, n: int = None) -> np.ndarray:
    """``value``, checked to be a list of finite JSON numbers (not bools or
    strings), or a list of equal-length lists of them, with ``n`` entries
    when ``n`` is given, as a float array.  The error names the first entry
    that is not a finite number, or the whole value when it is not such a
    list."""
    shaped = isinstance(value, list) and (n is None or len(value) == n)
    # anything but a list of the right length fails the type check as [None]
    entries = value if shaped else [None]
    rows = bool(entries) and set(map(type, entries)) == {list} and len(set(map(len, entries))) == 1
    if rows:
        entries = list(chain.from_iterable(entries))  # the rows of a matrix
    types = set(map(type, entries))
    if bool not in types and all(issubclass(t, (int, float)) for t in types):
        try:
            array = np.array(value, dtype=float)
        except OverflowError:  # an integer beyond the float range, named below
            pass
        else:
            if np.isfinite(array).all():
                return array
    if not shaped or list in types:
        count = "" if n is None else f"{n} "
        raise ConfigError(f"{path}: expected a list of {count}numbers, got {value!r}")
    width = len(value[0]) if rows else 1
    for k, entry in enumerate(entries):
        number(entry, path + (f"[{k // width}][{k % width}]" if rows else f"[{k}]"))


# the reader of a value of each declared type, called as (value, path)
READERS = {float: number, int: integer, bool: boolean, str: string, np.ndarray: vector}


def _call(build, path: str, *args, **kwargs):
    """``build(*args, **kwargs)``, a ``ValueError`` or ``TypeError`` it raises
    turned into a ``ConfigError`` at ``path``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def read(cls, doc, path: str, convert=None, extra=()):
    """A ``cls`` dataclass from the object ``doc``, whose keys are the fields
    of ``cls`` plus the ``extra`` keys its caller reads itself.

    A field without a default is required.  Its value goes through
    ``convert[name]``, else ``convert[type]``, else ``READERS[type]``, else
    (a dataclass-typed field) ``read`` of that class; a converter is called
    as ``(value, path)``.
    """
    convert = {**READERS, **(convert or {})}
    specs = fields(cls)
    check_keys(doc, path, [f.name for f in specs] + list(extra), required=[
        f.name for f in specs if f.default is MISSING and f.default_factory is MISSING])

    def value(f):
        conv = convert.get(f.name) or convert.get(f.type) or partial(read, f.type)
        key = f"{path}.{f.name}"
        return _call(conv, key, doc[f.name], key)

    return _call(lambda: cls(**{f.name: value(f) for f in specs if f.name in doc}), path)


def _preset(doc, path: str, choices: dict, *args):
    """The preset block ``doc``, {"preset": name, **overrides}, built by
    ``choices[name](*args, **overrides)``; the overrides it takes are the
    preset function's parameters after ``args``.  ``None`` names the first
    preset of ``choices``."""
    name = next(iter(choices)) if doc is None else doc["preset"]
    if not isinstance(name, str) or name not in choices:
        raise ConfigError(f"{path}.preset: unknown preset {name!r}; available: {sorted(choices)}")
    overrides = {k: v for k, v in (doc or {}).items() if k != "preset"}
    overrides = _keywords(overrides, path, choices[name], len(args), f"the {name!r} preset")
    return _call(choices[name], path, *args, **overrides)


def _keywords(doc, path: str, function, n_args: int = 0, owner: str = "it") -> dict:
    """``doc``, checked to name only parameters of ``function`` after its
    first ``n_args``, each value read by ``READERS`` of its annotated type."""
    params = dict(list(inspect.signature(function).parameters.items())[n_args:])
    check_keys(doc, path, params, owner)
    return {k: READERS[params[k].annotation](v, f"{path}.{k}") for k, v in doc.items()}


def _is_preset(doc) -> bool:
    """Whether ``doc`` is a preset block, or ``None`` for the default preset."""
    return doc is None or isinstance(doc, dict) and "preset" in doc


def build_actuator(doc, path: str = "actuator") -> EmlaModel:
    """A preset actuator or an inline one: the ``EmlaModel`` fields, with
    ``motor``, ``drivetrain`` and ``drive`` blocks of their classes' fields."""
    if doc is None:
        raise ConfigError(f"{path}: missing required field")
    if _is_preset(doc):
        return _preset(doc, path, presets.ACTUATOR_PRESETS)
    return read(EmlaModel, doc, path)


def build_actuators(doc, path: str = "actuators") -> list:
    """Preset 'default' (the default) or a list of actuator blocks."""
    if _is_preset(doc):
        return _preset(doc, path, {"default": presets.actuators})
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: expected a list of actuator configs or preset 'default'")
    return [build_actuator(d, f"{path}[{i}]") for i, d in enumerate(doc)]


def _body(doc, path):
    """A body block {mass, inertia, com} as ``RigidBodyParams``; ``inertia``
    is 3 principal values or a 3x3 matrix."""
    check_keys(doc, path, ("mass", "inertia", "com"), "a body",
               required=("mass", "inertia", "com"))
    inertia = vector(doc["inertia"], f"{path}.inertia")
    if inertia.shape == (3,):
        inertia = np.diag(inertia)
    if inertia.shape != (3, 3):
        raise ConfigError(f"{path}.inertia: expected 3 principal values or a 3x3 matrix")
    return RigidBodyParams(mass=number(doc["mass"], f"{path}.mass"), inertia=inertia,
                           com_offset=vector(doc["com"], f"{path}.com", 3))


STAGE_TYPES = {"closed_chain": ClosedChainStage, "telescope": TelescopeStage}


def build_manipulator(doc, path: str = "manipulator") -> ChainModel:
    """Preset 'default' (the default) or an inline chain: the ``ChainModel``
    fields, ``gravity`` among them, which a preset block takes too; each stage
    holds the fields of the class its ``type`` names in ``STAGE_TYPES``."""
    if _is_preset(doc):
        return _preset(doc, path, {"default": presets.default_manipulator})
    convert = {RigidBodyParams: _body, np.ndarray: partial(vector, n=3)}

    def stage(sd, spath):
        kind = sd.get("type") if isinstance(sd, dict) else None
        if not isinstance(kind, str) or kind not in STAGE_TYPES:
            raise ConfigError(f"{spath}.type: need one of {sorted(STAGE_TYPES)}, got {kind!r}")
        return read(STAGE_TYPES[kind], sd, spath, convert, extra=("type",))

    def stages(docs, spath):
        if not isinstance(docs, list):
            raise ConfigError(f"{spath}: expected a list of stages")
        return tuple(stage(sd, f"{spath}[{i}]") for i, sd in enumerate(docs))

    return read(ChainModel, doc, path, dict(convert, stages=stages))


def build_problem(doc, model: ChainModel, path: str = "problem") -> NlpProblem:
    """Preset 'benchmark' (the default) or an inline problem: the
    ``NlpProblem`` fields, every array one entry per joint of ``model``
    except the two ``criterion_scales``."""
    if _is_preset(doc):
        return _preset(doc, path, {"benchmark": presets.benchmark_problem}, model)
    return read(NlpProblem, doc, path, {np.ndarray: partial(vector, n=model.n_joints),
                                        "criterion_scales": partial(vector, n=2)})


def build_gains(doc, n_joints: int, path: str = "gains") -> list:
    """Preset 'published' (the default), one inline ``SubsystemGains`` block
    for every joint, or a list of one block per joint; a gain is a number or a list of 4."""
    if _is_preset(doc):
        return [_preset(doc, path, {"published": published_gains})] * n_joints
    if isinstance(doc, list):
        if len(doc) != n_joints:
            raise ConfigError(f"{path}: expected {n_joints} gain sets")
        return [build_gains(d, 1, f"{path}[{i}]")[0] for i, d in enumerate(doc)]
    gain = lambda v, key: vector(v, key, 4) if isinstance(v, list) else number(v, key)
    return [read(SubsystemGains, doc, path, {np.ndarray: gain})] * n_joints


def build_disturbance(doc, seed_offset: int = 0, path: str = "disturbance") -> DisturbanceProfile:
    """Preset 'none' (the default) or 'nominal', or an inline profile of the
    ``DisturbanceProfile`` fields; ``seed_offset`` is added to its seed."""
    if _is_preset(doc):
        base = _preset(doc, path,
                       {"none": lambda: DisturbanceProfile(), "nominal": nominal_disturbance})
    else:
        base = read(DisturbanceProfile, doc, path)
    return _call(replace, path, base, seed=base.seed + seed_offset)


def build_outer(doc, path: str = "outer") -> BilevelConfig:
    """The leader's lattice: the ``BilevelConfig`` fields (all optional) plus
    an optional ``"method": "grid"``, the one search there is."""
    config = read(BilevelConfig, {} if doc is None else doc, path, extra=("method",))
    if doc and doc.get("method", "grid") != "grid":
        raise ConfigError(f"{path}.method: unknown search {doc['method']!r}; use 'grid'")
    return config


def _axis(spec, path: str) -> np.ndarray:
    try:
        lo, hi, n = spec
        lo, hi = number(lo, path), number(hi, path)
        if not lo < hi:
            raise ValueError("an empty axis")
        return np.linspace(lo, hi, check_count(n, "n", 2))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: need a grid specification [lo, hi, n] with an integer "
                          f"n >= 2 and finite numbers lo < hi, got {spec!r}") from exc


def build_map_axes(doc, actuator: EmlaModel, path: str = "grid"):
    """The (force, velocity) axes of ``actuator``'s efficiency map: preset
    'default' (the default), the actuator's rated envelope, or explicit axes
    {"force": [lo, hi, n], "velocity": [lo, hi, n]}."""
    if _is_preset(doc):
        return _preset(doc, path, {"default": presets.default_map_grid}, actuator)
    check_keys(doc, path, ("force", "velocity"), "an explicit grid",
               required=("force", "velocity"))
    return _axis(doc["force"], f"{path}.force"), _axis(doc["velocity"], f"{path}.velocity")


def build_preset_axes(doc, actuators, path: str = "maps") -> list:
    """The preset map axes of each of ``actuators``; ``doc`` holds only the
    point counts the 'default' map grid takes."""
    counts = _keywords({} if doc is None else doc, path, presets.default_map_grid, 1)
    return [_call(presets.default_map_grid, path, a, **counts) for a in actuators]


# the types the C encoder writes as one JSON scalar each
_SCALARS = {type(None), bool, int, float}


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2)`` for a document whose keys are strings.

    ``json.dumps`` takes its C encoder only without ``indent``, and the
    pure-Python one makes calls per value.  So a list of scalars, or a list of
    non-empty lists of them, is encoded by one C-encoder call and laid out by
    replacing its separators: ``"], ["`` before ``", "``, which no number
    holds.  Dicts, strings and any other list recurse.
    """
    return _json_text(doc, "\n")


def _json_text(value, pad: str) -> str:
    """``value`` at the line break and indentation ``pad`` of its first line."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [json.dumps(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    types = set(map(type, value))
    if types <= _SCALARS:
        return "[" + inner + json.dumps(value)[1:-1].replace(", ", "," + inner) + pad + "]"
    if (types == {list} and all(value)
            and set(map(type, chain.from_iterable(value))) <= _SCALARS):
        cell = inner + "  "
        rows = json.dumps(value)[2:-2].replace("], [", inner + "]," + inner + "[" + cell)
        return "[" + inner + "[" + cell + rows.replace(", ", "," + cell) + inner + "]" + pad + "]"
    return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + pad + "]"


# characters of an artifact encoded, hashed and written at a time
WRITE_SLICE = 1 << 20


def write_artifacts(out_dir, files: dict, config_text: str, seed: int) -> Path:
    """Write artifact files plus a manifest; remove partial output on failure.

    ``files`` maps filename -> text, encoded, hashed and written in slices of
    ``WRITE_SLICE`` characters.  The manifest records the config hash, seed,
    package version and a checksum per artifact, and contains nothing
    time-dependent so identical runs produce identical bytes.
    """
    from . import __version__

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def put(name: str, text: str) -> str:
        target = out_dir / name
        digest = hashlib.sha256()
        with open(target, "wb") as out:
            written.append(target)
            for start in range(0, len(text), WRITE_SLICE):
                data = text[start:start + WRITE_SLICE].encode()
                digest.update(data)
                out.write(data)
        return digest.hexdigest()

    try:
        outputs = {name: put(name, text) for name, text in files.items()}
        manifest = {  # keys in sorted order, as are the outputs
            "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
            "outputs": dict(sorted(outputs.items())),
            "seed": seed,
            "version": __version__,
        }
        put("manifest.json", json_text(manifest))
    except BaseException:
        for f in written:
            f.unlink(missing_ok=True)
        raise
    return out_dir
