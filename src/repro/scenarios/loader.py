"""Load scenarios from YAML/JSON files and the named library.

The library is the ``library/`` directory next to this module: one
``<name>.yaml`` per named scenario, listed by :func:`available` and
loaded by :func:`load_named`. CLI ``--scenario`` arguments go through
:func:`scenario_from_arg`, which treats anything that looks like a
path (exists on disk, contains a separator, or carries a YAML/JSON
extension) as a file and everything else as a library name.

YAML parsing uses PyYAML's safe loader when the package is available;
since JSON is a YAML subset, ``.json`` scenarios need no separate code
path. Without PyYAML the loader degrades to :func:`json.loads`, so
JSON scenarios keep working in stripped-down environments and YAML
ones fail with an actionable message instead of an ImportError.
PyYAML is imported on the first parse or dump, so runs that never read
a scenario never load it.
"""

from __future__ import annotations

import json
import os
from typing import List

from ..errors import ConfigurationError
from .spec import ScenarioSpec

#: Directory holding the named scenario library.
LIBRARY_DIR = os.path.join(os.path.dirname(__file__), "library")

_EXTENSIONS = (".yaml", ".yml", ".json")


def _yaml():
    """The PyYAML module, or None when it is not installed."""
    try:
        import yaml
    except ImportError:  # pragma: no cover - PyYAML is in the normal env
        return None
    return yaml


def loads(text: str, source: str = "<string>") -> ScenarioSpec:
    """Parse one scenario from YAML (or JSON) text."""
    yaml = _yaml()
    if yaml is not None:
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{source}: not valid YAML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{source}: PyYAML is unavailable and the text is not "
                f"valid JSON: {exc}"
            ) from exc
    try:
        return ScenarioSpec.from_dict(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from exc


def dumps(spec: ScenarioSpec) -> str:
    """Serialize a scenario to YAML (JSON when PyYAML is unavailable —
    still loadable, JSON being a YAML subset)."""
    data = spec.to_dict()
    yaml = _yaml()
    if yaml is not None:
        return yaml.safe_dump(data, sort_keys=False)
    return json.dumps(data, indent=2) + "\n"


def load(path: str) -> ScenarioSpec:
    """Load one scenario from a file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {path!r}: {exc}") from exc
    return loads(text, source=path)


def available() -> List[str]:
    """Names in the scenario library, sorted."""
    try:
        entries = os.listdir(LIBRARY_DIR)
    except OSError:
        return []
    return sorted(
        os.path.splitext(entry)[0] for entry in entries if entry.endswith(_EXTENSIONS)
    )


def load_named(name: str) -> ScenarioSpec:
    """Load a library scenario by name."""
    for extension in _EXTENSIONS:
        path = os.path.join(LIBRARY_DIR, name + extension)
        if os.path.exists(path):
            return load(path)
    raise ConfigurationError(
        f"unknown scenario {name!r}; library scenarios: {available()} "
        f"(or pass a YAML/JSON file path)"
    )


def scenario_from_arg(arg: str) -> ScenarioSpec:
    """Resolve a CLI ``--scenario`` value: file path or library name."""
    looks_like_path = (
        os.sep in arg or (os.altsep and os.altsep in arg) or arg.endswith(_EXTENSIONS)
    )
    if looks_like_path or os.path.exists(arg):
        return load(arg)
    return load_named(arg)
