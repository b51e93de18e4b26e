"""Experiment configuration: a flat INI-style format with one section per part.

Configs are the unit of experiment provenance: everything a run needs,
including every random seed, lives here, and serialization round-trips to the
identical dataclass so configs can be diffed and replayed byte-for-byte.
Each section is read and written through its dataclass's fields().
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, dataclass, fields

from ..adversaries import AdversarySpec
from ..core import check_positive
from ..protocol import MODES, ProtocolConfig

ALGORITHMS = ("kt_bettor",) + MODES

COMPARATOR_FROM_ADVERSARY = "adversary"

# the ProtocolConfig fields no [protocol] key sets: from_ini derives, to_ini skips them
DERIVED_PROTOCOL_FIELDS = ("mode", "T", "dim")


def _check_algorithm(algorithm: str, key: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"{key}: unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def protocol_mode(algorithm: str) -> str:
    """The ProtocolConfig mode of algorithm; the KT baseline reads only epsilon from it."""
    return "known_g" if algorithm == "kt_bettor" else algorithm


@dataclass
class ExperimentConfig:
    """One experiment: an algorithm, a gradient stream, and bookkeeping targets.

    comparator is coordinates or "adversary", the stream's own comparator.
    Checked when built: a known algorithm (kt_bettor at dim 1), a protocol that
    runs protocol_mode(algorithm) at the stream's T and dim, finite coordinates, a seed.
    """

    algorithm: str
    adversary: AdversarySpec
    protocol: ProtocolConfig
    comparator: tuple[float, ...] | str = COMPARATOR_FROM_ADVERSARY
    seeds: tuple[int, ...] = (0,)
    output_path: str = "out"

    def __post_init__(self):
        _check_algorithm(self.algorithm, "[experiment] algorithm")
        if self.algorithm == "kt_bettor" and self.adversary.dim != 1:
            raise ValueError("the KT baseline is one-dimensional")
        for key, expected, source in (
            ("mode", protocol_mode(self.algorithm), "[experiment] algorithm"),
            ("T", self.adversary.T, "[adversary] T"),
            ("dim", self.adversary.dim, "[adversary] dim"),
        ):
            value = getattr(self.protocol, key)
            if value != expected:
                raise ValueError(
                    f"[protocol] {key} = {value!r} disagrees with {source}, "
                    f"which needs {expected!r}"
                )
        if isinstance(self.comparator, str):
            if self.comparator != COMPARATOR_FROM_ADVERSARY:
                raise ValueError(
                    f"comparator must be coordinates or {COMPARATOR_FROM_ADVERSARY!r}"
                )
        else:
            self.comparator = tuple(float(x) for x in self.comparator)
            for x in self.comparator:
                if not math.isfinite(x):
                    raise ValueError(f"[experiment] comparator must be finite, got {x}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("at least one seed is required")


@dataclass
class SweepConfig:
    """Corruption-scaling grid: k values with horizon T = k^2 per cell."""

    ks: tuple[int, ...] = (20, 30, 40, 50, 60, 70)
    algorithms: tuple[str, ...] = ("kt_bettor", "known_g")
    epsilon: float = 1.0
    G: float = 1.0
    tau_G: float = 1.0
    window_frac: float = 0.75
    output_path: str = "out"

    def __post_init__(self):
        # checked before any cell runs, so a typo cannot discard finished cells
        for algorithm in self.algorithms:
            _check_algorithm(algorithm, "[sweep] algorithms")
        for key in ("ks", "algorithms"):
            if not getattr(self, key):
                raise ValueError(f"[sweep] {key} is empty, so the sweep has no cell")
        for key in ("epsilon", "G", "tau_G"):
            check_positive(f"[sweep] {key}", getattr(self, key))


# INI value parsers keyed by field annotation, which fields() reports as source
# text; a field with any other annotation (a nested section) is not an INI key
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "float | None": lambda raw: None if raw.lower() == "none" else float(raw),
    "tuple[int, ...]": lambda raw: tuple(int(x) for x in raw.split()),
    "tuple[str, ...]": lambda raw: tuple(raw.split()),
    "tuple[float, ...] | str": lambda raw: (
        raw if raw == COMPARATOR_FROM_ADVERSARY else tuple(float(x) for x in raw.split())
    ),
}


def _format(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return " ".join(_format(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _ini_fields(cls) -> list:
    derived = DERIVED_PROTOCOL_FIELDS if cls is ProtocolConfig else ()
    return [f for f in fields(cls) if f.type in _PARSERS and f.name not in derived]


def section_to_dataclass(cls, parser, section: str, **fallbacks):
    """Build dataclass cls from the INI section [section] through its fields().

    Values are typed by field annotation. An absent key takes its fallback,
    then its field default; an absent section reads as empty. An unknown or
    missing required key, or an unparsable value, raises ValueError naming
    the section and the key.
    """
    raw = parser[section] if parser.has_section(section) else {}
    keys = {f.name: f for f in _ini_fields(cls)}
    values = dict(fallbacks)
    for name, text in raw.items():
        if name not in keys:
            raise ValueError(
                f"[{section}] has unknown key {name!r}; expected: {', '.join(keys)}"
            )
        try:
            values[name] = _PARSERS[keys[name].type](text.strip())
        except ValueError as exc:
            raise ValueError(f"[{section}] {name}: {exc}") from None
    for f in keys.values():
        if f.name not in values and f.default is MISSING:
            raise ValueError(f"[{section}] is missing the required key {f.name!r}")
    return cls(**values)


def _read(text: str, *sections: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep field-name case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    for name in parser.sections():
        if name not in sections:
            raise ValueError(f"unknown config section [{name}]")
    return parser


def _write(**sections) -> str:
    """INI text with one section per keyword, each from a dataclass's fields()."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for name, obj in sections.items():
        parser[name] = {f.name: _format(getattr(obj, f.name)) for f in _ini_fields(type(obj))}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def to_ini(config: ExperimentConfig) -> str:
    return _write(experiment=config, adversary=config.adversary, protocol=config.protocol)


def from_ini(text: str) -> ExperimentConfig:
    parser = _read(text, "experiment", "adversary", "protocol")
    adversary = section_to_dataclass(AdversarySpec, parser, "adversary")
    algorithm = parser.get("experiment", "algorithm", fallback="").strip()
    protocol = section_to_dataclass(
        ProtocolConfig, parser, "protocol", mode=protocol_mode(algorithm),
        T=adversary.T, k=adversary.budget, dim=adversary.dim,
    )
    return section_to_dataclass(
        ExperimentConfig, parser, "experiment",
        adversary=adversary, protocol=protocol,
    )


def sweep_to_ini(sweep: SweepConfig) -> str:
    return _write(sweep=sweep)


def sweep_from_ini(text: str) -> SweepConfig:
    return section_to_dataclass(SweepConfig, _read(text, "sweep"), "sweep")
