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

from ..adversaries import STREAMS, AdversarySpec
from ..core import check_integer, check_positive
from ..protocol import ProtocolConfig, check_algorithm

COMPARATOR_FROM_ADVERSARY = "adversary"

# the ProtocolConfig fields no [protocol] key sets: from_ini derives, to_ini skips them
DERIVED_PROTOCOL_FIELDS = ("mode", "T", "dim")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm, a gradient stream, and bookkeeping targets.

    comparator is dim finite coordinates, or "adversary" for a stream that constructs one.
    Checked when built, then frozen (dataclasses.replace re-runs every rule), each
    message naming its INI key: a known algorithm (kt_bettor at dim 1), a protocol
    at the stream's T and dim whose mode is the algorithm (any mode for kt_bettor,
    which reads only its epsilon), the comparator, at least one seed, each >= 0.
    """

    algorithm: str
    adversary: AdversarySpec
    protocol: ProtocolConfig
    comparator: tuple[float, ...] | str = COMPARATOR_FROM_ADVERSARY
    seeds: tuple[int, ...] = (0,)
    output_path: str = "out"

    def __post_init__(self):
        check_algorithm(self.algorithm, "[experiment] algorithm")
        if self.algorithm == "kt_bettor" and self.adversary.dim != 1:
            raise ValueError("[adversary] dim: the KT baseline is one-dimensional")
        for key, expected, source in (
            ("mode", self.protocol.mode if self.algorithm == "kt_bettor" else self.algorithm,
             "[experiment] algorithm"),
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
                    f"[experiment] comparator must be coordinates or {COMPARATOR_FROM_ADVERSARY!r}"
                )
            if not STREAMS[self.adversary.kind].constructs_comparator:
                raise ValueError(f"[experiment] comparator: adversary kind {self.adversary.kind!r} "
                                 "constructs no comparator; set one explicitly")
        else:
            object.__setattr__(self, "comparator", tuple(float(x) for x in self.comparator))
            for x in self.comparator:
                if not math.isfinite(x):
                    raise ValueError(f"[experiment] comparator must be finite, got {x}")
            if len(self.comparator) != self.adversary.dim:
                raise ValueError(f"[experiment] comparator has {len(self.comparator)} "
                                 f"coordinates, but [adversary] dim = {self.adversary.dim}")
        object.__setattr__(self, "seeds", tuple(
            [check_integer("[experiment] seeds", s, 0) for s in self.seeds]))
        if not self.seeds:
            raise ValueError("[experiment] seeds: at least one seed is required")


@dataclass(frozen=True)
class SweepConfig:
    """Corruption-scaling grid: per algorithm and k, a corrupted and a clean cell.

    One design: sign_flip_window at T = k^2, its k flips from round int(0.75 * T),
    epsilon = 1, and G = 1 (the stream's bound) in known_g mode. Checked when built,
    so every cell builds: known algorithms, integers k >= 2 with k^2 < 2**53 (k = 1
    gives T = 1; from k = 2 the window fits, as k^2 - k + 1 - 0.75k^2 = (k/2 - 1)^2),
    and a positive finite tau_G. Frozen, like the other configs.
    """

    ks: tuple[int, ...] = (20, 30, 40, 50, 60, 70)
    algorithms: tuple[str, ...] = ("kt_bettor", "known_g")
    tau_G: float = 1.0
    output_path: str = "out"

    def __post_init__(self):
        for algorithm in self.algorithms:
            check_algorithm(algorithm, "[sweep] algorithms")
        object.__setattr__(self, "ks", tuple([check_integer("[sweep] ks", k, 2) for k in self.ks]))
        for key in ("ks", "algorithms"):
            if not getattr(self, key):
                raise ValueError(f"[sweep] {key} is empty, so the sweep has no cell")
        if max(self.ks) ** 2 >= 2**53:
            raise ValueError(f"[sweep] ks = {max(self.ks)} puts T = k**2 past 2**53")
        check_positive("[sweep] tau_G", self.tau_G)


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
        ProtocolConfig, parser, "protocol", mode=algorithm,
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
