"""Run configuration for the command-line tools.

Config files are flat ``key = value`` text: one pair per line, ``#`` starts
a comment.  Values may be scalars, comma lists (``0.1,1,3``) or inclusive
ranges (``start:stop:step``).  Command-line ``key=value`` arguments override
file entries, so a file can hold the common case and the shell the variation.
"""

import math
from dataclasses import dataclass

from .dynamics import MAX_TIME, STEPS_PER_PERIOD


class ConfigError(Exception):
    """Invalid or incomplete run configuration.

    Collects every problem found in one pass so a bad config is fixed in
    one round trip, not one key at a time.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


_TRUE_WORDS = frozenset(("true", "yes", "on", "1"))
_FALSE_WORDS = frozenset(("false", "no", "off", "0"))


def parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def parse_int(text: str) -> int:
    value = parse_float(text)
    if value != int(value):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


# the longest range, n=0:1000000:1: every index displaced_fock_overlap accepts
_MAX_RANGE_VALUES = 1_000_001


def parse_float_list(text: str) -> list[float]:
    """Scalar, comma list, or inclusive start:stop:step range."""
    body = text.strip()
    if ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {text!r}")
        start, stop, step = (parse_float(p) for p in parts)
        if step <= 0.0:
            raise ValueError(f"range step must be positive, got {text!r}")
        if stop < start:
            raise ValueError(f"range stop must be >= start, got {text!r}")
        # 1e-9 slack keeps the endpoint in despite rounding of (stop-start)/step
        intervals = (stop - start) / step + 1e-9
        if not intervals < _MAX_RANGE_VALUES:  # an infinite count too, before allocating
            raise ValueError(f"range {text!r} has more than {_MAX_RANGE_VALUES} values")
        return [start + i * step for i in range(math.floor(intervals) + 1)]
    if "," in body:
        return [parse_float(p) for p in body.split(",")]
    return [parse_float(body)]


def parse_int_list(text: str) -> list[int]:
    values = parse_float_list(text)
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ValueError(f"expected integers, got {text!r}")
        out.append(int(round(v)))
    return out


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; later duplicates win; '#' starts a comment."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError([f"{path}:{lineno}: expected key = value, got {body!r}"])
            key, _, value = body.partition("=")
            raw[key.strip()] = value.strip()
    return raw


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: command name plus validated parameters."""

    command: str
    parameters: dict

    def echo(self) -> dict[str, str]:
        """Canonical text form of every resolved parameter, for metadata.

        Unset optionals (None) are skipped; commands that derive a value for
        them report the derived value through their own metadata.
        """
        out = {"command": self.command}
        for key in sorted(self.parameters):
            value = self.parameters[key]
            if value is not None:
                out[key] = _format_value(value)
        return out


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _photon_numbers(text: str):
    """rabi-freq's n: an integer list, or 'figure' for the standard grid."""
    return "figure" if text.strip() == "figure" else parse_int_list(text)


def _one_of(*branches):
    """Range rule of a selector, whose value names the table walked at _BRANCH."""
    return (lambda v: v in branches, "expected one of " + "/".join(branches))


_REQUIRED = object()
_BRANCH = object()  # the branch chosen by the selector named here is walked at this entry
# range rules: (check on the value, or on each item of a list, problem text)
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "must be nonnegative")
_ALL_POSITIVE = (_POSITIVE[0], "all must be positive")
_ALL_NONNEGATIVE = (_NONNEGATIVE[0], "all must be nonnegative")

# command, or command/branch -> key -> (parser, default or _REQUIRED, range
# rule or None), in the order keys are checked and problems reported
_KEYS = {
    "rabi-freq": {
        "coupling": (parse_float, _REQUIRED, _POSITIVE),
        "k": (parse_int, _REQUIRED, _NONNEGATIVE),
        "n": (_photon_numbers, _REQUIRED,
              (lambda v: v == "figure" or v >= 0, "must be nonnegative")),
        "gap": (parse_float, 0.01, _POSITIVE),
        "shift": (parse_float, 0.0, None),
    },
    "evolve": {
        "picture": (str, _REQUIRED, _one_of("semiclassical", "quantum")),
        "gap": (parse_float, _REQUIRED, _NONNEGATIVE),
        "bias": (parse_float, _REQUIRED, _NONNEGATIVE),
        "t-end": (parse_float, _REQUIRED,
                  (lambda v: 0.0 < v <= MAX_TIME, f"must lie in (0, {MAX_TIME:g}]")),
        "samples": (parse_int, _REQUIRED, (lambda v: v >= 2, "must be >= 2")),
        _BRANCH: "picture",
    },
    "evolve/semiclassical": {
        "amplitude": (parse_float, _REQUIRED, _NONNEGATIVE),
        "phase": (parse_float, 0.0, None),
        "steps-per-period": (parse_int, STEPS_PER_PERIOD, (lambda v: v >= 16, "must be >= 16")),
    },
    "evolve/quantum": {
        "coupling": (parse_float, _REQUIRED, _POSITIVE),
        "initial": (str, _REQUIRED, _one_of("coherent", "fock")),
        _BRANCH: "initial",
        "n-max": (parse_int, None, (lambda v: v >= 1, "must be >= 1")),
        "quadrature": (parse_bool, False, None),
    },
    "evolve/quantum/coherent": {"mean": (parse_float, _REQUIRED, _NONNEGATIVE)},
    "evolve/quantum/fock": {"m": (parse_int, _REQUIRED, _NONNEGATIVE)},
    "fit-shift": {
        "coupling": (parse_float_list, _REQUIRED, _ALL_POSITIVE),
        "k": (parse_int_list, _REQUIRED, _ALL_NONNEGATIVE),
        "n": (parse_int_list, _REQUIRED, _ALL_NONNEGATIVE),
        "gap": (parse_float, 0.01, _POSITIVE),
    },
    "bessel-approx": {
        "k": (parse_int_list, _REQUIRED, _ALL_NONNEGATIVE),
        "x": (parse_float_list, _REQUIRED, _ALL_POSITIVE),
    },
    "identity-sweep": {
        "x": (parse_float_list, _REQUIRED, _ALL_POSITIVE),
        "n": (parse_int_list, _REQUIRED, _ALL_NONNEGATIVE),
        "k": (parse_int_list, _REQUIRED, _ALL_NONNEGATIVE),
    },
}


def _walk(path: str, raw: dict, values: dict, problems: list) -> None:
    """Move the keys of table `path`, and of the branches chosen, from raw into values."""
    for key, spec in _KEYS[path].items():
        if key is _BRANCH:
            if spec in values:
                _walk(f"{path}/{values[spec]}", raw, values, problems)
            else:  # the selector itself was reported; don't misreport its dependents
                for name in _KEYS:
                    if name.startswith(path + "/"):
                        for dependent in _KEYS[name]:
                            raw.pop(dependent, None)
            continue
        parser, default, rule = spec
        if key not in raw:
            if default is _REQUIRED:
                problems.append(f"missing required key '{key}'")
            else:
                values[key] = default
            continue
        try:
            value = parser(raw.pop(key))
        except ValueError as exc:
            problems.append(f"key '{key}': {exc}")
            continue
        if rule and not all(map(rule[0], value if isinstance(value, list) else [value])):
            problems.append(f"key '{key}': {rule[1]}, got {_format_value(value)}")
        else:
            values[key] = value


def resolve(command: str, raw: dict) -> RunConfig:
    """Validate a raw key->string map against the command's tables in _KEYS.

    Raises ConfigError listing every missing, malformed, out-of-range, or
    unknown key.  Returns the typed parameter set on success.
    """
    if command not in _KEYS or "/" in command:
        raise ConfigError([f"unknown command '{command}'"])
    raw = dict(raw)
    values: dict = {}
    problems: list[str] = []
    _walk(command, raw, values, problems)
    problems += [f"unknown key '{key}'" for key in sorted(raw)]
    if problems:
        raise ConfigError([f"{command}: {p}" for p in problems])
    return RunConfig(command=command, parameters=values)


def key_help(command: str) -> str:
    """The keys of `command`, one line per table, for its --help text."""
    lines = []
    for path, table in _KEYS.items():
        parent, _, branch = path.rpartition("/")
        if path.partition("/")[0] == command:
            items = [key if spec[1] is _REQUIRED else f"[{key}]" if spec[1] is None
                     else f"[{key}={_format_value(spec[1])}]"
                     for key, spec in table.items() if key is not _BRANCH]
            label = f"  {_KEYS[parent][_BRANCH]}={branch}" if parent else "keys"
            lines.append(f"{label}: {', '.join(items)}")
    return "\n".join(lines)
