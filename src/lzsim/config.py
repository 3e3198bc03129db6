"""Run configuration for the command-line tools.

Config files are flat ``key = value`` text: one pair per line, ``#`` starts
a comment.  Values may be scalars, comma lists (``0.1,1,3``) or inclusive
ranges (``start:stop:step``).  Command-line ``key=value`` arguments override
file entries, so a file can hold the common case and the shell the variation.
"""

import math
from dataclasses import dataclass

from .dynamics import STEPS_PER_PERIOD


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


class _Resolver:
    """Pulls typed values out of a raw string map, accumulating problems."""

    def __init__(self, command: str, raw: dict):
        self.command = command
        self.raw = dict(raw)
        self.problems: list[str] = []
        self.values: dict = {}

    def _fetch(self, key, parser, default, required, check=None, describe=""):
        if key in self.raw:
            text = self.raw.pop(key)
            try:
                value = parser(text)
            except ValueError as exc:
                self.problems.append(f"key '{key}': {exc}")
                return
        elif required:
            self.problems.append(f"missing required key '{key}'")
            return
        else:
            value = default
        if value is not None and check is not None and not check(value):
            self.problems.append(f"key '{key}': {describe}, got {_format_value(value)}")
            return
        self.values[key] = value

    def floating(self, key, default=None, required=False, check=None, describe=""):
        self._fetch(key, parse_float, default, required, check, describe)

    def integer(self, key, default=None, required=False, check=None, describe=""):
        self._fetch(key, parse_int, default, required, check, describe)

    def boolean(self, key, default=False):
        self._fetch(key, parse_bool, default, False)

    def choice(self, key, options, default=None, required=False):
        self._fetch(
            key,
            str,
            default,
            required,
            check=lambda v: v in options,
            describe="expected one of " + "/".join(options),
        )

    def _list(self, key, parse_list, required, default, check, describe):
        self._fetch(
            key,
            parse_list,
            default,
            required,
            check=lambda vs: check is None or all(check(v) for v in vs),
            describe=describe,
        )

    def float_list(self, key, required=False, default=None, check=None, describe=""):
        self._list(key, parse_float_list, required, default, check, describe)

    def int_list(self, key, required=False, default=None, check=None, describe=""):
        self._list(key, parse_int_list, required, default, check, describe)

    def finish(self) -> RunConfig:
        for key in sorted(self.raw):
            self.problems.append(f"unknown key '{key}'")
        if self.problems:
            raise ConfigError([f"{self.command}: {p}" for p in self.problems])
        return RunConfig(command=self.command, parameters=self.values)


def _positive(v) -> bool:
    return v > 0.0


def _nonnegative(v) -> bool:
    return v >= 0.0


def resolve(command: str, raw: dict) -> RunConfig:
    """Validate a raw key->string map against the command's schema.

    Raises ConfigError listing every missing, malformed, out-of-range, or
    unknown key.  Returns the typed parameter set on success.
    """
    r = _Resolver(command, raw)
    if command == "rabi-freq":
        r.floating("coupling", required=True, check=_positive, describe="must be positive")
        r.integer("k", required=True, check=_nonnegative, describe="must be nonnegative")
        if r.raw.get("n", "").strip() == "figure":
            r.raw.pop("n")
            r.values["n"] = "figure"
        else:
            r.int_list("n", required=True, check=_nonnegative, describe="must be nonnegative")
        r.floating("gap", default=0.01, check=_positive, describe="must be positive")
        r.floating("shift", default=0.0)
    elif command == "evolve":
        r.choice("picture", ("semiclassical", "quantum"), required=True)
        r.floating("gap", required=True, check=_nonnegative, describe="must be nonnegative")
        r.floating("bias", required=True, check=_nonnegative, describe="must be nonnegative")
        r.floating("t-end", required=True, check=_positive, describe="must be positive")
        r.integer("samples", required=True, check=lambda v: v >= 2, describe="must be >= 2")
        picture = r.values.get("picture")
        if picture == "semiclassical":
            r.floating("amplitude", required=True, check=_nonnegative, describe="must be nonnegative")
            r.floating("phase", default=0.0)
            r.integer(
                "steps-per-period",
                default=STEPS_PER_PERIOD,
                check=lambda v: v >= 16,
                describe="must be >= 16",
            )
        elif picture == "quantum":
            r.floating("coupling", required=True, check=_positive, describe="must be positive")
            r.choice("initial", ("coherent", "fock"), required=True)
            initial = r.values.get("initial")
            if initial == "coherent":
                r.floating("mean", required=True, check=_nonnegative, describe="must be nonnegative")
            elif initial == "fock":
                r.integer("m", required=True, check=_nonnegative, describe="must be nonnegative")
            else:
                # initial itself was reported; don't misreport its dependents
                r.raw.pop("mean", None)
                r.raw.pop("m", None)
            r.integer("n-max", default=None, check=lambda v: v >= 1, describe="must be >= 1")
            r.boolean("quadrature", default=False)
        else:
            # picture itself was reported; don't misreport its dependents
            for key in ("amplitude", "phase", "steps-per-period", "coupling",
                        "initial", "mean", "m", "n-max", "quadrature"):
                r.raw.pop(key, None)
    elif command == "fit-shift":
        r.float_list("coupling", required=True, check=_positive, describe="all must be positive")
        r.int_list("k", required=True, check=_nonnegative, describe="all must be nonnegative")
        r.int_list("n", required=True, check=_nonnegative, describe="all must be nonnegative")
        r.floating("gap", default=0.01, check=_positive, describe="must be positive")
    elif command == "bessel-approx":
        r.int_list("k", required=True, check=_nonnegative, describe="all must be nonnegative")
        r.float_list("x", required=True, check=_positive, describe="all must be positive")
    elif command == "identity-sweep":
        r.float_list("x", required=True, check=_positive, describe="all must be positive")
        r.int_list("n", required=True, check=_nonnegative, describe="all must be nonnegative")
        r.int_list("k", required=True, check=_nonnegative, describe="all must be nonnegative")
    else:
        raise ConfigError([f"unknown command '{command}'"])
    return r.finish()
