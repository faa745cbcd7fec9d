"""Flat key-value config files for system definitions.

Grammar (one assignment per line, '#' starts a comment):

    d = 2
    R = [[2, 1], [0, 2]]
    B = [[0, 0], [3, 0], [0, 1], [3, 1]]
    L = [[0, 0], [1, 0], [0, 1], [1, 1]]
    p_max = 4
    lambda_levels = 5
    seed = 7
    unitarity_tol = 1e-12
    tail_tol = 1e-10

Scalars are integers, floats, or exact fractions written a/b.  R may be
given nested or as a flat row-major list of d*d numbers; digit vectors
may be bare scalars when d = 1.  Any other key is refused, so a misspelt
key cannot silently leave its default in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["ConfigError", "SystemConfig", "parse_config", "emit_config"]


class ConfigError(ValueError):
    """Invalid config text; the message names the offending field."""


_KEYS = ("d", "R", "B", "L", "p_max", "lambda_levels", "seed", "unitarity_tol", "tail_tol")


@dataclass
class SystemConfig:
    d: int
    R: list
    B: list
    L: list
    p_max: int = 6
    lambda_levels: int = 5
    seed: int = 0
    unitarity_tol: float = 1e-12
    tail_tol: float = 1e-10
    name: str = ""

    def system(self):
        """The AffineSystem of this config; any entry `AffineSystem.create`
        refuses (a NaN or infinite entry of R, B or L, say) is a
        ConfigError, so the CLI reports it as invalid input."""
        from .system import AffineSystem

        try:
            return AffineSystem.create(
                self.R, self.B, self.L,
                unitarity_tol=self.unitarity_tol,
                tail_tol=self.tail_tol,
                name=self.name,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_scalar(tok: str, key: str):
    tok = tok.strip()
    if "/" in tok:
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("field %r: bad fraction %r" % (key, tok)) from exc
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError as exc:
        raise ConfigError("field %r: bad number %r" % (key, tok)) from exc


def _parse_value(text: str, key: str):
    """Recursive descent over [ ... ] lists with , separators."""
    text = text.strip()
    if not text.startswith("["):
        return _parse_scalar(text, key)
    pos = 0

    def parse_list():
        nonlocal pos
        assert text[pos] == "["
        pos += 1
        items = []
        while True:
            while pos < len(text) and text[pos] in " \t,":
                pos += 1
            if pos >= len(text):
                raise ConfigError("field %r: unterminated list" % key)
            if text[pos] == "]":
                pos += 1
                return items
            if text[pos] == "[":
                items.append(parse_list())
            else:
                start = pos
                while pos < len(text) and text[pos] not in ",]":
                    pos += 1
                items.append(_parse_scalar(text[start:pos], key))

    value = parse_list()
    rest = text[pos:].strip()
    if rest:
        raise ConfigError("field %r: trailing text %r" % (key, rest))
    return value


def parse_config(text: str, name: str = "") -> SystemConfig:
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError("field %r: unknown; known: %s" % (key, ", ".join(_KEYS)))
        if not rhs.strip():
            raise ConfigError("field %r: missing value" % key)
        fields[key] = _parse_value(rhs, key)
    for required in _KEYS[:4]:
        if required not in fields:
            raise ConfigError("field %r: missing" % required)
    d = fields["d"]
    if not isinstance(d, int) or d < 1:
        raise ConfigError("field 'd': must be a positive integer")
    r = _shape_matrix(fields["R"], d)
    b = _shape_digits(fields["B"], d, "B")
    l_digits = _shape_digits(fields["L"], d, "L")
    if len(b) != len(l_digits):
        raise ConfigError("field 'B': cardinality %d does not match L's %d"
                          % (len(b), len(l_digits)))
    cfg = SystemConfig(d=d, R=r, B=b, L=l_digits, name=name)
    for key, low in (("p_max", 1), ("lambda_levels", 0), ("seed", 0)):
        if key in fields:
            v = fields[key]
            if not isinstance(v, int) or v < low:
                raise ConfigError("field %r: must be an integer >= %d" % (key, low))
            setattr(cfg, key, v)
    for key in ("unitarity_tol", "tail_tol"):
        if key in fields:
            v = fields[key]
            if isinstance(v, (int, float, Fraction)):
                setattr(cfg, key, float(v))
            else:
                raise ConfigError("field %r: must be a number" % key)
    return cfg


def _shape_matrix(r, d):
    if not isinstance(r, list):
        r = [r]
    if all(not isinstance(x, list) for x in r):
        if len(r) != d * d:
            raise ConfigError("field 'R': expected %d row-major entries, got %d"
                              % (d * d, len(r)))
        return [r[i * d : (i + 1) * d] for i in range(d)]
    if len(r) != d or any(not isinstance(row, list) or len(row) != d for row in r):
        raise ConfigError("field 'R': expected a %dx%d matrix" % (d, d))
    return r


def _shape_digits(v, d, key):
    if not isinstance(v, list) or not v:
        raise ConfigError("field %r: expected a nonempty list" % key)
    out = []
    for item in v:
        if isinstance(item, list):
            if len(item) != d:
                raise ConfigError("field %r: digit %s has dimension %d, expected %d"
                                  % (key, item, len(item), d))
            out.append(item)
        else:
            if d != 1:
                raise ConfigError("field %r: scalar digit in dimension %d" % (key, d))
            out.append([item])
    return out


def _scalar_str(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def emit_config(cfg: SystemConfig) -> str:
    def row(vals):
        return "[" + ", ".join(_scalar_str(v) for v in vals) + "]"

    lines = [
        "# %s" % cfg.name if cfg.name else "# ifsfourier system",
        "d = %d" % cfg.d,
        "R = [" + ", ".join(row(r) for r in cfg.R) + "]",
        "B = [" + ", ".join(row(b) for b in cfg.B) + "]",
        "L = [" + ", ".join(row(l) for l in cfg.L) + "]",
        "p_max = %d" % cfg.p_max,
        "lambda_levels = %d" % cfg.lambda_levels,
        "seed = %d" % cfg.seed,
        "unitarity_tol = %.17g" % cfg.unitarity_tol,
        "tail_tol = %.17g" % cfg.tail_tol,
    ]
    return "\n".join(lines) + "\n"
