"""Run configuration: line-based `key = value` files in `[section]` blocks.

UTF-8, `#` comments, no nesting. SCHEMA gives every key one entry: the
type its value parses to, its default and its inclusive bounds. Each set
value is converted to its type once, at parse time, and RunConfig.get
returns it, or the key's default when it is unset. Unknown keys or
sections, duplicate keys, values of the wrong type (set keys the run
does not read included) and non-finite numbers are reported together
with their line numbers, as are missing required keys; then values
outside their bounds and the rules no bound expresses (an odd nz, and a
meridian grid, set or derived, of at most domain.MAX_NODES nodes) are
hard errors, one at a time. Any file either parses into a RunConfig or
raises ConfigError. `[domain] file` is a path: it stays a string here and is
checked where it is read, by `build_domain` under `kind = tabulated`.
Example:

    [domain]
    kind = ball
    a = 1.0
    n = 3

    [nonlinearity]
    form = gelfand
    lambda = 1.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from . import continuation as cont
from . import domain as dom
from . import nonlinearity as nlin
from . import oracle3d, verify
from .errors import ConfigError, InvalidProfileError


@dataclass(frozen=True)
class Key:
    """One configuration key: its value type, default and inclusive bounds.

    A list is a whitespace-separated list of finite numbers. `note` is
    appended to the message of a value above `high`.
    """

    type: type
    default: object = None
    low: float | None = None
    high: float | None = None
    note: str = ""
    required: bool = False


# Every section and key. The grid sizes and N take the node minimum of the
# meridian grid (an unset nz is defaulted by grid_shape); a uniqueness
# check needs at least one start.
SCHEMA = {
    "domain": {"kind": Key(str, required=True), "a": Key(float), "b": Key(float),
               "coeffs": Key(list), "file": Key(str), "n": Key(int, 3, low=2)},
    "nonlinearity": {"form": Key(str, required=True), "lambda": Key(float),
                     "c": Key(float), "p": Key(float), "alpha": Key(float),
                     "beta": Key(float)},
    "grid": {"nr": Key(int, 129, low=dom.MIN_NODES), "nz": Key(int, low=dom.MIN_NODES)},
    "continuation": {"t_step0": Key(float, cont.T_STEP0_DEFAULT, high=cont.T_STEP0_MAX)},
    "oracle": {"N": Key(int, 48, low=dom.MIN_NODES, high=oracle3d.N_MAX,
                        note=" (desk scale)")},
    "output": {"directory": Key(str, "out"), "emit_fields": Key(bool, False)},
    "run": {"seed": Key(int, 0, low=0),
            "uniqueness_seeds": Key(int, verify.UNIQUENESS_SEEDS, low=1)},
}


def _typed(kind, text: str):
    """`text` as a value of `kind`; a ValueError says why it is not one."""
    if kind is str:
        return text
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError("is not an integer") from None
    if kind is bool:
        if text.lower() in ("true", "yes", "1"):
            return True
        if text.lower() in ("false", "no", "0"):
            return False
        raise ValueError("is not a boolean")
    try:
        xs = [float(tok) for tok in text.split()] if kind is list else [float(text)]
    except ValueError:
        raise ValueError("is not a list of numbers" if kind is list
                         else "is not a number") from None
    if not all(math.isfinite(x) for x in xs):
        raise ValueError("is not finite")
    return xs if kind is list else xs[0]


@dataclass
class RunConfig:
    """The typed values of a parsed configuration file."""

    values: dict = field(default_factory=dict)  # (section, key) -> (typed value, line)
    path: str = ""

    def get(self, section, key):
        """The key's parsed value, or its SCHEMA default when the file leaves it unset."""
        if (section, key) in self.values:
            return self.values[(section, key)][0]
        return SCHEMA[section][key].default

    # -- factories ------------------------------------------------------------

    def build_domain(self) -> dom.MeridianDomain:
        """The configured domain; a profile the parameters cannot make is a ConfigError."""
        kind = self.get("domain", "kind")
        try:
            if kind == "ball":
                prof = dom.ball(self._require("domain", "a"))
            elif kind == "spheroid":
                prof = dom.spheroid(self._require("domain", "a"), self._require("domain", "b"))
            elif kind == "bump":
                coeffs = self.get("domain", "coeffs")
                if not coeffs:
                    raise ConfigError(f"{self.path}: [domain] kind = bump requires coeffs")
                prof = dom.polynomial_bump(coeffs)
            elif kind == "tabulated":
                fname = self.get("domain", "file")
                if not fname:
                    raise ConfigError(f"{self.path}: [domain] kind = tabulated requires file")
                base = Path(self.path).parent if self.path else Path(".")
                fpath = Path(fname)
                prof = dom.tabulated_from_file(fpath if fpath.is_absolute() else base / fpath)
            else:
                raise self._error("domain", "kind", f"{kind!r} is unknown")
        except (ValueError, OSError, InvalidProfileError) as exc:
            raise self._error("domain", "kind", f"= {kind}: {exc}") from None
        return dom.MeridianDomain(self.get("domain", "n"), prof)

    def build_nonlinearity(self) -> nlin.Nonlinearity:
        """The configured right-hand side; parameters out of range are a ConfigError."""
        form = self.get("nonlinearity", "form")

        def num(key):
            return self._require("nonlinearity", key)

        try:
            if form == "constant":
                return nlin.constant(num("c"))
            if form == "affine":
                return nlin.affine(num("lambda"), num("c"))
            if form == "gelfand":
                return nlin.gelfand(num("lambda"))
            if form == "power":
                return nlin.power(num("lambda"), num("p"))
            if form == "separable":
                alpha, beta, lam = num("alpha"), num("beta"), num("lambda")
                phi = (nlin.power(lam, num("p")) if self.get("nonlinearity", "p") is not None
                       else nlin.gelfand(lam))
                return nlin.separable(alpha, beta, phi)
        except ValueError as exc:
            raise self._error("nonlinearity", "form", f"= {form}: {exc}") from None
        raise self._error("nonlinearity", "form", f"{form!r} is unknown")

    def grid_shape(self, d: dom.MeridianDomain, box=None):
        """(nr, nz); an unset nz is `domain.isotropic_nz` on `box`, the box the grids span.

        None stands for the body's own `MeridianDomain.box`.
        """
        nr = self.get("grid", "nr")
        nz = self.get("grid", "nz")
        if nz is None:
            box = d.box if box is None else box
            try:
                nz = dom.isotropic_nz(nr, box)
            except (ArithmeticError, ValueError):
                raise ConfigError(f"{self.path}: no isotropic nz for a domain of "
                                  f"{box[1]:g} x {box[0]:g}; set [grid] nz") from None
        return nr, nz

    def validate(self):
        for (section, key), (value, _) in self.values.items():
            spec = SCHEMA[section][key]
            if spec.low is not None and value < spec.low:
                raise self._error(section, key, f"must be >= {spec.low}")
            if spec.high is not None and value > spec.high:
                raise self._error(section, key, f"must be <= {spec.high}{spec.note}")
        if self.get("continuation", "t_step0") <= 0:
            raise self._error("continuation", "t_step0", "must be positive")
        nz = self.get("grid", "nz")
        if nz is not None and nz % 2 == 0:
            raise self._error("grid", "nz", f"must be odd, got {nz}")
        nr, nz_used = self.grid_shape(self.build_domain())
        if nr * nz_used > dom.MAX_NODES:
            size = (f"the {nr} x {nz_used} grid has {nr * nz_used} nodes, "
                    f"above {dom.MAX_NODES} (desk scale)")
            if nz is None:
                raise ConfigError(f"{self.path}: [grid] nz derived from the domain's aspect: "
                                  f"{size}; set [grid] nz or a smaller nr")
            raise self._error("grid", "nz", f"= {nz}: {size}")
        self.build_nonlinearity()

    def _require(self, section, key):
        val = self.get(section, key)
        if val is None:
            raise ConfigError(f"{self.path}: missing required key [{section}] {key}")
        return val

    def _error(self, section, key, message) -> ConfigError:
        line = self.values.get((section, key), (None, "?"))[1]
        return ConfigError(f"{self.path}:{line}: [{section}] {key} {message}")


def parse_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    path = str(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None

    values = {}
    section = None
    errors = []
    for lineno, full in enumerate(lines, start=1):
        line = full.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                errors.append(f"{path}:{lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            continue
        if section is None:
            errors.append(f"{path}:{lineno}: key outside of any [section]")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA[section]:
            errors.append(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
            continue
        if (section, key) in values:
            first = values[(section, key)][1]
            errors.append(f"{path}:{lineno}: duplicate key [{section}] {key} "
                          f"(first set on line {first})")
            continue
        try:
            typed = _typed(SCHEMA[section][key].type, value)
        except ValueError as exc:
            errors.append(f"{path}:{lineno}: [{section}] {key} = {value!r} {exc}")
            typed = None  # still recorded, so that a repeat of the key is a duplicate
        values[(section, key)] = (typed, lineno)

    missing = [f"[{s}] {k}" for s, keys in SCHEMA.items() for k, spec in keys.items()
               if spec.required and (s, k) not in values]
    if missing:
        errors.append(f"{path}: missing required keys: {', '.join(missing)}")
    if errors:
        raise ConfigError("\n".join(errors))

    cfg = RunConfig(values=values, path=path)
    cfg.validate()
    return cfg
