"""Run configuration: line-based `key = value` files in `[section]` blocks.

UTF-8, `#` comments, no nesting. Unknown keys or sections, duplicate keys,
values of the wrong SCHEMA type (set keys the run does not read
included), non-finite numbers and out-of-range values are hard errors
with line numbers; missing required keys are reported together. Any file
either parses into a RunConfig or raises ConfigError. `[domain] file` is
a path: it stays a string here and is checked where it is read, by
`build_domain` under `kind = tabulated`. Example:

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
from . import oracle3d, solver, verify
from .errors import ConfigError, InvalidProfileError

# Every section and key, with the type its value must parse as; a list is
# a whitespace-separated list of finite numbers.
SCHEMA = {
    "domain": {"kind": str, "a": float, "b": float, "coeffs": list, "file": str, "n": int},
    "nonlinearity": {"form": str, "lambda": float, "c": float, "p": float,
                     "alpha": float, "beta": float},
    "grid": {"nr": int, "nz": int},
    "solver": {"tol_pde": float, "max_newton": int},
    "continuation": {"t_step0": float, "t_step_min": float},
    "oracle": {"N": int},
    "output": {"directory": str, "emit_fields": bool},
    "run": {"seed": int, "uniqueness_seeds": int},
}

DEFAULTS = {
    ("domain", "n"): 3,
    ("grid", "nr"): 129,
    ("solver", "tol_pde"): solver.TOL_PDE_DEFAULT,
    ("solver", "max_newton"): solver.MAX_NEWTON_DEFAULT,
    ("continuation", "t_step0"): cont.T_STEP0_DEFAULT,
    ("continuation", "t_step_min"): cont.T_STEP_MIN_DEFAULT,
    ("oracle", "N"): 48,
    ("output", "directory"): "out",
    ("output", "emit_fields"): False,
    ("run", "seed"): 0,
    ("run", "uniqueness_seeds"): verify.UNIQUENESS_SEEDS,
}

# Smallest accepted value of integer keys; [domain] n is checked by
# build_domain. The grid sizes and N take the node minimum of the meridian
# grid (an unset nz is defaulted by grid_shape); a uniqueness check needs
# at least one start.
INT_MINIMA = {
    ("grid", "nr"): dom.MIN_NODES,
    ("grid", "nz"): dom.MIN_NODES,
    ("solver", "max_newton"): 1,
    ("oracle", "N"): dom.MIN_NODES,
    ("run", "seed"): 0,
    ("run", "uniqueness_seeds"): 1,
}


@dataclass
class RunConfig:
    """Typed view of a parsed configuration file."""

    raw: dict = field(default_factory=dict)  # (section, key) -> (value str, line)
    path: str = ""

    def get(self, section, key):
        if (section, key) in self.raw:
            return self.raw[(section, key)][0]
        return DEFAULTS.get((section, key))

    def get_float(self, section, key):
        val = self.get(section, key)
        if val is None:
            return None
        try:
            x = float(val)
        except (TypeError, ValueError):
            raise self._error(section, key, f"= {val!r} is not a number") from None
        if not math.isfinite(x):
            raise self._error(section, key, f"= {val!r} is not finite")
        return x

    def get_int(self, section, key):
        val = self.get(section, key)
        if val is None:
            return None
        try:
            return int(str(val))
        except (TypeError, ValueError):
            raise self._error(section, key, f"= {val!r} is not an integer") from None

    def get_floats(self, section, key):
        val = self.get(section, key)
        if val is None:
            return None
        try:
            xs = [float(tok) for tok in str(val).split()]
        except ValueError:
            raise self._error(section, key, f"= {val!r} is not a list of numbers") from None
        if not all(math.isfinite(x) for x in xs):
            raise self._error(section, key, f"= {val!r} is not finite")
        return xs

    def get_bool(self, section, key):
        val = self.get(section, key)
        if isinstance(val, bool) or val is None:
            return val
        text = str(val).strip().lower()
        if text in ("true", "yes", "1"):
            return True
        if text in ("false", "no", "0"):
            return False
        raise self._error(section, key, f"= {val!r} is not a boolean")

    def get_typed(self, section, key):
        """The value read through the getter of the key's SCHEMA type."""
        getter = {float: self.get_float, int: self.get_int, bool: self.get_bool,
                  list: self.get_floats, str: self.get}[SCHEMA[section][key]]
        return getter(section, key)

    # -- factories ------------------------------------------------------------

    def build_domain(self) -> dom.MeridianDomain:
        """The configured domain; a profile the parameters cannot make is a ConfigError."""
        kind = str(self.get("domain", "kind"))
        coeffs = self.get_floats("domain", "coeffs")
        n = self.get_int("domain", "n")
        if n < 2:
            raise self._error("domain", "n", f"must be >= 2, got {n}")
        try:
            if kind == "ball":
                prof = dom.ball(self._require_float("domain", "a"))
            elif kind == "spheroid":
                prof = dom.spheroid(self._require_float("domain", "a"),
                                    self._require_float("domain", "b"))
            elif kind == "bump":
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
        return dom.MeridianDomain(n, prof)

    def build_nonlinearity(self) -> nlin.Nonlinearity:
        """The configured right-hand side; parameters out of range are a ConfigError."""
        form = str(self.get("nonlinearity", "form"))

        def num(key):
            return self._require_float("nonlinearity", key)

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

    def grid_shape(self, d: dom.MeridianDomain):
        """(nr, nz) with nz defaulted to the isotropic hr = hz aspect."""
        nr = self.get_int("grid", "nr")
        nz = self.get_int("grid", "nz")
        if nz is None:
            hr = d.profile.R / (nr - 1)
            try:
                nz = 2 * max(4, int(round(d.profile.a0 / hr))) + 1
            except (ArithmeticError, ValueError):
                raise ConfigError(f"{self.path}: no isotropic nz for a domain of "
                                  f"{d.profile.a0:g} x {d.profile.R:g}; set [grid] nz") from None
        return nr, nz

    def validate(self):
        for section, key in self.raw:
            self.get_typed(section, key)
        for section, key in (("solver", "tol_pde"), ("continuation", "t_step0"),
                             ("continuation", "t_step_min")):
            if self.get_float(section, key) <= 0:
                raise self._error(section, key, "must be positive")
        if self.get_float("continuation", "t_step0") > cont.T_STEP0_MAX:
            raise self._error("continuation", "t_step0", f"must be <= {cont.T_STEP0_MAX}")
        for (section, key), low in INT_MINIMA.items():
            value = self.get_int(section, key)
            if value is not None and value < low:
                raise self._error(section, key, f"must be >= {low}")
        nz = self.get_int("grid", "nz")
        if nz is not None and nz % 2 == 0:
            raise self._error("grid", "nz", f"must be odd, got {nz}")
        if self.get_int("oracle", "N") > oracle3d.N_MAX:
            raise self._error("oracle", "N", f"must be <= {oracle3d.N_MAX} (desk scale)")
        self.build_domain()
        self.build_nonlinearity()

    def _require_float(self, section, key) -> float:
        val = self.get_float(section, key)
        if val is None:
            raise ConfigError(f"{self.path}: missing required key [{section}] {key}")
        return val

    def _error(self, section, key, message) -> ConfigError:
        line = self.raw.get((section, key), (None, "?"))[1]
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

    raw = {}
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
        if (section, key) in raw:
            first = raw[(section, key)][1]
            errors.append(f"{path}:{lineno}: duplicate key [{section}] {key} "
                          f"(first set on line {first})")
            continue
        raw[(section, key)] = (value, lineno)

    missing = [f"[{s}] {k}" for s, k in (("domain", "kind"), ("nonlinearity", "form"))
               if (s, k) not in raw]
    if missing:
        errors.append(f"{path}: missing required keys: {', '.join(missing)}")
    if errors:
        raise ConfigError("\n".join(errors))

    cfg = RunConfig(raw=raw, path=path)
    cfg.validate()
    return cfg
