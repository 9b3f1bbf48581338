"""Configuration parsing: every input yields a RunConfig or a ConfigError."""

import inspect
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cplab.config import SCHEMA, parse_config
from cplab.continuation import run_homotopy
from cplab.errors import ConfigError
from cplab.verify import run_verification

VALID = b"[domain]\nkind = ball\na = 1.0\nn = 3\n[nonlinearity]\nform = constant\nc = 1.0\n"


@pytest.mark.parametrize("data, message", [
    (VALID + b"[continuation]\nt_step0 = nan\n", r"cfg:9: \[continuation\] t_step0 .* not finite"),
    (VALID + b"[solver]\ntol_lin = 1e-11\n", r"cfg:8: unknown section \[solver\]"),
    (VALID + b"[continuation]\nt_step_min = 1e-3\n",
     r"cfg:9: unknown key 't_step_min' in \[continuation\]"),
    (VALID + b"[oracle]\nN = -4\n", r"cfg:9: \[oracle\] N must be >= 9"),
    (VALID + b"[oracle]\nN = 97\n", r"cfg:9: \[oracle\] N must be <= 96 \(desk scale\)"),
    (VALID + b"[continuation]\nt_step0 = 0.11\n", r"cfg:9: \[continuation\] t_step0 must be <= 0\.1$"),
    (VALID + b"[run]\nuniqueness_seeds = -1\n", r"cfg:9: \[run\] uniqueness_seeds must be >= 1"),
    (VALID + b"[run]\nseed = 1\xff\n", r"cfg:9: not valid UTF-8"),
    (VALID.replace(b"a = 1.0", b"a = -1"),
     r"cfg:2: \[domain\] kind = ball: ball radius must be positive"),
    (VALID.replace(b"a = 1.0", b"a = nan"), r"cfg:3: \[domain\] a = 'nan' is not finite"),
    (VALID.replace(b"n = 3\n", b"n = 3\nb = nan\n"), r"cfg:5: \[domain\] b = 'nan' is not finite"),
    (VALID + b"lambda = abc\n", r"cfg:8: \[nonlinearity\] lambda = 'abc' is not a number"),
    (VALID + b"[output]\nemit_fields = maybe\n",
     r"cfg:9: \[output\] emit_fields = 'maybe' is not a boolean"),
    (VALID + b"[grid]\nnz = 16\n", r"cfg:9: \[grid\] nz must be odd, got 16$"),
    (VALID + b"[grid]\nnr = 100000\nnz = 100001\n",
     r"cfg:10: \[grid\] nz = 100001: the 100000 x 100001 grid has 10000100000 nodes, "
     r"above 1050625 \(desk scale\)$"),
    (VALID.replace(b"kind = ball\na = 1.0", b"kind = spheroid\na = 0.01\nb = 100"),
     r"cfg: \[grid\] nz derived from the domain's aspect: the 129 x 2560001 grid has "
     r"330240129 nodes, above 1050625 \(desk scale\); set \[grid\] nz"),
    (VALID.replace(b"n = 3\n", b"n = 3\ncoeffs = abc\nfile = nowhere.dat\n"),
     r"cfg:5: \[domain\] coeffs = 'abc' is not a list of numbers"),
    (VALID.replace(b"kind = ball", b"kind = bump\ncoeffs = 1 nan 1"),
     r"cfg:3: \[domain\] coeffs = '1 nan 1' is not finite"),
])
def test_rejected_values_name_their_line(tmp_path, data, message):
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=message):
        parse_config(path)


def test_upper_limits_are_inclusive(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(VALID + b"[continuation]\nt_step0 = 0.1\n[oracle]\nN = 96\n")
    cfg = parse_config(path)
    assert cfg.get("continuation", "t_step0") == 0.1
    assert cfg.get("oracle", "N") == 96


@pytest.mark.parametrize("nr, nz", [(385, 385), (1025, 1025)])
def test_grids_up_to_the_node_bound_parse(tmp_path, nr, nz):
    path = tmp_path / "run.cfg"
    path.write_bytes(VALID + f"[grid]\nnr = {nr}\nnz = {nz}\n".encode())
    cfg = parse_config(path)
    assert cfg.grid_shape(cfg.build_domain()) == (nr, nz)


def test_grid_below_nine_nodes_is_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    for key in ("nr", "nz"):
        path.write_bytes(VALID + f"[grid]\n{key} = 8\n".encode())
        with pytest.raises(ConfigError, match=rf"cfg:9: \[grid\] {key} must be >= 9$"):
            parse_config(path)


@pytest.mark.parametrize("function, param, section, key", [
    pytest.param(run_homotopy, "t_step0", "continuation", "t_step0",
                 id="run_homotopy-t_step0"),
    pytest.param(run_verification, "seeds", "run", "uniqueness_seeds",
                 id="run_verification-seeds"),
])
def test_defaults_are_the_library_defaults(function, param, section, key):
    assert SCHEMA[section][key].default == inspect.signature(function).parameters[param].default


# The required keys only: a section appended goes on line 7, its key on line 8.
REQUIRED_ONLY = b"[domain]\nkind = ball\na = 1.0\n[nonlinearity]\nform = constant\nc = 1.0\n"
BOUNDS = [pytest.param(section, key, bound, id=f"{section}-{key}-{bound}")
          for section, keys in SCHEMA.items() for key, spec in keys.items()
          for bound in ("low", "high") if getattr(spec, bound) is not None]


@pytest.mark.parametrize("section, key, bound", BOUNDS)
def test_every_bound_is_inclusive_and_rejects_one_step_beyond(tmp_path, section, key, bound):
    spec = SCHEMA[section][key]
    limit = getattr(spec, bound)
    sign = -1 if bound == "low" else 1
    beyond = limit + sign if spec.type is int else math.nextafter(limit, sign * math.inf)
    path = tmp_path / "run.cfg"
    path.write_bytes(REQUIRED_ONLY + f"[{section}]\n{key} = {limit!r}\n".encode())
    assert parse_config(path).get(section, key) == limit
    path.write_bytes(REQUIRED_ONLY + f"[{section}]\n{key} = {beyond!r}\n".encode())
    relation = f">= {limit}" if bound == "low" else f"<= {limit}{spec.note}"
    message = re.escape(f"cfg:8: [{section}] {key} must be {relation}") + "$"
    with pytest.raises(ConfigError, match=message):
        parse_config(path)


@pytest.mark.parametrize("section, key", [
    pytest.param(section, key, id=f"{section}-{key}")
    for section, keys in SCHEMA.items() for key, spec in keys.items()
    if spec.default is not None])
def test_an_unset_key_reads_its_default(tmp_path, section, key):
    spec = SCHEMA[section][key]
    assert isinstance(spec.default, spec.type)
    assert spec.low is None or spec.default >= spec.low
    assert spec.high is None or spec.default <= spec.high
    path = tmp_path / "run.cfg"
    path.write_bytes(REQUIRED_ONLY)
    assert parse_config(path).get(section, key) == spec.default


# A usable value for every key, so that many examples parse in full.
GOOD = {
    "kind": ["ball", "spheroid", "bump", "tabulated"],
    "form": ["constant", "affine", "gelfand", "power", "separable"],
    "n": ["3", "2", "4"], "a": ["1", "0.5"], "b": ["0.5", "2"],
    "coeffs": ["1 0 -2 0 1", "1 -1"], "file": ["profile.dat"],
    "lambda": ["1", "0.5"], "c": ["1", "0"], "p": ["2", "1"],
    "alpha": ["0", "1"], "beta": ["1", "0"], "nr": ["9", "33"], "nz": ["9", "33"],
    "t_step0": ["0.05"], "N": ["48", "9"],
    "directory": ["out"], "emit_fields": ["false", "true"],
    "seed": ["0", "7"], "uniqueness_seeds": ["5", "1"],
}
HOSTILE = st.one_of(
    st.sampled_from(["0", "-1", "2", "1e-3", "nan", "inf", "-inf", "1e308", "5e-324",
                     "1e999", "", "abc", "1 abc", "1 nan", "0 1", "run.cfg", "."]),
    st.floats().map(repr),
    st.integers(-1000, 1000).map(str),
    st.text(max_size=8))


def value_for(key):
    """Mostly a usable value, one time in ten a hostile one."""
    return st.sampled_from([False] * 9 + [True]).flatmap(
        lambda hostile: HOSTILE if hostile else st.sampled_from(GOOD[key]))


@st.composite
def config_bytes(draw):
    """Config files built from SCHEMA sections and keys, with hostile values.

    [domain] kind and [nonlinearity] form come first and are usually
    present, so most examples get past the required-key check.
    """
    chunks = []

    def section(name, keys):
        chunks.append(f"[{name}]\n".encode())
        for key in keys:
            value = draw(value_for(key))
            chunks.append(f"{key} = {value}\n".encode())

    for name, first in (("domain", "kind"), ("nonlinearity", "form")):
        rest = sorted(SCHEMA[name].keys() - {first})
        keys = draw(st.lists(st.sampled_from(rest), max_size=len(rest), unique=True))
        section(name, ([first] if draw(st.sampled_from([True] * 9 + [False])) else [])
                + keys)
    others = sorted(SCHEMA.keys() - {"domain", "nonlinearity"})
    for name in draw(st.lists(st.sampled_from(others), max_size=4, unique=True)):
        keys = sorted(SCHEMA[name])
        section(name, draw(st.lists(st.sampled_from(keys), max_size=len(keys), unique=True)))
    if draw(st.sampled_from([False] * 4 + [True])):
        at = draw(st.integers(0, len(chunks)))
        chunks.insert(at, draw(st.binary(min_size=1, max_size=4)))
    return b"".join(chunks)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=config_bytes())
def test_any_config_parses_or_raises_config_error(tmp_path, data):
    (tmp_path / "profile.dat").write_text("0 1\n0.5 0.8\n1 0\n")
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    try:
        cfg = parse_config(path)
        for (section, key), (value, _) in cfg.values.items():
            assert isinstance(value, SCHEMA[section][key].type)
            assert value == cfg.get(section, key)
            if isinstance(value, list):
                assert all(isinstance(x, float) and math.isfinite(x) for x in value)
        d = cfg.build_domain()
        cfg.build_nonlinearity()
        cfg.grid_shape(d)
    except ConfigError:
        pass
