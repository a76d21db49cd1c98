"""Command-line front end: fit, simulate, sweep, diagnose.

Configuration precedence is flags over config file over defaults, and every
output document echoes the fully resolved configuration. Exit codes are
stable: 0 success, 2 config/parse error, 3 nonconvergence, 4 numerical
failure. Data files are single-column CSV (optional header, UTF-8, decimal
point); malformed rows are reported with their line numbers.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .asymptotics import DiagnosticsConfig, diagnose_regularity
from .divergence import DpdConfig
from .errors import (ConfigError, DomainError, IngestionError, MindpdError,
                     NonconvergenceError)
from .estimation import FitConfig, fit, fit_path
from .families import FAMILIES, Mixture, get_family, model_density
from .montecarlo import (CONSISTENCY, NORMALITY, McConfig, efficiency_curve,
                         run_consistency_study, run_normality_study)
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_NUMERICAL = 4


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------

def read_data_csv(path):
    """Single numeric column, optional header line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IngestionError(f"cannot read data file {path}: {exc}")
    values = []
    for i, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        field = text.split(",")[0].strip()
        try:
            values.append(float(field))
        except ValueError:
            if i == 1 and not values:
                continue  # header
            raise IngestionError(
                f"{path}: line {i}: cannot parse {field!r} as a number",
                line=i)
    if not values:
        raise IngestionError(f"{path}: no numeric rows found")
    return np.array(values)


def parse_generator(text):
    """Mixture spec: inline JSON, @file holding JSON, or the shorthand
    'w*family:p1,p2+w*family:p1,p2' (weights optional when they sum to 1
    implicitly, i.e. a single component)."""
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read generator file {text[1:]}: {exc}")
    try:
        if text.startswith("{"):
            comps = [(get_family(c["family"], **c.get("args", {})),
                      np.array(c["theta"], dtype=float),
                      float(c.get("weight", 1.0)))
                     for c in json.loads(text).get("components", [])]
        else:
            comps = [_shorthand_component(part) for part in text.split("+")]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator spec {text!r}: {exc!r}") from None
    if not comps:
        raise ConfigError("generator JSON has no components")
    return Mixture(comps)


def _shorthand_component(part):
    part = part.strip()
    weight = 1.0
    if "*" in part:
        w, part = part.split("*", 1)
        weight = float(w)
    if ":" not in part:
        raise ConfigError(
            f"bad generator component {part!r}; expected family:p1,p2")
    name, params = part.split(":", 1)
    fam = get_family(name.strip())
    return fam, np.array([float(v) for v in params.split(",")]), weight


def _numbers(resolved, key, kind=float):
    """An option holding comma-separated numbers, as a tuple."""
    text = resolved[key]
    try:
        return tuple(kind(v) for v in str(text).split(","))
    except ValueError:
        raise ConfigError(f"--{key.replace('_', '-')}: expected "
                          f"comma-separated numbers, got {text!r}") from None


def _number(resolved, key, kind=float):
    try:
        return kind(resolved[key])
    except (TypeError, ValueError):
        raise ConfigError(f"--{key.replace('_', '-')}: expected a number, "
                          f"got {resolved[key]!r}") from None


def _config(fn, *args, **kwargs):
    """Build a settings object, or run a call that validates its settings
    first (fit_path checks the alpha grid); ValueErrors are config errors."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


# options used as text; numeric options are converted where they are read
_STRING_OPTIONS = ("family", "data", "generator", "out", "format", "study")


def resolve_options(args, defaults):
    """flags > config file > defaults; returns the resolved dict."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_opts = _load_config_file(args.config)
        unknown = set(file_opts) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown config keys: {sorted(unknown)}")
        for key in _STRING_OPTIONS:
            val = file_opts.get(key)
            if val is not None and not isinstance(val, str):
                raise ConfigError(f"config key {key!r} must be a string, "
                                  f"got {val!r}")
        resolved.update(file_opts)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


def _require(resolved, key, command):
    if resolved.get(key) in (None, ""):
        raise ConfigError(f"'{command}' requires --{key.replace('_', '-')}")
    return resolved[key]


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check_format(resolved, expected, command):
    """Output formats are fixed per command (JSON documents for fit and
    diagnose, CSV tables for sweep and simulate); --format only confirms."""
    fmt = resolved.get("format")
    if fmt is not None and fmt != expected:
        raise ConfigError(
            f"'{command}' writes {expected} output; --format {fmt} is not "
            f"available")


def _quad_from(resolved):
    return _config(QuadratureSpec, nodes=_number(resolved, "quad_nodes", int))


def _fit_cfg_from(resolved):
    return _config(FitConfig, starts=_number(resolved, "starts", int),
                   seed=_number(resolved, "seed", int),
                   wald_level=_number(resolved, "level"))


_COMMON_DEFAULTS = {
    "family": None, "seed": 0, "out": None, "format": None,
    "quad_nodes": 128, "starts": 5, "level": 0.95,
}


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_fit(args):
    defaults = dict(_COMMON_DEFAULTS, alpha=0.0, data=None)
    resolved = resolve_options(args, defaults)
    _check_format(resolved, "json", "fit")
    family = _require(resolved, "family", "fit")
    data_path = _require(resolved, "data", "fit")
    fam = get_family(family)
    data = read_data_csv(data_path)
    cfg = DpdConfig(alpha=_number(resolved, "alpha"),
                    quad=_quad_from(resolved))
    result = fit(fam, data, cfg, _fit_cfg_from(resolved))
    doc = result.to_dict()
    doc["resolved_config"] = {k: resolved[k] for k in sorted(resolved)
                              if k != "out"}
    _write_text(resolved["out"], _json_text(doc))
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def cmd_simulate(args):
    defaults = dict(_COMMON_DEFAULTS, alpha="0.5", generator=None,
                    study=NORMALITY, n="1000", reps=100, workers=0,
                    theta_true=None)
    defaults["starts"] = 2
    resolved = resolve_options(args, defaults)
    _check_format(resolved, "csv", "simulate")
    family = _require(resolved, "family", "simulate")
    gen_spec = _require(resolved, "generator", "simulate")
    out = _require(resolved, "out", "simulate")
    fam = get_family(family)
    gen = parse_generator(gen_spec)
    study = resolved["study"]
    if study not in (NORMALITY, CONSISTENCY):
        raise ConfigError(f"unknown study {study!r}")
    theta_true = resolved["theta_true"]
    if isinstance(theta_true, str):
        theta_true = _numbers(resolved, "theta_true")
    cfg = _config(
        McConfig, alphas=_numbers(resolved, "alpha"),
        n_grid=_numbers(resolved, "n", int),
        reps=_number(resolved, "reps", int),
        master_seed=_number(resolved, "seed", int),
        workers=_number(resolved, "workers", int), quad=_quad_from(resolved),
        fit=_fit_cfg_from(resolved),
        theta_true=theta_true)
    runner = (run_normality_study if study == NORMALITY
              else run_consistency_study)
    report = runner(gen, fam, cfg)
    os.makedirs(out, exist_ok=True)
    _write_text(os.path.join(out, "replications.csv"),
                report.replication_csv())
    summary = report.summary_dict()
    summary["resolved_config"] = {k: resolved[k] for k in sorted(resolved)
                                  if k != "out"}
    _write_text(os.path.join(out, "summary.json"), _json_text(summary))
    return EXIT_OK


def cmd_sweep(args):
    defaults = dict(_COMMON_DEFAULTS, alpha_grid="0,0.25,0.5,0.75,1",
                    data=None, theta=None)
    resolved = resolve_options(args, defaults)
    _check_format(resolved, "csv", "sweep")
    family = _require(resolved, "family", "sweep")
    fam = get_family(family)
    grid = _numbers(resolved, "alpha_grid")
    if resolved["out"] not in (None, "-"):
        # provenance sidecar: the CSV itself stays plot-ready
        _write_text(resolved["out"] + ".config.json", _json_text(
            {k: resolved[k] for k in sorted(resolved) if k != "out"}))
    if resolved["data"]:
        data = read_data_csv(resolved["data"])
        path = _config(fit_path, fam, data, grid, _fit_cfg_from(resolved),
                       quad=_quad_from(resolved))
        cols = (["alpha", "converged", "error"]
                + [f"est_{p}" for p in fam.param_names]
                + [f"se_{p}" for p in fam.param_names])
        lines = [",".join(cols)]
        for a, r, err in zip(path.alphas, path.results, path.errors):
            if r is None:
                row = [repr(a), "0", (err or "").replace(",", ";")]
                row += ["nan"] * (2 * fam.p)
            else:
                ses = (r.standard_errors if r.standard_errors is not None
                       else [float("nan")] * fam.p)
                row = ([repr(a), str(int(r.converged)), ""]
                       + [repr(float(t)) for t in r.theta_hat]
                       + [repr(float(s)) for s in ses])
            lines.append(",".join(row))
        _write_text(resolved["out"], "\n".join(lines) + "\n")
        return EXIT_OK
    if resolved["theta"] is None:
        raise ConfigError("sweep needs --data (fit sweep) or --theta "
                          "(efficiency sweep)")
    theta = np.array(_numbers(resolved, "theta"))
    rows = efficiency_curve(fam, theta, grid, quad=_quad_from(resolved))
    cols = ["alpha"] + [f"are_{p}" for p in fam.param_names]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join([repr(r["alpha"])]
                              + [repr(v) for v in r["are"]]))
    _write_text(resolved["out"], "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_diagnose(args):
    defaults = dict(_COMMON_DEFAULTS, alpha=0.5, data=None, theta=None,
                    generator=None)
    resolved = resolve_options(args, defaults)
    _check_format(resolved, "json", "diagnose")
    family = _require(resolved, "family", "diagnose")
    fam = get_family(family)
    cfg = DpdConfig(alpha=_number(resolved, "alpha"),
                    quad=_quad_from(resolved))
    if resolved["theta"] is not None:
        theta0 = np.array(_numbers(resolved, "theta"))
    elif resolved["data"]:
        data = read_data_csv(resolved["data"])
        theta0 = fit(fam, data, cfg, _fit_cfg_from(resolved)).theta_hat
    else:
        raise ConfigError("diagnose needs --theta or --data")
    gen = (parse_generator(resolved["generator"]) if resolved["generator"]
           else model_density(fam, theta0))
    report = diagnose_regularity(fam, theta0, gen, cfg, DiagnosticsConfig())
    doc = report.to_dict()
    doc["resolved_config"] = {k: resolved[k] for k in sorted(resolved)
                              if k != "out"}
    sys.stdout.write(report.render_text() + "\n")
    if resolved["out"]:
        _write_text(resolved["out"], _json_text(doc))
    return EXIT_OK


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mindpd",
        description="Robust parametric estimation by minimum density "
                    "power divergence.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", choices=sorted(FAMILIES))
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--quad-nodes", dest="quad_nodes", type=int)
        p.add_argument("--starts", type=int)
        p.add_argument("--level", type=float)

    p_fit = sub.add_parser("fit", help="fit one data file")
    common(p_fit)
    p_fit.add_argument("--alpha", type=float)
    p_fit.add_argument("--data")
    p_fit.set_defaults(run=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    common(p_sim)
    p_sim.add_argument("--alpha", help="comma-separated tuning constants")
    p_sim.add_argument("--generator", help="mixture spec (JSON, @file, or "
                                           "'w*family:p1,p2+...')")
    p_sim.add_argument("--study", choices=[NORMALITY, CONSISTENCY])
    p_sim.add_argument("--n", help="comma-separated sample sizes")
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--workers", type=int,
                       help="process count (default MINDPD_WORKERS or 1)")
    p_sim.add_argument("--theta-true", dest="theta_true",
                       help="known target parameters (comma-separated)")
    p_sim.set_defaults(run=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="alpha sweep (data fit path or "
                                           "efficiency curve)")
    common(p_sweep)
    p_sweep.add_argument("--alpha-grid", dest="alpha_grid")
    p_sweep.add_argument("--data")
    p_sweep.add_argument("--theta", help="model point for efficiency sweeps")
    p_sweep.set_defaults(run=cmd_sweep)

    p_diag = sub.add_parser("diagnose", help="regularity diagnostics")
    common(p_diag)
    p_diag.add_argument("--alpha", type=float)
    p_diag.add_argument("--theta")
    p_diag.add_argument("--data")
    p_diag.add_argument("--generator")
    p_diag.set_defaults(run=cmd_diagnose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, IngestionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonconvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except MindpdError as exc:
        # numerical, estimation and study failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
