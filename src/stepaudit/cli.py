"""Command-line front end: verify | audit | density | bounds.

Configuration comes from an optional JSON file plus flags (flags win).
Schedules and envelopes use a ``name:key=value,...`` mini-syntax.  Exit
codes: 0 success, 1 assertion/validation failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import bounds as bnd
from . import schedules as sched
from .errors import ConstructionError, InvalidParameterError
from .harness import (
    FAMILIES,
    ExperimentSpec,
    audit_schedule,
    chain_check,
    chain_horizon,
    density_experiment,
    empirical_audit,
    verify_trajectories,
)

OUT_ENV_VAR = "STEPAUDIT_OUT"


class UsageError(Exception):
    """Configuration problem; maps to exit code 2."""


def _table_schedule(path: str) -> sched.StepSchedule:
    if not path:
        raise UsageError("schedule 'table' needs a file path: table:PATH")
    if not os.path.exists(path):
        raise UsageError(f"schedule table file not found: {path}")
    return sched.from_csv(path)


# name -> (builder, default of each key); ``None`` in place of the keys
# passes the text after the colon as one argument.  Builders look their
# targets up when called, so a wrapper installed on the module is seen.
_SCHEDULES = {
    "sqrt_decay": (lambda **kw: sched.sqrt_decay(**kw), {"D": 1.0, "G": 1.0}),
    "constant": (lambda **kw: sched.constant(**kw), {"c": 0.0}),
    "table": (_table_schedule, None),
    "doubling_sqrt": (lambda **kw: sched.doubling_sqrt(**kw), {"D": 1.0, "G": 1.0}),
}
_ENVELOPES = {
    "log": (lambda **kw: bnd.log_envelope(**kw), {"offset": 8.0, "coef": 4.0}),
    "const": (lambda **kw: bnd.constant_envelope(**kw), {"c": 1.0}),
    "empirical": (lambda: "empirical", {}),
}


def _grammar(table: dict) -> str:
    """The spec forms of ``table``, each with its keys and their defaults."""
    forms = []
    for name, (_, defaults) in table.items():
        keys = ",".join(f"{key}={val:g}" for key, val in (defaults or {}).items())
        forms.append(f"{name}:PATH" if defaults is None else f"{name}[:{keys}]" if keys else name)
    return " | ".join(forms)


def _parse_spec(text: str, table: dict, what: str):
    """Build the ``name:key=value,...`` spec ``text`` from the rows of ``table``."""
    name, _, body = text.partition(":")
    name = name.strip().lower()
    if name not in table:
        raise UsageError(f"unknown {what} {name!r} (try {_grammar(table)})")
    build, defaults = table[name]
    try:
        if defaults is None:
            return build(body)
        kwargs, given = dict(defaults), set()
        for part in body.split(",") if body else ():
            key, eq, val = (s.strip() for s in part.partition("="))
            if not eq or key not in defaults or key in given:
                problem = "expected key=value, got" if not eq else "repeated key" if key in given else "unknown key"
                allowed = ", ".join(defaults) or "no keys"
                raise UsageError(f"bad {what} spec {text!r}: {problem} {key!r} ({name} takes {allowed})")
            given.add(key)
            kwargs[key] = float(val)
        return build(**kwargs)
    except (ValueError, InvalidParameterError, OSError) as exc:
        raise UsageError(f"bad {what} spec {text!r}: {exc}") from exc


def _parse_horizons(text: str) -> list[int]:
    text = text.strip()
    if text.startswith("pow2:"):
        body = text[len("pow2:") :]
        try:
            lo_s, hi_s = body.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise UsageError(f"bad horizons range {text!r}; expected pow2:LO-HI") from exc
        if lo < 1 or hi < lo:
            raise UsageError(f"bad horizons range {text!r}")
        out = []
        v = 1
        while v <= hi:
            if v >= lo:
                out.append(v)
            v *= 2
        if not out:
            raise UsageError(f"range {text!r} contains no powers of two")
        return out
    try:
        return sorted({int(v) for v in text.split(",") if v.strip()})
    except ValueError as exc:
        raise UsageError(f"bad horizons list {text!r}") from exc


def _parse_thresholds(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad thresholds list {text!r}") from exc


def _config_value(key: str, val):
    """Convert one config-file value as its text would convert as a flag."""
    kind = _OPTIONS[key][0]
    if isinstance(val, bool) == (kind is bool) and isinstance(val, (int, float, str)):
        try:
            return val if kind is bool else kind(str(val))
        except ValueError:
            pass
    raise UsageError(f"config field {key!r} must be {kind.__name__}, got {val!r}")


def _resolve_config(args: argparse.Namespace) -> dict:
    # only the subcommand's own fields: the header records what the run took
    merged = {key: default for key, (_, default, commands, _) in _OPTIONS.items() if args.command in commands}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object, not {type(loaded).__name__}")
        unknown = set(loaded) - merged.keys()
        if unknown:
            raise UsageError(f"unknown config fields for {args.command}: {sorted(unknown)}")
        merged.update({key: _config_value(key, val) for key, val in loaded.items() if val is not None})
    for key in merged:
        val = getattr(args, key)
        if val is not None and val is not False:
            merged[key] = val
    merged["command"] = args.command
    return merged


def _out_dir(config: dict) -> Path:
    """Make the output directory; each subcommand calls this after its last
    check that can exit 2, just before it writes its first output."""
    out = config.get("out") or os.environ.get(OUT_ENV_VAR) or "out"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"output directory {out!r} is not writable: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise UsageError(f"output directory {out!r} is not writable")
    return path


def _header(config: dict) -> str:
    return f"stepaudit {__version__} config={json.dumps(config, sort_keys=True, default=str)}"


def _write_json(path: Path, payload: dict, config: dict) -> None:
    payload = {"meta": {"tool": f"stepaudit {__version__}", "config": config}, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")


def _spec_from_config(config: dict, horizons: list[int], families: list[str]) -> tuple[ExperimentSpec, bool]:
    """The run's spec, and whether its envelope is ``empirical``: audit then
    draws it from the runs of a first pass under the default envelope."""
    schedule = _parse_spec(config["schedule"], _SCHEDULES, "schedule")
    envelope = _parse_spec(config["phi"], _ENVELOPES, "envelope")
    empirical = envelope == "empirical"
    if empirical and config["command"] != "audit":  # only audit resolves it from its own runs
        raise UsageError(f"{config['command']} needs a concrete envelope (field 'phi'), not 'empirical'")
    if config["workers"] < 1:  # checked, though it has no effect: see harness._map_tasks
        raise UsageError("workers must be >= 1")
    spec = ExperimentSpec(
        schedule=schedule,
        horizons=horizons,
        families=tuple(families),
        envelope=bnd.log_envelope() if empirical else envelope,
        shrink=config.get("shrink", ExperimentSpec.shrink),  # bounds builds no vshape
    )
    return spec, empirical


def _horizons_from(config: dict) -> list[int]:
    if config.get("horizons") is not None and config.get("T") is not None:
        raise UsageError("give --T or --horizons, not both")
    if config.get("horizons") is not None:
        return _parse_horizons(config["horizons"])
    if config.get("T") is not None:
        return [config["T"]]
    raise UsageError("missing horizons: pass --T or --horizons")


def _families_from(config: dict, single: bool) -> list[str]:
    return [f.strip() for f in config["family" if single else "families"].split(",") if f.strip()]


def cmd_verify(config: dict) -> int:
    """Check simulated trajectories against closed forms."""
    spec, _ = _spec_from_config(config, _horizons_from(config), _families_from(config, single=False))
    report = verify_trajectories(spec)
    hard_skips = [e for e in report.entries if "skipped" in e]
    if hard_skips:
        # verify is strict: a family that cannot be built is a config error
        raise UsageError(f"cannot verify: {hard_skips[0]['family']} at T={hard_skips[0]['T']}: {hard_skips[0]['skipped']}")
    out = _out_dir(config)
    _write_json(out / "verify_report.json", dataclasses.asdict(report), config)
    line = f"verify: max deviation {report.max_deviation:.3e}"
    failed = [e for e in report.entries if not e["passed"]]
    if failed:
        e = failed[0]
        dev = max(e["max_coord_deviation"], e["max_error_deviation"])
        line += f"; first failing entry {e['family']} at T={e['T']}: deviation {dev:.3e} > tolerance {e['tolerance']:.3e}"
    print(f"{line}; report at {out / 'verify_report.json'}")
    return 0 if report.passed else 1


def cmd_audit(config: dict) -> int:
    """Run certified floors against measured errors per horizon."""
    spec, empirical = _spec_from_config(config, _horizons_from(config), _families_from(config, single=False))
    result = empirical_audit(spec) if empirical else audit_schedule(spec)
    out = _out_dir(config)
    result.report.write_csv(out / "bound_report.csv", header=_header(config))
    _write_json(out / "audit_summary.json", result.summary(), config)
    if config.get("dump_instances"):
        _write_json(out / "instances.json", {"instances": result.instances}, config)
    n_pass = sum(1 for a in result.assertions if a["passed"])
    line = f"audit: {n_pass}/{len(result.assertions)} assertions passed, {len(result.skipped)} skipped"
    validation = result.envelope_validation
    if validation["gating"] and not validation["passed"]:
        line += f"; envelope validation failed: {validation['failures'][0]}"
    print(f"{line}; outputs in {out}")
    return 0 if result.passed else 1


def cmd_density(config: dict) -> int:
    """Measure how often scaled errors clear thresholds."""
    spec, _ = _spec_from_config(config, _horizons_from(config), _families_from(config, single=True))
    thresholds = _parse_thresholds(config["thresholds"])
    table = density_experiment(spec, thresholds, per_t=bool(config.get("per_t")))
    out = _out_dir(config)
    table.write_csv(out / "density.csv", header=_header(config))
    table.write_profile_csv(out / "density_profile.csv", header=_header(config))
    line = f"density ({table.mode}): {len(table.rows)} rows"
    if table.skipped:
        t, reason = min(table.skipped)
        line += f"; {len(table.skipped)} of {table.builds} per-t builds skipped, first at t={t}: {reason}"
    print(f"{line}; outputs in {out}")
    return 0


def cmd_bounds(config: dict) -> int:
    """Analytic bound table and proof-chain replay (no simulation)."""
    horizons = _horizons_from(config)
    chain_horizon(max(horizons, default=0))  # before the spec materialises the schedule
    spec, _ = _spec_from_config(config, horizons, ["maxlinear"])
    rows = [bnd.bound_row(spec.schedule, t, spec.envelope) for t in spec.horizons]
    report = bnd.BoundReport(spec.schedule.label, spec.envelope.label, FAMILIES, rows)
    chain = chain_check(spec, rows=bool(config.get("rows")))
    out = _out_dir(config)
    report.write_csv(out / "bound_report.csv", header=_header(config))
    _write_json(out / "chain_report.json", dataclasses.asdict(chain), config)
    line = f"bounds: chain {'passed' if chain.passed else 'FAILED'}"
    if chain.inconclusive:
        line += f" ({len(chain.inconclusive)} steps inconclusive at this T)"
    failed = [s for s in chain.steps if s["status"] == "fail"]
    if failed:
        where = f" at t={failed[0]['t']}" if "t" in failed[0] else ""
        line += f"; first failing step {failed[0]['step']}{where}"
    if not chain.validation["passed"]:
        line += f"; envelope validation failed: {chain.validation['failures'][0]}"
    print(f"{line}; outputs in {out}")
    return 0 if chain.passed else 1


_COMMANDS = {"verify": cmd_verify, "audit": cmd_audit, "density": cmd_density, "bounds": cmd_bounds}
_ALL = tuple(_COMMANDS)

# field -> (type, default, subcommands that take it, help); a bool field
# is a switch.  The config file may set the fields its subcommand takes.
_OPTIONS = {
    "schedule": (str, "sqrt_decay:D=2,G=1", _ALL, f"schedule spec: {_grammar(_SCHEDULES)}"),
    "phi": (str, "log", _ALL, f"envelope spec: {_grammar(_ENVELOPES)}"),
    "families": (str, ",".join(FAMILIES), ("verify", "audit"), f"comma list from {','.join(FAMILIES)}"),
    "family": (str, "maxlinear", ("density",), "a single family"),
    "horizons": (str, None, _ALL, "comma list (8,64,512) or pow2:LO-HI"),
    "T": (int, None, _ALL, "single horizon"),
    "thresholds": (str, "0,0.5,1", ("density",), "comma list of thresholds; 'inf' allowed"),
    "out": (str, None, _ALL, f"output directory (default ${OUT_ENV_VAR} or ./out)"),
    "workers": (int, 1, _ALL, "accepted (an int >= 1) but ignored: work runs on one thread"),
    "shrink": (float, 1e-6, ("verify", "audit", "density"), "vshape kink shrink factor"),
    "per_t": (bool, False, ("density",), "build a fresh instance per stopping time (cubic cost)"),
    "dump_instances": (bool, False, ("audit",), "also write every built instance to instances.json"),
    "rows": (bool, False, ("bounds",), "write every quartic_floor row to chain_report.json, not one summary step"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepaudit",
        description="Audit anytime last-iterate error floors of projected subgradient descent.",
    )
    parser.add_argument("--version", action="version", version=f"stepaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for key, (kind, default, commands, text) in _OPTIONS.items():
            if command not in commands:
                continue
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, type=kind, help=text if default is None else f"{text} (default {default})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except (UsageError, InvalidParameterError, ConstructionError, FileNotFoundError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
