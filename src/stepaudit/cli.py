"""Command-line front end: verify | audit | density | bounds.

Configuration comes from an optional JSON file plus flags (flags win).
Schedules and envelopes use a ``name:key=value,...`` mini-syntax.  Exit
codes: 0 success, 1 assertion/validation failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
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
    Tolerances,
    audit_schedule,
    chain_check,
    density_experiment,
    verify_trajectories,
)

OUT_ENV_VAR = "STEPAUDIT_OUT"

_DEFAULTS = {
    "schedule": "sqrt_decay:D=2,G=1",
    "phi": "log",
    "families": ",".join(FAMILIES),
    "family": "maxlinear",
    "horizons": None,
    "T": None,
    "thresholds": "0,0.5,1",
    "out": None,
    "workers": 1,
    "seed": 0,
    "shrink": 1e-6,
    "per_t": False,
    "dump_instances": False,
    "rows": False,
}


# the type a config-file value converts to; every other field is a string
_FIELD_TYPES = {
    "T": int, "workers": int, "seed": int, "shrink": float, "per_t": bool, "dump_instances": bool, "rows": bool,
}


class UsageError(Exception):
    """Configuration problem; maps to exit code 2."""


def _parse_kv(body: str) -> dict[str, str]:
    out = {}
    if not body:
        return out
    for part in body.split(","):
        if "=" not in part:
            raise UsageError(f"expected key=value in {body!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _parse_schedule(text: str) -> sched.StepSchedule:
    name, _, body = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "sqrt_decay":
            kv = _parse_kv(body)
            return sched.sqrt_decay(float(kv.get("D", 1.0)), float(kv.get("G", 1.0)))
        if name == "constant":
            kv = _parse_kv(body)
            return sched.constant(float(kv.get("c", 0.0)))
        if name == "table":
            if not body:
                raise UsageError("schedule 'table' needs a file path: table:PATH")
            if not os.path.exists(body):
                raise UsageError(f"schedule table file not found: {body}")
            return sched.from_csv(body)
        if name == "doubling_sqrt":
            kv = _parse_kv(body)
            D = float(kv.get("D", 1.0))
            G = float(kv.get("G", 1.0))
            if D <= 0 or G <= 0:
                raise UsageError("doubling_sqrt requires D > 0 and G > 0")
            return sched.doubling_concat(
                lambda n: [D / (G * n**0.5)] * n,
                label=f"doubling_sqrt(D={D:g},G={G:g})",
            )
    except (ValueError, InvalidParameterError, OSError) as exc:
        raise UsageError(f"bad schedule spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown schedule {name!r} (try sqrt_decay | constant | table | doubling_sqrt)")


def _parse_envelope(text: str):
    name, _, body = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "log":
            kv = _parse_kv(body)
            return bnd.log_envelope(float(kv.get("offset", 8.0)), float(kv.get("coef", 4.0)))
        if name == "one":
            return bnd.constant_envelope(1.0)
        if name == "const":
            kv = _parse_kv(body)
            return bnd.constant_envelope(float(kv.get("c", 1.0)))
        if name == "empirical":
            return "empirical"
    except (ValueError, InvalidParameterError) as exc:
        raise UsageError(f"bad envelope spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown envelope {name!r} (try log | one | const:c=... | empirical)")


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
        out = sorted({int(v) for v in text.split(",") if v.strip()})
    except ValueError as exc:
        raise UsageError(f"bad horizons list {text!r}") from exc
    if not out or out[0] < 1:
        raise UsageError(f"horizons must be integers >= 1, got {text!r}")
    return out


def _parse_thresholds(text: str) -> list[float]:
    try:
        vals = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad thresholds list {text!r}") from exc
    if not vals:
        raise UsageError("thresholds list is empty")
    if any(math.isnan(v) for v in vals):
        raise UsageError(f"thresholds must be numbers or inf, got {text!r}")
    return vals


def _config_value(key: str, val):
    """Convert one config-file value to its field's type."""
    kind = _FIELD_TYPES.get(key, str)
    if isinstance(val, bool) == (kind is bool) and isinstance(val, (int, float, str)):
        try:
            return kind(val)
        except (ValueError, OverflowError):
            pass
    raise UsageError(f"config field {key!r} must be {kind.__name__}, got {val!r}")


def _resolve_config(args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}") from exc
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        merged.update({key: _config_value(key, val) for key, val in loaded.items() if val is not None})
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None and val is not False:
            merged[key] = val
    merged["command"] = args.command
    return merged


def _out_dir(config: dict) -> Path:
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


def _spec_from_config(config: dict, horizons: list[int], families: list[str]) -> ExperimentSpec:
    schedule = _parse_schedule(config["schedule"])
    envelope = _parse_envelope(config["phi"])
    return ExperimentSpec(
        schedule=schedule,
        horizons=horizons,
        families=tuple(families),
        envelope=envelope,
        tolerances=Tolerances(),
        shrink=config["shrink"],
        workers=config["workers"],
    )


def _horizons_from(config: dict) -> list[int]:
    if config.get("horizons") is not None:
        return _parse_horizons(config["horizons"])
    if config.get("T") is not None:
        if config["T"] < 1:
            raise UsageError(f"T must be >= 1, got {config['T']}")
        return [config["T"]]
    raise UsageError("missing horizons: pass --T or --horizons")


def _families_from(config: dict, single: bool) -> list[str]:
    key = "family" if single else "families"
    fams = [f.strip() for f in config[key].split(",") if f.strip()]
    if single and len(fams) != 1:
        raise UsageError(f"--family expects exactly one family, got {fams}")
    return fams


def cmd_verify(config: dict) -> int:
    spec = _spec_from_config(config, _horizons_from(config), _families_from(config, single=False))
    if spec.envelope == "empirical":
        raise UsageError("verify needs a concrete envelope (field 'phi'), not 'empirical'")
    out = _out_dir(config)
    try:
        report = verify_trajectories(spec)
    except ConstructionError as exc:
        raise UsageError(str(exc)) from exc
    hard_skips = [e for e in report.entries if "skipped" in e]
    if hard_skips:
        # verify is strict: a family that cannot be built is a config error
        raise UsageError(f"cannot verify: {hard_skips[0]['family']} at T={hard_skips[0]['T']}: {hard_skips[0]['skipped']}")
    _write_json(out / "verify_report.json", report.to_dict(), config)
    line = f"verify: max deviation {report.max_deviation:.3e}"
    failed = [e for e in report.entries if not e["passed"]]
    if failed:
        e = failed[0]
        dev = max(e["max_coord_deviation"], e["max_error_deviation"])
        line += f"; first failing entry {e['family']} at T={e['T']}: deviation {dev:.3e} > tolerance {e['tolerance']:.3e}"
    print(f"{line}; report at {out / 'verify_report.json'}")
    return 0 if report.passed else 1


def cmd_audit(config: dict) -> int:
    spec = _spec_from_config(config, _horizons_from(config), _families_from(config, single=False))
    out = _out_dir(config)
    result = audit_schedule(spec)
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
    spec = _spec_from_config(config, _horizons_from(config), _families_from(config, single=True))
    thresholds = _parse_thresholds(config["thresholds"])
    out = _out_dir(config)
    table = density_experiment(spec, thresholds, per_t=bool(config.get("per_t")))
    table.write_csv(out / "density.csv", header=_header(config))
    table.write_profile_csv(out / "density_profile.csv", header=_header(config))
    line = f"density ({table.mode}): {len(table.rows)} rows"
    if table.skipped:
        t, reason = min(table.skipped)
        line += f"; {len(table.skipped)} of {table.builds} per-t builds skipped, first at t={t}: {reason}"
    print(f"{line}; outputs in {out}")
    return 0


def cmd_bounds(config: dict) -> int:
    horizons = _horizons_from(config)
    T = max(horizons)
    if T % 2 != 0 or T < 4:
        raise UsageError("chain check requires even T >= 4")
    spec = _spec_from_config(config, horizons, ["maxlinear"])
    if spec.envelope == "empirical":
        raise UsageError("bounds needs a concrete envelope (field 'phi'), not 'empirical'")
    phi = spec.resolved_envelope()
    out = _out_dir(config)
    report = bnd.BoundReport(
        schedule_label=spec.schedule.label,
        envelope_label=phi.label,
        rows=[bnd.bound_row(spec.schedule, t, phi) for t in horizons],
    )
    report.write_csv(out / "bound_report.csv", header=_header(config))
    chain = chain_check(spec.schedule, phi, T, rows=bool(config.get("rows")))
    _write_json(out / "chain_report.json", chain.to_dict(), config)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepaudit",
        description="Audit anytime last-iterate error floors of projected subgradient descent.",
    )
    parser.add_argument("--version", action="version", version=f"stepaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--schedule", help="schedule spec, e.g. sqrt_decay:D=2,G=1 | constant:c=0.5 | table:PATH")
        p.add_argument("--phi", help="envelope spec: log[:offset=..,coef=..] | one | const:c=.. | empirical")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./out)")
        p.add_argument("--workers", type=int, help="accepted (an int >= 1) but ignored: work runs on one thread")
        p.add_argument("--seed", type=int, help="accepted for interface compatibility; pipeline is deterministic")
        p.add_argument("--shrink", type=float, help="vshape kink shrink factor (default 1e-6)")
        p.add_argument("--T", type=int, help="single horizon")
        p.add_argument("--horizons", help="comma list (8,64,512) or pow2:LO-HI")

    p = sub.add_parser("verify", help="check simulated trajectories against closed forms")
    common(p)
    p.add_argument("--families", help=f"comma list from {','.join(FAMILIES)}")
    p.add_argument("--family", help="shorthand for a single family")

    p = sub.add_parser("audit", help="run certified floors against measured errors per horizon")
    common(p)
    p.add_argument("--families", help=f"comma list from {','.join(FAMILIES)}")
    p.add_argument("--dump-instances", dest="dump_instances", action="store_true", default=None)

    p = sub.add_parser("density", help="measure how often scaled errors clear thresholds")
    common(p)
    p.add_argument("--family", help="single family (default maxlinear)")
    p.add_argument("--thresholds", help="comma list of thresholds; 'inf' allowed")
    p.add_argument("--per-t", dest="per_t", action="store_true", default=None,
                   help="build a fresh instance per stopping time (cubic cost)")

    p = sub.add_parser("bounds", help="analytic bound table and proof-chain replay (no simulation)")
    common(p)
    p.add_argument("--rows", action="store_true", default=None,
                   help="write every quartic_floor row to chain_report.json, not one summary step")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    if getattr(args, "family", None) and args.command == "verify":
        args.families = args.family
    try:
        config = _resolve_config(args)
        handler = {
            "verify": cmd_verify,
            "audit": cmd_audit,
            "density": cmd_density,
            "bounds": cmd_bounds,
        }[args.command]
        return handler(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameterError, ConstructionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
