"""qwitness command line interface.

Subcommands: verify, bounds, optimize, witness, contextuality.  Scenarios
come from an optional JSON config file; command-line flags override file
fields.  Reports are canonical JSON, one compact line (sorted keys, shortest
round-trip float formatting), written to stdout and optionally to --out;
diagnostics go to stderr only.  verify and witness summarize the element
residuals as element_max, worst_element and total, a fixed size at every N.
inputs_digest hashes only the config fields the command reads.

Exit codes: 0 all checks passed, 2 a check failed, 3 invalid config,
4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .classical import hybrid_bound, lhv_bound, noncontextual_bound
from .ineq import (
    CYCLE_PAIRS,
    PSD_TOL,
    CertificationError,
    PartyFactors,
    chsh_optimal_settings,
    cycle_from_settings,
    noncontextual_identities,
    svetlichny_pattern,
)
from .opalg import (
    CapExceededError,
    check_parties,
    commutator,
    frob_norm,
    hermitian_eigenvalues,
    hermiticity_defect,
    is_psd,
)
from .optimize import Lcg64, OptimizationConfig, maximize_expectation, maximize_violation
from .qobs import BlochVector, NoisyGhz, ProductState, SettingsTable, expectation
from .witness import (
    ELEMENT_RESIDUAL_TOL,
    WitnessIdentityError,
    evaluate_witness,
    factored_identities,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INVALID_CONFIG = 3
EXIT_CAP_EXCEEDED = 4

EXACT_IDENTITY_TOL = 1e-12
# Slack of a config state_matrix's Hermiticity defect and of its unit trace.
STATE_TOL = 1e-9

CHSH_COMBINATION_NOTE = (
    "correlation combination A1B1 + A1B2 + A2B1 - A2B2, the form forced by "
    "the anticommutator identity {X,Y} = 4E"
)


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def canonical_json(payload) -> str:
    """Canonical serialization: one line, sorted keys, no spaces, floats in
    shortest round-trip form (at most 17 significant digits).  With no indent
    json takes its C encoder, which writes the same bytes as its pure-Python
    one.  Reports hold only builtins and np.float64, a float subclass that
    json writes itself."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def _inputs_digest(cfg: dict) -> str:
    """sha256 of the command and the config fields its handler reads, so a
    field it ignores does not change the digest."""
    read = {k: cfg[k] for k in _COMMANDS[cfg["command"]].keys() if k in cfg}
    return hashlib.sha256(canonical_json(read).encode("utf-8")).hexdigest()


def _complex_matrix(data) -> np.ndarray:
    """Parse a matrix given as nested [re, im] entry pairs."""
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise ConfigError(f"matrix entries must be [re, im] pairs: {exc}")
    m = np.array(rows, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {m.shape}")
    # JSON configs may hold NaN or Infinity.
    if not np.isfinite(m).all():
        raise ConfigError("matrix entries must be finite")
    return m


def _settings_from_cfg(cfg: dict, n_parties: int) -> SettingsTable | None:
    data = cfg.get("settings")
    if data is None:
        return None
    try:
        table = SettingsTable.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad settings table: {exc}")
    if table.n_parties != n_parties:
        raise ConfigError(
            f"settings table has {table.n_parties} parties, config says {n_parties}"
        )
    return table


def _optimizer_cfg(cfg: dict) -> OptimizationConfig:
    data = cfg.get("optimizer") or {}
    if not isinstance(data, dict):
        raise ConfigError(f"optimizer must be a JSON object, got {data!r}")
    data = dict(data)
    data.setdefault("seed", cfg.get("seed", 1))
    try:
        return OptimizationConfig.from_json_dict(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer config: {exc}")


def _build_state(cfg: dict, n_parties: int) -> tuple[NoisyGhz | ProductState, str]:
    """The configured state in structured form; matrix() gives it dense."""
    tag = cfg.get("state", "ghz")
    if tag == "ghz":
        return NoisyGhz(n_parties), "ghz"
    if tag == "mixed":
        return NoisyGhz(n_parties, 0.0), "mixed"
    if tag == "product":
        blochs_data = cfg.get("product_blochs")
        if blochs_data is None:
            blochs = [BlochVector(0.0, 0.0, 1.0)] * n_parties
        else:
            try:
                blochs = [BlochVector(*v) for v in blochs_data]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad product_blochs: {exc}")
            if len(blochs) != n_parties:
                raise ConfigError(
                    f"product_blochs has {len(blochs)} entries, expected {n_parties}"
                )
        return ProductState(tuple(blochs)), "product"
    if tag.startswith("noisy-ghz:"):
        try:
            v = float(tag.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad visibility in state tag {tag!r}")
        return NoisyGhz(n_parties, v), tag
    raise ConfigError(f"unknown state tag {tag!r}")


def cmd_verify(cfg: dict) -> tuple[dict, int]:
    """Run all operator-identity checks applicable to the party count."""
    n = cfg["n_parties"]
    given = _settings_from_cfg(cfg, n)
    if given is not None:
        trials, tables = 1, [given]
    elif cfg.get("random_trials"):
        # Drawn one at a time as the loop below needs them, so memory does
        # not grow with K; the stream and so the tables are unchanged.
        rng = Lcg64(cfg["seed"])
        trials = cfg["random_trials"]
        tables = (rng.settings(n) for _ in range(trials))
    else:
        raise ConfigError("verify needs a settings table or --random K")

    pattern = svetlichny_pattern(n)
    if cfg.get("corrupt_sign") is not None:
        pattern = pattern.flipped(cfg["corrupt_sign"])

    # The CHSH and cycle identities are exact; the Svetlichny ones carry
    # roundoff that grows with the dimension.
    tol = EXACT_IDENTITY_TOL if n == 2 else ELEMENT_RESIDUAL_TOL * 2**n
    residuals: dict[str, float] = {}
    # Each element's largest residual over the tables checked so far.
    elements = None
    failed_identity = None
    try:
        for table in tables:
            identities = factored_identities(PartyFactors.from_settings(table), pattern)
            found = identities.residuals
            if n == 2:
                # At N = 2 the total is the one CHSH element; the cycle
                # identities are checked in its place.
                del found["total"]
                found.update(noncontextual_identities(*cycle_from_settings(table))[3])
            for key, value in found.items():
                residuals[key] = max(residuals.get(key, 0.0), value)
            element = identities.element_residuals
            elements = element if elements is None else np.maximum(elements, element)
    except (CertificationError, WitnessIdentityError) as exc:
        failed_identity = {"name": exc.identity, "detail": str(exc)}

    passed = failed_identity is None and all(v <= tol for v in residuals.values())
    results = {
        "n_parties": n,
        "trials": trials,
        "residuals": residuals,
        "worst_element": None if elements is None else int(np.argmax(elements)),
        "thresholds": dict.fromkeys(residuals, tol),
        "passed": passed,
        "failed_identity": failed_identity,
        "notes": [CHSH_COMBINATION_NOTE],
    }
    return results, EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_bounds(cfg: dict) -> tuple[dict, int]:
    """Local, hybrid (N <= 4 only) and 4-cycle bounds of the Svetlichny pattern."""
    n = cfg["n_parties"]
    results: dict = {"n_parties": n}
    pattern = svetlichny_pattern(n)
    results["lhv"] = lhv_bound(pattern).to_json_dict()
    if n <= 4:
        results["hybrid"] = hybrid_bound(pattern).to_json_dict()
    else:
        results["hybrid"] = None
        results["hybrid_notice"] = (
            f"hybrid enumeration skipped for N = {n}: the response-function "
            "space is large; call qwitness.classical.hybrid_bound directly if needed"
        )
    results["noncontextual"] = noncontextual_bound().to_json_dict()
    return results, EXIT_OK


def cmd_optimize(cfg: dict) -> tuple[dict, int]:
    """Maximize the inequality-operator violation over settings."""
    n = cfg["n_parties"]
    kind = "chsh" if n == 2 else "svetlichny"
    result = maximize_violation(n, kind, _optimizer_cfg(cfg))
    payload = {"kind": kind, "n_parties": n}
    payload.update(result.to_json_dict())
    return payload, EXIT_OK


def cmd_witness(cfg: dict) -> tuple[dict, int]:
    """Evaluate the total witness on a state; negativity is a result, not an error."""
    n = cfg["n_parties"]
    state, state_desc = _build_state(cfg, n)
    table = _settings_from_cfg(cfg, n)
    optimizer_payload = None
    if table is not None and cfg.get("optimize"):
        raise ConfigError("witness takes a settings table or --optimize, not both")
    if table is None:
        if not cfg.get("optimize"):
            raise ConfigError("witness needs a settings table or --optimize")
        kind = "chsh" if n == 2 else "svetlichny"
        opt = maximize_expectation(n, kind, state, _optimizer_cfg(cfg))
        table = opt.settings
        optimizer_payload = {
            "best_value": opt.best_value,
            "iterations": opt.iterations,
            "converged": opt.converged,
        }
    report = evaluate_witness(table, state)
    results = {
        "state": state_desc,
        "report": report.to_json_dict(),
        "settings": table.to_json_dict(),
        "optimizer": optimizer_payload,
    }
    return results, EXIT_OK


def cmd_contextuality(cfg: dict) -> tuple[dict, int]:
    """Verify the 4-cycle construction; optionally evaluate it on a state."""
    custom = cfg.get("cycle")
    if custom is not None:
        if not isinstance(custom, dict):
            raise ConfigError(f"cycle must be a JSON object with keys a, b, c, d, got {custom!r}")
        try:
            a, b, c, d = (_complex_matrix(custom[key]) for key in ("a", "b", "c", "d"))
        except KeyError as exc:
            raise ConfigError(f"cycle config needs keys a, b, c, d: missing {exc}")
        for name, m in zip("abcd", (a, b, c, d)):
            if m.shape != (4, 4):
                raise ConfigError(f"cycle observable {name!r} must be 4x4")
    else:
        table = _settings_from_cfg(cfg, 2) or chsh_optimal_settings()
        a, b, c, d = cycle_from_settings(table)

    ops = dict(zip("ABCD", (a, b, c, d)))
    pair_norms = {x + y: frob_norm(commutator(ops[x], ops[y])) for x, y in CYCLE_PAIRS}
    try:
        x_op, y_op, ec, residuals = noncontextual_identities(a, b, c, d)
    except ValueError as exc:
        results = {
            "compatibility_norms": pair_norms,
            "error": str(exc),
            "passed": False,
        }
        return results, EXIT_CHECK_FAILED

    min_eigs = {
        "X": float(hermitian_eigenvalues(x_op).values[0]),
        "Y": float(hermitian_eigenvalues(y_op).values[0]),
    }

    ec_value = None
    if cfg.get("state_matrix") is not None:
        rho = _complex_matrix(cfg["state_matrix"])
        if rho.shape != (4, 4):
            raise ConfigError("state_matrix must be 4x4")
        if hermiticity_defect(rho) > STATE_TOL or abs(complex(np.trace(rho)).real - 1.0) > STATE_TOL:
            raise ConfigError("state_matrix must be Hermitian with unit trace")
        if not is_psd((rho + rho.conj().T) / 2.0, PSD_TOL):
            raise ConfigError("state_matrix must be positive semidefinite")
        ec_value = expectation(ec.matrix, rho)
    elif "state" in cfg:
        ec_value = expectation(ec.matrix, _build_state(cfg, 2)[0].matrix())

    # noncontextual_identities has enforced compatibility and positivity.
    passed = all(v <= EXACT_IDENTITY_TOL for v in residuals.values())
    results = {
        "compatibility_norms": pair_norms,
        "identity_residuals": residuals,
        "min_eigenvalues": min_eigs,
        "ec_expectation": ec_value,
        "classical_bound": 2.0,
        "passed": passed,
    }
    return results, EXIT_OK if passed else EXIT_CHECK_FAILED


class _Command(NamedTuple):
    """A subcommand: its handler, whose docstring is its help, the flags it
    reads and the config fields it reads that no flag sets.  _merge_config
    applies the N >= 2 floor and the party cap to every command that reads
    --n."""

    run: Callable[[dict], tuple[dict, int]]
    flags: str
    fields: str = ""

    def keys(self) -> list[str]:
        """The config keys the handler reads, --config and --out aside: what
        inputs_digest hashes, with the command name."""
        flags = [f for f in self.flags.split() if f not in ("config", "out")]
        return ["command", *map(_key, flags), *self.fields.split()]


_COMMANDS = {
    "verify": _Command(cmd_verify, "config n random seed corrupt-sign out", "settings"),
    "bounds": _Command(cmd_bounds, "config n out"),
    "optimize": _Command(cmd_optimize, "config n seed out", "optimizer"),
    "witness": _Command(
        cmd_witness, "config n state optimize seed out", "product_blochs settings optimizer"
    ),
    "contextuality": _Command(
        cmd_contextuality, "config state out", "product_blochs cycle settings state_matrix"
    ),
}

# Each flag's argparse keywords.  Its dest is the config key it overrides,
# except --config, which names the file.
_FLAGS = {
    "config": dict(metavar="PATH", help="JSON config file; flags override its fields"),
    "n": dict(dest="n_parties", type=int, metavar="N", help="number of parties"),
    "state": dict(help="state tag: ghz | mixed | product | noisy-ghz:V"),
    "optimize": dict(action="store_true", help="optimize settings first"),
    "random": dict(
        dest="random_trials", type=int, metavar="K", help="number of random settings draws"
    ),
    "seed": dict(type=int, help="seed for all pseudo-random draws"),
    "corrupt-sign": dict(
        type=int, metavar="W", help="fault-injection hook: flip the sign coefficient at word W"
    ),
    "out": dict(dest="output_path", metavar="PATH", help="also write the report to this path"),
}


def _key(flag: str) -> str:
    """The config key a flag overrides."""
    return _FLAGS[flag].get("dest", flag.replace("-", "_"))


def _flag_type(flag: str) -> type:
    """The type of the value a flag sets: bool for a switch, else its
    argparse type, str by default."""
    spec = _FLAGS[flag]
    return bool if spec.get("action") == "store_true" else spec.get("type", str)


_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 3 through main like any
    other invalid input; --help still exits 0."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once: parsing never mutates it.  A flag not
    given leaves no attribute, so the namespace holds only overrides."""
    parser = _Parser(
        prog="qwitness",
        description="Quantumness-witness toolkit: operator identities, classical "
        "bounds, setting optimization, and witness evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__, argument_default=argparse.SUPPRESS)
        for flag in command.flags.split():
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    flags = vars(args)
    cfg: dict = {}
    path = flags.pop("config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(file_cfg)
    cfg.update(flags)
    cfg.setdefault("n_parties", 3)
    cfg.setdefault("seed", 1)
    flags_read = _COMMANDS[cfg["command"]].flags.split()
    # Only the fields the command reads are checked, each against the type
    # its flag sets; type(), not isinstance, since bool is an int subclass.
    keys = {_key(flag): _flag_type(flag) for flag in flags_read if flag != "config"}
    for key, kind in keys.items():
        if key in cfg and type(cfg[key]) is not kind:
            raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {cfg[key]!r}")
    if "random_trials" in keys and cfg.get("random_trials", 1) < 1:
        raise ConfigError(f"random_trials must be at least 1, got {cfg['random_trials']}")
    if "n" in flags_read:
        if cfg["n_parties"] < 2:
            raise ConfigError(f"{cfg['command']} needs at least two parties")
        check_parties(cfg["n_parties"])
    corrupt = cfg.get("corrupt_sign")
    # After the party cap, so 2^N stays small.
    if "corrupt_sign" in keys and corrupt is not None:
        if not 0 <= corrupt < 2 ** cfg["n_parties"]:
            raise ConfigError(f"corrupt-sign index {corrupt} out of range")
    return cfg


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        cfg = _merge_config(_parser().parse_args(argv))
        results, code = _COMMANDS[cfg["command"]].run(cfg)
    except CapExceededError as exc:
        print(f"qwitness: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (CertificationError, WitnessIdentityError) as exc:
        # CertificationError is a ValueError, so this must precede exit 3.
        print(f"qwitness: {exc.identity}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"qwitness: invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG

    report = {
        "command": cfg["command"],
        "inputs_digest": _inputs_digest(cfg),
        "results": results,
        "artifact_version": __version__,
        "wall_time_ms": int(round((time.perf_counter() - started) * 1000.0)),
    }
    text = canonical_json(report)
    out_path = cfg.get("output_path")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"qwitness: cannot write report: {exc}", file=sys.stderr)
            return EXIT_INVALID_CONFIG
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
