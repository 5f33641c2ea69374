"""Command-line harness tying the modules into reproducible experiments.

Subcommands: oracle, solve, adversarial, halting, nn, gen-data.  Exact
rational values are passed as "num/den" strings.  A plain key=value config
file can seed any flag of the subcommand (--config FILE or --config=FILE,
before or after the subcommand); keys are flag names with "_" for "-", an
on/off flag such as ``solve`` takes 1/true (set) or 0/false (unset), and
explicit flags win.  Every output file is written atomically and embeds the
config hash and package version, so identical config and seed reproduce
outputs byte for byte.

Exit codes: 0 ok, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction as Q

import numpy as np

from qcbplab import __version__, families, halting, mlp, qcbp
from qcbplab.rationals import (
    dyadic_sqrt_lower,
    fmt_rational,
    parse_rational,
    vector_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors (unknown flag or config key, missing required flag, bad
    # int) follow the exit-code contract instead of argparse's own exit;
    # subparsers are built with this class too, so they inherit it
    def error(self, message: str):
        raise InputError(message)


_NON_EXPERIMENT_KEYS = ("func", "config", "out", "checkpoint", "instance", "machine")


def _config_hash(args: argparse.Namespace, source: str | None) -> str:
    # destinations and file locations are not experiment parameters; hashing
    # only the science-bearing flags keeps reruns byte-identical wherever the
    # files live.  A machine or instance file enters as ``source``, the
    # canonical text of what was parsed from it, so two different files give
    # two hashes and one content gives one hash under any path
    items = sorted(
        (k, repr(v)) for k, v in vars(args).items() if k not in _NON_EXPERIMENT_KEYS
    )
    if source is not None:
        items.append(("source", source))
    blob = ";".join(f"{k}={v}" for k, v in items).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(args: argparse.Namespace, source: str | None) -> dict:
    return {
        "config_hash": _config_hash(args, source),
        "version": __version__,
    }


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qcbplab-")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, args: argparse.Namespace) -> None:
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args: argparse.Namespace, source: str | None = None) -> None:
    payload = dict(payload)
    payload["meta"] = _meta(args, source)
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args)


def _emit_csv(
    header: list[str], rows: list[list[str]], args: argparse.Namespace, source: str | None = None
) -> None:
    meta = _meta(args, source)
    lines = [f"# config_hash={meta['config_hash']} version={meta['version']}"]
    lines.append(",".join(header))
    lines += [",".join(row) for row in rows]
    _emit("\n".join(lines) + "\n", args)


def _parse_row(text: str) -> list[Q]:
    try:
        return [parse_rational(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational row {text!r}: {exc}") from None


def _rat(text: str, what: str) -> Q:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {what} {text!r}: {exc}") from None


def _family_params(args: argparse.Namespace) -> families.FamilyParams:
    return families.FamilyParams(
        a=_rat(args.a, "--a"),
        eps=_rat(args.eps, "--eps"),
        n_dim=args.N,
        m_dim=args.m,
    )


# --- subcommands ------------------------------------------------------------------

def cmd_oracle(args: argparse.Namespace) -> int:
    row = _parse_row(args.A)
    if not row:
        raise InputError("--A must list at least two entries")
    inst = qcbp.Instance.single_row(row, _rat(args.y, "--y"), _rat(args.eps, "--eps"))
    simplex = qcbp.exact_solution_set(inst)
    selected = qcbp.select(simplex)
    _emit_json(
        {
            "active": [j + 1 for j in simplex.active],
            "scale": fmt_rational(simplex.scale),
            "coeff": [fmt_rational(c) for c in simplex.inv_coeff],
            "l1": fmt_rational(simplex.l1_value()),
            "x": [fmt_rational(e.re) for e in selected.entries],
        },
        args,
    )
    return EXIT_OK


def _load_instance(args: argparse.Namespace) -> qcbp.Instance:
    if args.instance:
        if not os.path.exists(args.instance):
            raise InputError(f"instance file not found: {args.instance}")
        try:
            with open(args.instance, "r", encoding="ascii") as fh:
                return qcbp.Instance.from_json(json.load(fh))
        except (OSError, KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
            # a file of the wrong shape (missing key, list at top level,
            # unparsable rational) is an input error, not a crash
            raise InputError(
                f"bad instance file {args.instance}: {type(exc).__name__}: {exc}"
            ) from None
    if not args.A:
        raise InputError("solve needs --A (with --y/--eps) or --instance")
    rows = [_parse_row(chunk) for chunk in args.A.split(";") if chunk.strip()]
    y = _parse_row(args.y)
    return qcbp.Instance(
        A=qcbp.RationalMatrix.from_rows(rows),
        y=qcbp.RationalVector.from_items(y),
        eps=_rat(args.eps, "--eps"),
    )


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    report = qcbp.solve_numeric(inst, _rat(args.tol, "--tol"), args.max_iter)
    source = json.dumps(inst.to_json(), sort_keys=True) if args.instance else None
    _emit_json(report.to_json(), args, source)
    return EXIT_OK


def cmd_adversarial(args: argparse.Namespace) -> int:
    p = _family_params(args)
    report = families.discontinuity_report(
        p, args.n_max, run_solver=args.solve, solver_tol=_rat(args.tol, "--tol")
    )
    kappa = report.certificate.bound
    header = ["n", "input_dist", "output_dist_sq", "output_dist_lower", "solver_dist", "kappa"]
    rows = []
    for r in report.rows:
        rows.append(
            [
                str(r.n),
                fmt_rational(r.input_dist),
                fmt_rational(r.output_dist_sq),
                repr(float(r.output_dist_lower)),
                repr(r.solver_dist) if r.solver_dist is not None else "-",
                repr(float(kappa)),
            ]
        )
    _emit_csv(header, rows, args)
    return EXIT_OK


def _load_machine(source: str) -> halting.BoundedMachine:
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        try:
            return halting.load_builtin(name)
        except FileNotFoundError:
            raise InputError(f"no builtin machine named {name!r}") from None
    if not os.path.exists(source):
        raise InputError(f"machine file not found: {source}")
    return halting.load_machine_file(source)


def cmd_halting(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        raise InputError("n_max must be >= 0")
    machine = _load_machine(args.machine)
    p = _family_params(args)
    cert = families.separation_certificate(p)
    header = [
        "n",
        "q",
        "decision",
        "distance_sq",
        "distance_lower",
        "distance_at_budget",
        "threshold_sq",
    ]
    rows = []
    for n in range(args.n_max + 1):
        d = halting.decide_membership(machine, n, args.j_budget, args.precision_budget, p, cert)
        rows.append(
            [
                str(n),
                str(d.steps_to_accept) if d.steps_to_accept is not None else "-",
                d.status,
                fmt_rational(d.distance_sq) if d.distance_sq is not None else "-",
                repr(float(dyadic_sqrt_lower(d.distance_sq, 30))) if d.distance_sq is not None else "-",
                repr(float(d.distance_sq_at_budget) ** 0.5),
                fmt_rational(d.threshold_sq),
            ]
        )
    rules = sorted(machine.transitions.items())
    _emit_csv(header, rows, args, repr((machine.initial, machine.accepting, rules)))
    return EXIT_OK


def _training_set(args: argparse.Namespace, p: families.FamilyParams) -> mlp.TrainingSet:
    noise = _rat(args.noise, "--noise")
    data = mlp.gen_training_set(p, args.n_lo, args.n_hi, noise_bound=noise, seed=args.seed)
    if data.inputs.size == 0:
        raise InputError("training set came out empty; widen the n range")
    return data


def cmd_nn(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise InputError(f"--n-max must be >= 1, got {args.n_max}")
    p = _family_params(args)
    data = _training_set(args, p)
    try:
        widths = (
            (mlp.input_width(p.m_dim, p.n_dim),)
            + tuple(int(w) for w in args.widths.split(",") if w.strip())
            + (mlp.output_width(p.n_dim),)
        )
        net = mlp.init_mlp(widths, seed=args.seed)
    except ValueError as exc:
        raise InputError(f"--widths {args.widths!r}: {exc}") from None
    net, trace = mlp.train(net, data.inputs, data.targets, steps=args.steps, lr=args.lr)
    cert = families.separation_certificate(p)
    report = mlp.instability_eval(net, p, args.n_max, cert)
    if args.checkpoint:
        _atomic_write(args.checkpoint, mlp.checkpoint_json(net))
    header = ["n", "gap", "e1", "e2", "lip_slack", "bound_lhs", "kappa"]
    kappa_f = float(cert.bound)
    rows = [
        [
            str(r.n),
            repr(r.gap),
            repr(r.err_1),
            repr(r.err_2),
            repr(r.lip_slack),
            repr(r.bound_lhs),
            repr(kappa_f),
        ]
        for r in report.rows
    ]
    _emit_csv(header, rows, args)
    if data.skipped:
        print(
            f"skipped {len(data.skipped)} of {len(data.skipped) + len(data.records)} "
            f"training members, first: {data.skipped[0]}",
            file=sys.stderr,
        )
    min_lhs = min(r.bound_lhs for r in report.rows)
    ok = report.conflict_holds()
    slack_text = np.format_float_scientific(report.float_slack, trim="-", exp_digits=1)
    print(
        f"conflict bound: min_n (e1+e2+L*gap) = {min_lhs:.6f} vs "
        f"kappa - {slack_text} = {kappa_f - report.float_slack:.6f} -> {'OK' if ok else 'VIOLATED'} "
        f"(L_hat={report.lipschitz_bound:.3f}, final loss={trace[-1] if trace else float('nan'):.6f})",
        file=sys.stderr,
    )
    if not ok:
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_gen_data(args: argparse.Namespace) -> int:
    p = _family_params(args)
    data = _training_set(args, p)
    payload = {
        "inputs": [list(row) for row in data.inputs],
        "targets": [list(row) for row in data.targets],
        "records": [
            {
                "family": rec.family,
                "n": rec.n,
                "noise": fmt_rational(rec.noise),
                "instance": rec.instance.to_json(),
                "target_exact": vector_to_json(rec.target_exact),
            }
            for rec in data.records
        ],
        "skipped": data.skipped,
    }
    _emit_json(payload, args)
    return EXIT_OK


# --- wiring -----------------------------------------------------------------------

def _add_family_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--a", default="1", help="base row entry (rational)")
    sp.add_argument("--eps", default="1/2", help="constraint slack (rational)")
    sp.add_argument("--N", type=int, default=2, help="ambient width")
    sp.add_argument("--m", type=int, default=1, help="row count (block-embeds when > 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing reads the parser and never changes it
    parser = _Parser(
        prog="qcbplab",
        description="exact-arithmetic workbench for quadratically constrained basis pursuit",
    )
    parser.add_argument("--config", help="key=value file seeding flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("oracle", help="closed-form solution set of a single-row instance")
    sp.add_argument("--A", required=True, help="row entries, e.g. 2,1 or 9/8,1")
    sp.add_argument("--y", default="1", help="measurement (must be 1 for the oracle)")
    sp.add_argument("--eps", default="0", help="constraint slack in [0,1)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("solve", help="generic certified primal-dual solve")
    sp.add_argument("--A", help="rows separated by ';', entries by ','")
    sp.add_argument("--y", default="1", help="measurement entries")
    sp.add_argument("--eps", default="0")
    sp.add_argument("--instance", help="instance JSON file (overrides --A/--y/--eps)")
    sp.add_argument("--tol", default="1/1000000")
    sp.add_argument("--max-iter", type=int, default=200_000)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("adversarial", help="discontinuity table for the perturbation families")
    _add_family_flags(sp)
    sp.add_argument("--n-max", type=int, default=30)
    sp.add_argument("--solve", action="store_true", help="add float solver distance columns")
    sp.add_argument("--tol", default="1/1000000")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_adversarial)

    sp = sub.add_parser("halting", help="budget-bounded membership decisions via encoded instances")
    _add_family_flags(sp)
    sp.add_argument("--machine", required=True, help="machine file path or builtin:<name>")
    sp.add_argument("--n-max", type=int, default=20, help="decide inputs 0..n_max")
    sp.add_argument("--j-budget", type=int, default=10_000)
    sp.add_argument("--precision-budget", type=int, default=64)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_halting)

    sp = sub.add_parser("nn", help="train the toy network and evaluate the conflict bound")
    _add_family_flags(sp)
    sp.add_argument("--n-lo", type=int, default=1)
    sp.add_argument("--n-hi", type=int, default=10)
    sp.add_argument("--n-max", type=int, default=30, help="evaluation range")
    sp.add_argument("--steps", type=int, default=4000)
    sp.add_argument("--lr", type=float, default=0.02)
    sp.add_argument("--widths", default="64,64", help="hidden widths, comma separated")
    sp.add_argument("--noise", default="0", help="measurement noise bound (rational)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--checkpoint", help="write net checkpoint JSON here")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_nn)

    sp = sub.add_parser("gen-data", help="emit oracle-labelled training data as JSON")
    _add_family_flags(sp)
    sp.add_argument("--n-lo", type=int, default=1)
    sp.add_argument("--n-hi", type=int, default=10)
    sp.add_argument("--noise", default="0")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen_data)

    return parser


def _switches(parser: argparse.ArgumentParser, command: str) -> set[str]:
    """Option strings of ``command``'s on/off (store_true) flags."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) and command in action.choices:
            return {
                opt
                for a in action.choices[command]._actions
                if isinstance(a, argparse._StoreTrueAction)
                for opt in a.option_strings
            }
    return set()


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    # "--config=FILE" is the one-token spelling of "--config FILE"
    for i, a in enumerate(argv):
        if a.startswith("--config="):
            argv = argv[:i] + ["--config", a.split("=", 1)[1]] + argv[i + 1:]
            break
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise InputError("--config needs a file path")
    path = argv[idx + 1]
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    overrides: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            overrides[key] = value
    # config entries become argv entries placed before explicit flags, so
    # explicit flags win on conflict (argparse keeps the last occurrence)
    injected: list[str] = []
    rest = [a for i, a in enumerate(argv) if i not in (idx, idx + 1)]
    command = rest[0] if rest else ""
    switches = _switches(parser, command)
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        if flag not in switches:
            injected += [flag, value]
        elif value.lower() in ("1", "true"):
            injected.append(flag)
        elif value.lower() not in ("0", "false"):
            raise InputError(f"{path}: {key} is an on/off flag; expected 1/true or 0/false, got {value!r}")
    return [command] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # exact outputs may carry 2**q-scale denominators for large step budgets;
    # lift the conversion guard so "num/den" emission never truncates
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 1_000_000))
    parser = build_parser()
    try:
        argv = _apply_config(argv, parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # InputError and every domain error (oracle, machine format, grid
        # size, dimension checks) derive from ValueError; a path that cannot
        # be read or written (missing, a directory, no permission) is an
        # OSError
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_INPUT
    except (mlp.TrainingDivergence, ArithmeticError) as exc:
        json.dump({"error": str(exc), "kind": "numerical"}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
