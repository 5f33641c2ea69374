"""CLI surface: subcommands, exit codes, reproducible outputs."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from qcbplab import _kernels, cli, families, halting, mlp, qcbp


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_json(capsys):
    code, out, _ = run(["oracle", "--A", "2,1", "--eps", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["l1"] == "1/2"
    assert payload["x"] == ["1/2", "0"]
    assert payload["active"] == [1]
    assert "config_hash" in payload["meta"]


def test_oracle_all_max(capsys):
    code, out, _ = run(["oracle", "--A", "1,1,1", "--eps", "1/2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["active"] == [1, 2, 3]
    assert payload["l1"] == "1/2"


def test_oracle_takes_any_positive_y(capsys):
    code, out, _ = run(["oracle", "--A", "2,1", "--y", "2", "--eps", "1/2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["scale"], payload["l1"], payload["x"]) == ("3/2", "3/4", ["3/4", "0"])
    code, _, err = run(["oracle", "--A", "2,1", "--y", "1/2", "--eps", "1/2"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "oracle requires eps in [0,1/2), got 1/2"
    for y in ("0", "-1"):
        code, _, err = run(["oracle", "--A", "2,1", f"--y={y}"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "oracle requires a real y > 0"


def test_oracle_bad_eps_exit_2(capsys):
    code, _, err = run(["oracle", "--A", "2,1", "--eps", "3/2"], capsys)
    assert code == 2
    assert "eps" in json.loads(err)["error"]


def test_oracle_bad_rational_exit_2(capsys):
    code, _, err = run(["oracle", "--A", "2,zebra", "--eps", "0"], capsys)
    assert code == 2
    assert "error" in json.loads(err)


def test_solve_json(capsys):
    code, out, _ = run(
        ["solve", "--A", "2,1", "--y", "1", "--eps", "0", "--tol", "1/100000"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert abs(payload["objective_float"] - 0.5) < 1e-4


def test_adversarial_csv_single_row(tmp_path, capsys):
    out_file = tmp_path / "adv.csv"
    code, _, _ = run(["adversarial", "--n-max", "1", "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "n,input_dist,output_dist_sq,output_dist_lower,solver_dist,kappa"
    assert len(lines) == 3
    assert lines[2].startswith("1,1/2,2/9,")


def test_adversarial_default_30_rows_constant_kappa(tmp_path, capsys):
    out_file = tmp_path / "adv.csv"
    code, _, _ = run(["adversarial", "--out", str(out_file)], capsys)
    assert code == 0
    rows = [l.split(",") for l in out_file.read_text().splitlines()[2:]]
    assert len(rows) == 30
    assert len({r[5] for r in rows}) == 1  # kappa column constant


def test_adversarial_solve_flag_populates_column(tmp_path, capsys):
    out_file = tmp_path / "adv.csv"
    code, _, _ = run(
        ["adversarial", "--n-max", "2", "--solve", "--out", str(out_file)], capsys
    )
    assert code == 0
    rows = [l.split(",") for l in out_file.read_text().splitlines()[2:]]
    assert all(r[4] != "-" for r in rows)
    assert float(rows[0][4]) == pytest.approx((2 / 9) ** 0.5, abs=1e-4)


def test_adversarial_solve_marks_uncertified_rows(tmp_path, monkeypatch, capsys):
    """A row where either solve did not certify prints ``-`` in solver_dist, and stderr counts such rows."""
    solve = qcbp.solve_numeric
    calls = []

    def first_member_of_n2_uncertified(inst, tol, *args):
        calls.append(inst)
        report = solve(inst, tol, *args)
        return dataclasses.replace(report, converged=False) if len(calls) == 3 else report

    monkeypatch.setattr(qcbp, "solve_numeric", first_member_of_n2_uncertified)
    out_file = tmp_path / "adv.csv"
    code, _, err = run(["adversarial", "--n-max", "3", "--solve", "--out", str(out_file)], capsys)
    assert code == 0
    rows = [l.split(",") for l in out_file.read_text().splitlines()[2:]]
    assert [r[4] == "-" for r in rows] == [False, True, False]
    assert err == "solver_dist is - in 1 of 3 rows: a solve did not certify\n"


def _assert_rounds_down(lower, sq):
    """``lower`` prints the largest float whose square is at most ``sq``: the float floor of sqrt(sq)."""
    f, up = float(lower), math.nextafter(float(lower), math.inf)
    assert lower == repr(f)
    assert Q(f) ** 2 <= sq and (up == math.inf or sq < Q(up) ** 2)


def test_adversarial_exact_columns(capsys):
    code, out, err = run(["adversarial", "--n-max", "12"], capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert len(rows) == 12
    p = families.FamilyParams()
    for n_text, in_dist, out_sq, lower, solver_dist, kappa in rows:
        n, sq = int(n_text), Q(out_sq)
        assert Q(in_dist) == Q(1, 2**n)
        assert sq == families.pair_distance_sq(n, p)
        _assert_rounds_down(lower, sq)
        assert solver_dist == "-"
        assert Q(float(kappa)) >= Q(47, 100)


def test_halting_distance_lower_rounds_down(capsys):
    code, out, err = run(["halting", "--machine", "builtin:even", "--n-max", "40", "--j-budget", "100000"], capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    decided = [(r[3], r[4]) for r in rows if r[2] == "IN"]
    assert len(decided) == 21
    for sq, lower in decided:
        _assert_rounds_down(lower, Q(sq))


def _halting_rows(a, capsys):
    code, out, err = run(["halting", "--machine", "builtin:even", "--n-max", "3", "--eps", "1/3", "--a", a], capsys)
    assert (code, err) == (0, "")
    return [line.split(",") for line in out.splitlines()[2:]]


def test_halting_distance_in_float_range_keeps_its_bytes(capsys):
    # the IN rows' distance lies below the midpoint of 6.666666666666666e+149
    # and its successor, so that float is the nearest one
    rows = _halting_rows("1e-150", capsys)
    assert [(r[2], r[5]) for r in rows] == [
        ("IN", "6.666666666666666e+149"),
        ("NOT_HALTED_AT_BUDGET", "9.428090415820634e+149"),
    ] * 2


@pytest.mark.parametrize("a", ["1e-170", "1e200"], ids=["above", "below"])
def test_halting_distance_whose_square_is_past_float64(a, capsys):
    # distances near 1e169 and 1e-200: the roots fit a float64, their squares do not
    p = families.FamilyParams(a=Q(a), eps=Q(1, 3))
    rows = _halting_rows(a, capsys)
    assert [r[2] for r in rows] == ["IN", "NOT_HALTED_AT_BUDGET"] * 2
    for r in rows:
        sq = Q(r[3]) if r[2] == "IN" else Q(*halting.encoded_distance_sq_ints(10_000, p))
        x = float(r[5])
        below, above = (Q(math.nextafter(x, to)) + Q(x) for to in (0.0, math.inf))
        assert (below / 2) ** 2 <= sq <= (above / 2) ** 2, r[0]  # between the midpoints: the nearest float


SOLVER_TOL = Q(1, 10**6)


@pytest.fixture(scope="module")
def solver_rows(tmp_path_factory):
    """The rows of one ``adversarial --n-max 20 --solve`` table; ``repr`` round-trips each float."""
    out = tmp_path_factory.mktemp("adversarial") / "solve.csv"
    argv = ["adversarial", "--n-max", "20", "--solve", "--tol", str(SOLVER_TOL), "--out", str(out)]
    assert cli.main(argv) == 0
    return [line.split(",") for line in out.read_text().splitlines()[2:]]


def test_adversarial_solver_column_matches_exact(solver_rows):
    """Solver distances agree with the exact columns within the location
    tolerance the duality certificate implies.  A tol-optimal point can sit
    anywhere the objective is within tol of optimal, and along the solution
    segment the objective varies by only dv = (1-eps)(1/a - 1/(a+2**-n)) over
    its whole length, so the certified location error grows like tol/dv as n
    grows; the exact columns, not the float ones, carry the theorem."""
    p = families.FamilyParams()
    assert len(solver_rows) == 20
    for row in solver_rows:
        n, solver_dist, kappa = int(row[0]), float(row[4]), float(row[5])
        exact = float(Q(row[2])) ** 0.5
        dv = (1 - p.eps) / p.a - (1 - p.eps) / (p.a + Q(1, 2**n))
        near = (1 - p.eps) / (p.a + Q(1, 2**n))
        far = (1 - p.eps) / p.a
        seg_len = float(near**2 + far**2) ** 0.5
        per_solve = 2 * float(SOLVER_TOL) * (seg_len / float(dv) + 1)
        assert solver_dist == pytest.approx(exact, abs=2 * per_solve + 1e-9)
        # even with location fuzz, the float column still shows the separation
        assert solver_dist >= kappa - 2 * per_solve


def test_adversarial_solver_column_hits_exact_where_vertices_separate(solver_rows):
    """Where the two vertex values differ by more than 2 tol, a tol-optimal
    point must be the better vertex, and the solver lands on it to rounding."""
    p = families.FamilyParams()
    checked = 0
    for row in solver_rows:
        n = int(row[0])
        dv = (1 - p.eps) / p.a - (1 - p.eps) / (p.a + Q(1, 2**n))
        if dv > 2 * SOLVER_TOL:
            assert abs(float(row[4]) - float(Q(row[2])) ** 0.5) <= 1e-9, n
            checked += 1
    assert checked == 17


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["adversarial", "--n-max", "5", "--out", str(a)], capsys)
    run(["adversarial", "--n-max", "5", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_halting_builtin_even(tmp_path, capsys):
    out_file = tmp_path / "halt.csv"
    code, _, _ = run(
        [
            "halting",
            "--machine",
            "builtin:even",
            "--n-max",
            "6",
            "--j-budget",
            "10000",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    rows = [l.split(",") for l in out_file.read_text().splitlines()[2:]]
    for r in rows:
        n = int(r[0])
        assert (r[2] == "IN") == (n % 2 == 0)
        if r[2] == "IN":
            assert r[1] != "-"


def test_halting_budget_zero_all_not_halted(tmp_path, capsys):
    out_file = tmp_path / "halt.csv"
    code, _, _ = run(
        [
            "halting",
            "--machine",
            "builtin:even",
            "--n-max",
            "4",
            "--j-budget",
            "0",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    rows = [l.split(",") for l in out_file.read_text().splitlines()[2:]]
    assert all(r[2] == "NOT_HALTED_AT_BUDGET" for r in rows)


def test_halting_builds_the_at_budget_member_once(monkeypatch, capsys):
    # every not-halted row reports the member at index budget + 1; one run
    # reads its gap once, and a second run reads it again rather than reusing it
    real = families.limit_gap_sq_ints
    built = []

    def counting(n, p):
        built.append(n)
        return real(n, p)

    monkeypatch.setattr(families, "limit_gap_sq_ints", counting)
    argv = ["halting", "--machine", "builtin:even", "--n-max", "40", "--j-budget", "1000"]
    for runs in (1, 2):
        code, out, _ = run(argv, capsys)
        assert code == 0 and out.count("NOT_HALTED_AT_BUDGET") == 20
        assert built.count(1001) == runs


def test_halting_all_in_run_builds_no_at_budget_member(monkeypatch, capsys):
    # input 0 is accepted, so no row needs the member at index budget + 1
    real = families.limit_gap_sq_ints
    built = []

    def counting(n, p):
        built.append(n)
        return real(n, p)

    monkeypatch.setattr(families, "limit_gap_sq_ints", counting)
    argv = ["halting", "--machine", "builtin:even", "--n-max", "0", "--j-budget", "1000"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and "NOT_HALTED_AT_BUDGET" not in out
    assert 1001 not in built


def test_halting_builds_the_threshold_once(monkeypatch, capsys):
    # the certificate fixes (bound/4)**2: a run divides its bound once, not once per IN row
    divisors = []

    class CountingBound(Q):
        def __truediv__(self, other):
            divisors.append(other)
            return super().__truediv__(other)

    real = families.separation_certificate

    def counted(p):
        cert = real(p)
        return dataclasses.replace(cert, bound=CountingBound(cert.bound))

    monkeypatch.setattr(families, "separation_certificate", counted)
    code, out, _ = run(["halting", "--machine", "builtin:even", "--n-max", "40"], capsys)
    assert code == 0 and out.count(",IN,") == 21
    assert divisors == [4]


def test_halting_missing_machine_exit_2(capsys):
    code, _, err = run(["halting", "--machine", "/no/such/file.tm"], capsys)
    assert code == 2
    assert "not found" in json.loads(err)["error"]


@pytest.mark.parametrize("escape", [False, True], ids=["sibling", "outside-package"])
def test_halting_builtin_takes_only_a_bundled_name(tmp_path, capsys, escape):
    # builtin:NAME is a file directly in the bundled machines directory; a
    # name that walks out of it is no builtin, even when the file exists
    name = "../machines/even"
    if escape:
        (tmp_path / "evil.tm").write_text((Path(halting.__file__).parent / "machines/even.tm").read_text())
        name = os.path.relpath(tmp_path / "evil", Path(halting.__file__).parent / "machines")
    code, out, err = run(["halting", "--machine", f"builtin:{name}", "--n-max", "1"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"no builtin machine named {name!r}"


def test_halting_violated_certificate_exit_3(monkeypatch, capsys):
    real = families.separation_certificate
    monkeypatch.setattr(
        families,
        "separation_certificate",
        lambda p: dataclasses.replace(real(p), bound=Q(4)),
    )
    code, out, err = run(["halting", "--machine", "builtin:even", "--n-max", "2"], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "separation certificate violated at decision time", "kind": "numerical"}


def test_halting_limit_gap_formula_mismatch_exit_3(monkeypatch, capsys):
    real = families.limit_gap_sq_ints

    def off_by_one(n, p):
        num, den = real(n, p)
        return num + 1, den

    monkeypatch.setattr(families, "limit_gap_sq_ints", off_by_one)
    code, out, err = run(["halting", "--machine", "builtin:even", "--n-max", "2"], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "limit gap formula mismatch at n=1", "kind": "numerical"}


@pytest.mark.parametrize(
    "bump, y, message",
    [
        (lambda n: Q(1, 2 ** (n + 1)), 1, "family construction drifted: entry gap is not 2**-n"),
        (lambda n: Q(1, 2**n), 2, "measurements of family and limit must agree"),
    ],
    ids=["entry-gap", "measurement"],
)
def test_adversarial_broken_family_exit_3(bump, y, message, monkeypatch, capsys):
    """input_distance checks each member against the limit: a broken family is a numerical failure."""

    def core(which, n, p):
        row = [p.a] * p.reduced_width
        row[which - 1] = p.a + bump(n)
        return qcbp.Instance.single_row(row, y, p.eps)

    monkeypatch.setattr(families, "perturbed_core", core)
    code, out, err = run(["adversarial", "--n-max", "2"], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": message, "kind": "numerical"}


@pytest.mark.parametrize(
    "argv, last_column",
    [
        (["adversarial", "--n-max", "3"], repr(2.0**-21)),  # kappa
        (["halting", "--machine", "builtin:even", "--n-max", "3"], str(Q(1, 2**23) ** 2)),  # (kappa/4)**2
    ],
    ids=["adversarial", "halting"],
)
def test_small_separation_refines_the_kappa_grid(argv, last_column, capsys):
    """A separation below 2**-20 takes kappa from the first finer grid that holds a dyadic below it."""
    code, out, err = run([*argv, "--eps", "999999/1000000"], capsys)
    assert (code, err) == (0, "")
    rows = out.splitlines()[2:]
    assert rows and all(row.split(",")[-1] == last_column for row in rows)


def test_nn_violated_conflict_bound_exit_3(monkeypatch, capsys):
    """A failed conflict bound still prints the table, then the summary line, not JSON."""
    real = families.separation_certificate
    monkeypatch.setattr(
        families,
        "separation_certificate",
        lambda p: dataclasses.replace(real(p), bound=Q(4)),
    )
    code, out, err = run(["nn", "--seed", "1", "--steps", "2", "--n-max", "2", "--widths", "4"], capsys)
    assert code == 3
    lines = out.splitlines()
    assert lines[1] == "n,gap,e1,e2,lip_slack,bound_lhs,kappa"
    assert [row.split(",")[0] for row in lines[2:]] == ["1", "2"]
    assert all(row.endswith(",4.0") for row in lines[2:])
    (summary,) = err.splitlines()
    assert summary.startswith("conflict bound: min_n (e1+e2+L*gap) = ")
    assert "-> VIOLATED (L_hat=" in summary


def test_halting_machine_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("init a\naccept z\ngarbage line here\n")
    code, _, err = run(["halting", "--machine", str(bad)], capsys)
    assert code == 2
    assert "line 3" in json.loads(err)["error"]


def test_halting_machine_second_init_line_exit_2(tmp_path, capsys):
    machine = tmp_path / "m.tm"
    rules = "".join(f"a {s} -> a {s} R\n" for s in ("0", "1", "_"))
    machine.write_text(f"init a\naccept z\n{rules}init b\n")
    code, out, err = run(["halting", "--machine", str(machine)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "line 6: second 'init' line"


def test_gen_data_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "data.json"
    code, _, _ = run(
        ["gen-data", "--n-lo", "1", "--n-hi", "3", "--seed", "5", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["inputs"]) == 6
    assert payload["records"][0]["target_exact"]
    assert payload["skipped"] == []


def test_nn_small_run(tmp_path, capsys):
    ckpt = tmp_path / "net.json"
    out_file = tmp_path / "report.csv"
    code = cli.main(
        [
            "nn",
            "--seed",
            "3",
            "--steps",
            "300",
            "--n-hi",
            "6",
            "--n-max",
            "8",
            "--widths",
            "16,16",
            "--checkpoint",
            str(ckpt),
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    assert ckpt.exists()
    lines = out_file.read_text().splitlines()
    assert lines[1] == "n,gap,e1,e2,lip_slack,bound_lhs,kappa"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 8
    kappa = float(rows[0][6])
    assert all(float(r[5]) >= kappa - 1e-6 for r in rows)


def test_nn_errors_whose_squares_are_past_float64_stay_finite(capsys):
    """At a = 1e-400 each error is about 2**(n-1): past n = 512 its square overflows, its norm does not."""
    argv = ["nn", "--seed", "1", "--steps", "3", "--n-hi", "2", "--a", "1e-400", "--n-max", "520"]
    code, out, err = run(argv, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert len(rows) == 520
    assert not any("inf" in cell for row in rows for cell in row)
    for row in rows[512:]:
        n, e1, e2 = int(row[0]), float(row[2]), float(row[3])
        assert math.isclose(e1, 2.0 ** (n - 1), rel_tol=1e-9) and math.isclose(e2, e1, rel_tol=1e-9)
    assert len(err.splitlines()) == 1 and err.startswith("conflict bound:")


def test_nn_zero_steps_untrained_still_bound_consistent(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code = cli.main(
        ["nn", "--seed", "4", "--steps", "0", "--n-max", "6", "--widths", "8", "--out", str(out_file)]
    )
    capsys.readouterr()
    assert code == 0
    rows = [l.split(",") for l in out_file.read_text().splitlines()[2:]]
    kappa = float(rows[0][6])
    assert all(float(r[5]) >= kappa - 1e-6 for r in rows)


def test_nn_reports_skipped_training_members(capsys):
    """Members the noisy oracle skips are named on one stderr line, before the summary."""
    code, _, err = run(["nn", "--seed", "1", "--steps", "20", "--noise", "2"], capsys)
    assert code == 0
    skipped = mlp.gen_training_set(families.FamilyParams(), 1, 10, noise_bound=Q(2), seed=1).skipped
    assert len(skipped) == 7
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0] == f"skipped 7 of 20 training members, first: {skipped[0]}"
    assert lines[1].startswith("conflict bound:")


@pytest.mark.parametrize(
    "argv",
    [
        ["halting", "--machine", "{dir}"],
        ["--config", "{dir}", "oracle", "--A", "2,1"],
        ["oracle", "--A", "2,1", "--out", "{dir}"],
        ["nn", "--seed", "1", "--steps", "2", "--n-max", "2", "--widths", "4", "--checkpoint", "{dir}"],
    ],
    ids=["machine", "config", "out", "checkpoint"],
)
def test_directory_path_exit_2(argv, tmp_path, capsys):
    """A path that names a directory is an input error, not a traceback."""
    target = tmp_path / "target"
    target.mkdir()
    code, out, err = run([a.replace("{dir}", str(target)) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert "Is a directory" in json.loads(err)["error"]
    assert len(err.splitlines()) == 1
    # output files are staged next to the target; none is left behind
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--A", "2,1", "--out", "{path}"],
        ["nn", "--seed", "1", "--steps", "2", "--n-max", "2", "--widths", "4", "--checkpoint", "{path}"],
    ],
    ids=["out", "checkpoint"],
)
def test_missing_directory_names_the_output_path(argv, tmp_path, capsys):
    """A write into a missing directory names the path given, not the temporary file."""
    path = tmp_path / "missing" / "x.json"
    code, out, err = run([a.replace("{path}", str(path)) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": f"cannot write {path}: No such file or directory"}) + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_output_files_get_the_mode_open_gives(umask, tmp_path, capsys):
    """--out and --checkpoint files get 0o666 & ~umask, as a plain open(path, "w") would."""
    out, ckpt = tmp_path / "o.json", tmp_path / "net.json"
    old = os.umask(umask)
    try:
        assert run(["oracle", "--A", "2,1", "--out", str(out)], capsys)[0] == 0
        argv = ["nn", "--seed", "1", "--steps", "2", "--n-max", "2", "--widths", "4", "--checkpoint", str(ckpt)]
        assert run(argv, capsys)[0] == 0
    finally:
        os.umask(old)
    assert [p.stat().st_mode & 0o777 for p in (out, ckpt)] == [0o666 & ~umask] * 2


def test_checkpoint_written_atomically(tmp_path, monkeypatch, capsys):
    """A checkpoint whose final rename fails leaves the old file and no temporary file."""
    ckpt = tmp_path / "net.json"
    ckpt.write_text("previous checkpoint\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    argv = ["nn", "--seed", "1", "--steps", "2", "--n-max", "2", "--widths", "4", "--checkpoint", str(ckpt)]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", '{"error": "rename refused"}\n')
    assert ckpt.read_text() == "previous checkpoint\n"
    assert [p.name for p in tmp_path.iterdir()] == ["net.json"]


def test_solve_without_inputs_exit_2(capsys):
    code, _, err = run(["solve"], capsys)
    assert code == 2
    assert "--A" in json.loads(err)["error"]


def test_solve_missing_instance_file_exit_2(capsys):
    code, _, err = run(["solve", "--instance", "/no/such.json"], capsys)
    assert code == 2
    assert "not found" in json.loads(err)["error"]


def test_adversarial_embedded_shape(tmp_path, capsys):
    out_file = tmp_path / "adv.csv"
    code, _, _ = run(
        ["adversarial", "--N", "3", "--m", "2", "--n-max", "2", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = [l.split(",") for l in out_file.read_text().splitlines()[2:]]
    assert rows[0][1] == "1/2" and rows[0][2] == "2/9"  # embedding preserves both


def test_solve_multirow(capsys):
    code, out, _ = run(
        ["solve", "--A", "2,1,0;0,0,1", "--y", "1,0", "--eps", "0"], capsys
    )
    assert code == 0
    assert abs(json.loads(out)["objective_float"] - 0.5) < 1e-4


@pytest.mark.filterwarnings("ignore:overflow")
def test_nn_divergence_exit_3(capsys):
    code = cli.main(["nn", "--seed", "3", "--steps", "200", "--lr", "1000.0"])
    captured = capsys.readouterr()
    assert code == 3
    assert "diverged" in captured.err


@pytest.mark.filterwarnings("error")
def test_nn_divergence_stderr_is_one_json_line(capsys):
    code, out, err = run(["nn", "--seed", "3", "--steps", "200", "--lr", "1000"], capsys)
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "training diverged at step 39; last finite loss 2.6979848877547425e+305",
        "kind": "numerical",
    }


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_nn_nonfinite_lr_exit_2(lr, capsys):
    code, out, err = run(["nn", "--seed", "3", "--steps", "20", "--lr", lr], capsys)
    assert (code, out) == (2, "")
    assert "learning rate" in json.loads(err)["error"]


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_nn_nonpositive_n_max_exit_2_before_training(n_max, tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking --n-max")

    monkeypatch.setattr(mlp, "train", no_training)
    out_file = tmp_path / "report.csv"
    code, out, err = run(["nn", "--seed", "3", "--n-max", n_max, "--out", str(out_file)], capsys)
    assert (code, out) == (2, "")
    assert "--n-max" in json.loads(err)["error"]
    assert not out_file.exists()


@pytest.mark.parametrize("widths", ["0", "16,0", "-3"])
def test_nn_nonpositive_width_exit_2(widths, capsys):
    code, out, err = run(["nn", "--seed", "1", "--widths", widths, "--steps", "2"], capsys)
    assert (code, out) == (2, "")
    assert "--widths" in json.loads(err)["error"]


def test_nn_negative_seed_exit_2_names_seed(capsys):
    code, out, err = run(["nn", "--seed", "-1", "--steps", "2"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "--seed must be >= 0, got -1"


def test_halting_negative_n_max_exit_2(capsys):
    code, out, err = run(["halting", "--machine", "builtin:even", "--n-max", "-1"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "n_max must be >= 0"


def test_gen_data_empty_range_exit_2(capsys):
    code, out, err = run(["gen-data", "--n-lo", "5", "--n-hi", "2", "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert "widen the n range" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["nn", "gen-data"])
def test_empty_training_set_exit_2_before_any_width_is_read(command, capsys):
    """``nn`` takes its first and last layer widths from the training set, so it must not be empty."""
    code, out, err = run([command, "--seed", "1", "--n-lo", "5", "--n-hi", "4"], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "training set came out empty; widen the n range"}) + "\n"


def test_nn_seed_required(capsys):
    code, _, err = run(["nn", "--steps", "10"], capsys)
    assert code == 2
    assert "--seed" in json.loads(err)["error"]


def test_non_integer_flag_exit_2(capsys):
    code, _, err = run(["adversarial", "--n-max", "three"], capsys)
    assert code == 2
    assert "--n-max" in json.loads(err)["error"]


def test_output_meta_is_hash_and_version(tmp_path, capsys):
    code, out, _ = run(["oracle", "--A", "2,1"], capsys)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert sorted(meta) == ["config_hash", "version"]
    out_file = tmp_path / "adv.csv"
    code, _, _ = run(["adversarial", "--n-max", "1", "--out", str(out_file)], capsys)
    assert code == 0
    header = out_file.read_text().splitlines()[0]
    assert re.fullmatch(r"# config_hash=[0-9a-f]{16} version=" + re.escape(meta["version"]), header)


def test_config_file_seeds_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn_max = 2\na = 2\n")
    out_file = tmp_path / "adv.csv"
    code, _, _ = run(
        ["adversarial", "--config", str(cfg), "--out", str(out_file)], capsys
    )
    assert code == 0
    rows = out_file.read_text().splitlines()[2:]
    assert len(rows) == 2  # n_max from config
    # explicit flag beats config
    code, _, _ = run(
        ["adversarial", "--config", str(cfg), "--n-max", "4", "--out", str(out_file)],
        capsys,
    )
    rows = out_file.read_text().splitlines()[2:]
    assert len(rows) == 4


def test_config_file_missing_exit_2(capsys):
    code, _, err = run(["adversarial", "--config", "/no/such.cfg"], capsys)
    assert code == 2
    assert "config" in json.loads(err)["error"]
    code, out, err = run(["adversarial", "--config"], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "--config needs a file path"}) + "\n"


def test_config_file_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run(["adversarial", "--config", str(cfg)], capsys)
    assert code == 2
    assert "--bogus" in json.loads(err)["error"]
    cfg.write_text("n_max = 2\nsolve\n")
    code, out, err = run(["adversarial", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == f"{cfg}:2: expected key=value, got 'solve\\n'"


def test_config_equals_form_in_both_positions(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 2\n")
    _, expected, _ = run(["adversarial", "--config", str(cfg)], capsys)
    assert len(expected.splitlines()) == 2 + 2  # header lines + n_max rows
    for argv in (
        ["--config=" + str(cfg), "adversarial"],
        ["adversarial", "--config=" + str(cfg)],
        ["--config", str(cfg), "adversarial"],
    ):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert out == expected, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "{empty}", "--config", "{b}", "oracle", "--A", "2,1"],
        ["--config", "{empty}", "oracle", "--A", "2,1", "--config", "{b}"],
        ["--config={empty}", "--config={b}", "oracle", "--A", "2,1"],
        ["--config={empty}", "oracle", "--A", "2,1", "--config={b}"],
    ],
    ids=["separate-before", "separate-after", "equals-before", "equals-after"],
)
def test_config_given_twice_exit_2(argv, tmp_path, capsys):
    # only one file seeds the flags; a second one is refused, not dropped
    empty, b = tmp_path / "empty.cfg", tmp_path / "b.cfg"
    empty.write_text("# nothing here\n")
    b.write_text("eps = 1/4\n")
    argv = [a.format(empty=empty, b=b) for a in argv]
    assert run(argv, capsys) == (2, "", '{"error": "--config given more than once"}\n')


def test_config_values_may_start_with_a_minus(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("A = -1,2\ny = -1/2\n")
    expected = run(["solve", "--A=-1,2", "--y=-1/2"], capsys)
    assert expected[0] == 0
    assert run(["solve", "--config", str(cfg)], capsys) == expected


def test_config_file_sets_on_off_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    _, plain, _ = run(["adversarial", "--n-max", "2"], capsys)
    _, flagged, _ = run(["adversarial", "--n-max", "2", "--solve"], capsys)
    assert plain != flagged
    for value, expected in (("1", flagged), ("true", flagged), ("0", plain), ("false", plain)):
        cfg.write_text(f"n_max = 2\nsolve = {value}\n")
        code, out, _ = run(["adversarial", "--config", str(cfg)], capsys)
        assert code == 0, value
        assert out == expected, value
    # an explicit flag wins over the file
    cfg.write_text("n_max = 2\nsolve = 0\n")
    code, out, _ = run(["adversarial", "--config", str(cfg), "--solve"], capsys)
    assert code == 0 and out == flagged
    cfg.write_text("solve = yes\n")
    code, _, err = run(["adversarial", "--config", str(cfg)], capsys)
    assert code == 2
    assert "solve" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "key, flag",
    [("n_ma", "--n-ma"), ("n", "--n"), ("help", "--help"), ("func", "--func")],
    ids=["prefix", "case-variant", "help", "func"],
)
def test_config_near_miss_keys_exit_2(key, flag, tmp_path, capsys):
    # a key names a flag of the subcommand in full: "n" abbreviates --n-max
    # and is --N in lower case, and "func" is a parser default, not a flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 3\n")
    code, out, err = run(["adversarial", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": f"{cfg}:1: adversarial has no flag {flag}"}) + "\n"


@pytest.mark.parametrize("second", ["n_max", "n-max"], ids=["same-spelling", "dash-spelling"])
def test_config_key_given_twice_exit_2(second, tmp_path, capsys):
    # '-' and '_' spell one key; a second setting is refused, not applied
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_max = 2\n# comment\n{second} = 4\n")
    code, out, err = run(["adversarial", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": f"{cfg}:3: --n-max was already set on line 1"}) + "\n"


@pytest.mark.parametrize(
    "argv",
    [["--conf", "{cfg}", "adversarial"], ["adversarial", "--conf", "{cfg}"], ["--conf={cfg}", "adversarial"]],
    ids=["before", "after", "equals"],
)
def test_config_flag_must_be_spelled_in_full(argv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 2\n")
    code, out, err = run([a.format(cfg=cfg) for a in argv], capsys)
    assert (code, out) == (2, "")
    # the file is never read: "--conf" is an unknown flag, or its FILE an unknown subcommand
    assert len(err.splitlines()) == 1 and "error" in json.loads(err)


def test_config_without_subcommand_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 2\n")
    code, out, err = run(["--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "the following arguments are required: command"}) + "\n"


def test_config_never_reaches_the_shared_parser(tmp_path, capsys):
    """A required flag the file supplies stays required for the next run in the process.

    The file spells one key with "-" for "_", which names the same flag.
    """
    cfg = tmp_path / "nn.cfg"
    cfg.write_text("seed = 3\nsteps = 2\nwidths = 4\nn-max = 2\n")
    assert cli.main(["nn", "--config", str(cfg)]) == 0
    capsys.readouterr()
    code, out, err = run(["nn", "--steps", "2", "--widths", "4", "--n-max", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "the following arguments are required: --seed"}) + "\n"


def test_config_run_builds_no_parser(tmp_path, capsys, monkeypatch):
    """A config run parses with the shared parser; the file never builds one."""
    cfg = tmp_path / "adv.cfg"
    cfg.write_text("n_max = 2\nsolve = 1\n")
    cli.build_parser()
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    code, out, err = run(["adversarial", "--config", str(cfg)], capsys)
    assert (code, err, len(out.splitlines())) == (0, "", 2 + 2)
    assert built == []


def test_config_malformed_value_exits_2_under_an_explicit_flag(tmp_path, capsys):
    """argparse checks each file value with its flag's type, even where a flag overrides it."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_max = abc\n")
    code, out, err = run(["adversarial", "--config", str(cfg), "--n-max", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "argument --n-max: invalid int value: 'abc'"}) + "\n"


_ROW = [[{"re": "1", "im": "0"}, {"re": "2", "im": "0"}]]
_Y = [{"re": "1", "im": "0"}]


_NOT_TEXT = 'ValueError: expected a rational as a "num/den" string, got '


@pytest.mark.parametrize(
    "doc, detail",
    [
        ({"A": _ROW, "y": _Y}, ""),  # no "eps"
        ([1, 2, 3], ""),  # a list at the top level
        ({"A": _ROW, "y": _Y, "eps": "1/0"}, ""),  # zero denominator
        ({"A": _ROW, "y": _Y, "eps": 0.5}, _NOT_TEXT + "0.5"),  # a number where "num/den" text belongs
        ({"A": _ROW, "y": [{"re": 1, "im": "0"}], "eps": "0"}, _NOT_TEXT + "1"),  # the same, in an entry
        ({"m": 7, "N": 9, "A": _ROW, "y": _Y, "eps": "0"}, 'ValueError: "m" is 7, but A is 1x2'),
        ({"m": 1, "N": 3, "A": _ROW, "y": _Y, "eps": "0"}, 'ValueError: "N" is 3, but A is 1x2'),
        ({"m": True, "N": 2, "A": _ROW, "y": _Y, "eps": "0"}, 'ValueError: "m" is True, but A is 1x2'),
        ({"m": 1, "N": 2.0, "A": _ROW, "y": _Y, "eps": "0"}, 'ValueError: "N" is 2.0, but A is 1x2'),
        ({"A": [_ROW[0], _ROW[0][:1]], "y": _Y * 2, "eps": "0"}, "ValueError: ragged matrix rows"),
        ({"A": [], "y": _Y, "eps": "0"}, "ValueError: need at least one row"),
    ],
    ids=[
        "missing-key",
        "list",
        "zero-denominator",
        "float-rational",
        "int-rational",
        "wrong-m",
        "wrong-N",
        "bool-m",
        "float-N",
        "ragged-A",
        "empty-A",
    ],
)
def test_solve_malformed_instance_file_exit_2(tmp_path, capsys, doc, detail):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["solve", "--instance", str(path)], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert str(path) in error and error.endswith(detail)


def test_solve_deeply_nested_instance_file_exit_2(tmp_path, capsys):
    # the JSON parser gives up on deep nesting with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 10_000 + "]" * 10_000)
    code, out, err = run(["solve", "--instance", str(path)], capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and str(path) in json.loads(lines[0])["error"]


def test_solve_instance_file(tmp_path, capsys):
    from qcbplab import qcbp

    inst = qcbp.Instance.single_row([Q(3, 2), 1], 1, Q(1, 4))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json()))
    code, out, _ = run(["solve", "--instance", str(path)], capsys)
    assert code == 0
    assert abs(json.loads(out)["objective_float"] - 0.5) < 1e-4


def _write_machine(path, machine):
    """Write ``machine`` as a machine file, rules sorted; returns the path as text."""
    lines = [f"init {machine.initial}", f"accept {machine.accepting}"]
    for (s, sym), (t, w, mv) in sorted(machine.transitions.items()):
        lines.append(f"{s} {sym} -> {t} {w} {mv}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_halting_deep_acceptance_csv(tmp_path, capsys):
    """Machines accepting after thousands of steps produce exact rationals
    with multi-thousand-digit denominators; the CSV path must emit them."""
    from toy_machines import machine_delay

    tm = _write_machine(tmp_path / "delay.tm", machine_delay(2400))
    out_file = tmp_path / "halt.csv"
    code, _, _ = run(
        [
            "halting",
            "--machine",
            tm,
            "--n-max",
            "0",
            "--j-budget",
            "5000",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    row = out_file.read_text().splitlines()[2].split(",")
    assert row[2] == "IN" and row[1] == "2401"
    assert len(row[3]) > 1400  # the exact squared distance in full


def _config_hash(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    if out.startswith("# config_hash="):
        return out.split()[1].split("=")[1]
    return json.loads(out)["meta"]["config_hash"]


def test_config_hash_identifies_machine_and_instance_by_content(tmp_path, capsys):
    """Machine and instance files enter the hash through their parsed content:
    different files give different hashes, one content under two paths (or a
    reordered, commented file) gives one hash."""
    from toy_machines import machine_never, machine_threshold

    halting_argv = ["halting", "--n-max", "8", "--j-budget", "100", "--machine"]
    even = _write_machine(tmp_path / "even.tm", halting.load_builtin("even"))
    reordered = tmp_path / "reordered.tm"
    lines = (tmp_path / "even.tm").read_text().splitlines()
    reordered.write_text("# the even machine, lines reversed\n" + "\n".join(reversed(lines)) + "\n")
    hashes = {
        name: _config_hash(halting_argv + [source], capsys)
        for name, source in [
            ("builtin", "builtin:even"),
            ("file", even),
            ("reordered copy", str(reordered)),
            ("never", _write_machine(tmp_path / "never.tm", machine_never())),
            ("threshold6", _write_machine(tmp_path / "threshold6.tm", machine_threshold(6))),
        ]
    }
    assert hashes["builtin"] == hashes["file"] == hashes["reordered copy"]
    assert len({hashes["builtin"], hashes["never"], hashes["threshold6"]}) == 3

    solve = ["solve", "--instance"]
    one = qcbp.Instance.single_row([Q(2), Q(1)], Q(1), Q(0))
    other = qcbp.Instance.single_row([Q(3), Q(1)], Q(1), Q(0))
    paths = []
    for name, inst in [("one", one), ("one_again", one), ("other", other)]:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(inst.to_json(), indent=1))
    first, again, second = (_config_hash(solve + [str(p)], capsys) for p in paths)
    assert first == again != second


def test_domain_errors_exit_2(tmp_path, capsys):
    assert cli.main(["adversarial", "--n-max", "0"]) == 2
    assert capsys.readouterr().err == '{"error": "n_max must be >= 1"}\n'
    # the halting decision has no precision budget, as a flag or as a config key
    cfg = tmp_path / "precision.cfg"
    cfg.write_text("precision_budget = 64\n")
    for argv in (
        ["halting", "--machine", "builtin:even", "--precision-budget", "64"],
        ["halting", "--config", str(cfg), "--machine", "builtin:even"],
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--precision-budget" in json.loads(err)["error"], argv
    # domain errors raised below the subcommands reach main as they are
    unknown_symbol = tmp_path / "unknown-symbol.tm"
    unknown_symbol.write_text("init a\naccept z\na 1 -> a 2 R\n")
    for argv, message in (
        (["halting", "--machine", str(unknown_symbol)], "unknown symbol in rule (a,1)"),
        (["nn", "--seed", "1", "--m", "2", "--N", "3"], "training data generation uses single-row families"),
        (["gen-data", "--seed", "1", "--m", "2", "--N", "3"], "training data generation uses single-row families"),
        (["gen-data", "--seed", "1", "--noise=-1/8"], "noise bound must be >= 0"),
        (["nn", "--seed", "1", "--steps", "-1"], "steps must be >= 0"),
        (["adversarial", "--tol", "x"], "cannot parse --tol 'x': Invalid literal for Fraction: 'x'"),
        (["adversarial", "--a", "0"], "a must be positive"),
        (["oracle", "--A", "1,-1"], "oracle requires positive entries; entry 1 is -1"),
        (["oracle", "--A", ","], "need at least two columns"),
        (["oracle", "--A", "2"], "need at least two columns"),
        (["solve", "--A", "1,2,3", "--y", "1,1"], "measurement length must equal row count"),
        (["solve", "--A", "1,1,1;2,2,2", "--y", "1,1"], "row rank 1 < m=2"),
    ):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == json.dumps({"error": message}) + "\n", argv
    for argv in (
        ["adversarial", "--eps", "0"],
        ["adversarial", "--eps", "1"],
        ["oracle", "--A", "1"],
        ["nn", "--seed", "1", "--steps", "5", "--lr", "-1.0"],
        ["halting", "--machine", "builtin:even", "--j-budget", "-1"],
    ):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "error" in json.loads(err), argv


PAST_FLOAT64 = str(10**400)


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--A", "1,2", "--y", "1", "--eps", PAST_FLOAT64], "eps"),
        (["--A", f"1,2,3;4,5,-{PAST_FLOAT64}", "--y", "1,1"], "A[1,2]"),
        (["--A", "1,2", "--y", PAST_FLOAT64], "y[0]"),
    ],
)
def test_solve_entry_past_float64_exit_2(argv, field, capsys):
    """An entry the float solver cannot hold is an input error that names it, not a numerical failure."""
    code, out, err = run(["solve", *argv], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": f"{field} does not fit a float64"}) + "\n"


def test_solve_operator_norm_past_float64_exit_2(capsys):
    """Every entry fits a float64 but the operator norm bound does not: an input error."""
    x = "15" + "0" * 307
    code, out, err = run(["solve", "--A", f"{x},{x},{x}", "--y", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "the operator norm bound of A is past float64's range"}) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--A", "1,2", "--y", str(10**308)],
        ["--A", f"1/{10**300},1/{10**300}", "--y", str(10**300)],
    ],
    ids=["huge-y", "tiny-A"],
)
def test_solve_non_finite_iterate_exit_3(argv, capsys):
    """Every entry fits a float64 but the first batch's iterate is NaN: a numerical failure."""
    code, out, err = run(["solve", *argv, "--max-iter", "500"], capsys)
    assert (code, out) == (3, "")
    error = "the primal-dual iterate is not finite after 250 iterations"
    assert err == json.dumps({"error": error, "kind": "numerical"}) + "\n"


def test_solve_subnormal_operator_norm_exit_2(capsys):
    """A norm bound in float64's subnormal range would make the step infinite: an input error, no warning."""
    d = str(10**310)
    code, out, err = run(["solve", "--A", f"1/{d},2/{d}", "--y", f"1/{d}"], capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "the operator norm bound of A is below float64's normal range"}) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nn", "--seed", "1", "--steps", "3", "--n-hi", "2", "--a", "1e400"], "--a: A[0,0] of a training member"),
        (["gen-data", "--seed", "1", "--n-hi", "2", "--a", "1e400"], "--a: A[0,0] of a training member"),
        (["nn", "--seed", "1", "--steps", "3", "--n-hi", "2", "--noise", "1e400"], "--noise: y[0] of a training member"),
        (["gen-data", "--seed", "1", "--n-hi", "2", "--noise", "1e400"], "--noise: y[0] of a training member"),
        # 2**-1030 + 1e-400 in the row puts the solution near 2**1029
        (
            ["gen-data", "--seed", "1", "--n-lo", "1030", "--n-hi", "1030", "--a", "1e-400"],
            "--a or --noise: x[0] of a training member",
        ),
        (
            ["nn", "--seed", "1", "--steps", "3", "--n-hi", "2", "--n-max", "1040", "--a", "1e-400"],
            "--a: x[0] of an evaluation member",
        ),
        (["halting", "--machine", "builtin:even", "--n-max", "3", "--eps", "1/3", "--a", "1e-320"], "--a: the distance of n=0"),
        (["adversarial", "--a", "1e-400", "--n-max", "1040"], "--a: the output distance of n=1025"),
    ],
    ids=["nn-a", "gen-data-a", "nn-noise", "gen-data-noise", "gen-data-solution", "nn-eval", "halting", "adversarial"],
)
def test_family_flag_past_float64_exit_2(argv, message, capsys):
    """A family or noise flag that puts a float column or a network input past float64 is an input error naming the flag."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": f"{message} does not fit a float64"}) + "\n"


def test_solve_accepts_entries_that_round_to_zero(capsys):
    """Entries below float64's range round to 0.0; the exact certificate still holds."""
    tiny = f"1/{PAST_FLOAT64}"
    code, out, err = run(["solve", "--A", f"1,{tiny}", "--y", tiny, "--eps", tiny], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["converged"]
    # every entry and the norm bound round to 0.0, so the step is 1.0
    code, out, err = run(["solve", "--A", f"{tiny},{tiny}", "--y", tiny, "--eps", tiny], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["converged"]


GOLDEN = Path(__file__).parent / "golden"
HUGE = "1" + "0" * 307
EMBEDDED = ["--a", "5/3", "--eps", "1/4", "--N", "5", "--m", "3"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("solve_two_rows", ["solve", "--A", "1,2,3;0,1,-1", "--y", "1,1/2", "--eps", "1/8"]),
        ("solve_single_row", ["solve", "--A", "3/2,1", "--eps", "1/4"]),
        (
            "solve_ill_posed",  # 750 iterations; certified by polishing
            [
                "solve",
                "--A",
                "3,22/19,-4/5,-16/21,20/19;3/5,-16/15,11/20,-9/4,-1/11;2/9,15/8,-12/17,-3/4,22/17",
                "--y",
                "1/16,3/16,1/16",
            ],
        ),
        ("solve_complex", ["solve", "--instance", str(GOLDEN / "complex_instance.json")]),
        ("adversarial_solve", ["adversarial", "--n-max", "30", "--solve"]),
        ("adversarial_embedded", ["adversarial", *EMBEDDED, "--n-max", "12"]),
        ("halting_even", ["halting", "--machine", "builtin:even", "--n-max", "40", "--j-budget", "100000"]),
        (
            "halting_embedded",
            ["halting", "--machine", "builtin:even", *EMBEDDED, "--n-max", "5", "--j-budget", "100"],
        ),
        ("oracle_tied", ["oracle", "--A", "2,2,1,2", "--eps", "1/4"]),  # three active indices
        ("gen_data_noise_free", ["gen-data", "--n-lo", "1", "--n-hi", "3", "--seed", "1"]),
        (
            "gen_data_noise2",  # 13 noisy members and both kinds of skipped one
            ["gen-data", "--n-lo", "1", "--n-hi", "10", "--noise", "2", "--seed", "1"],
        ),
        # eps = 0 (the default): the one-row and the general loop take v = u
        ("solve_single_row_eps0", ["solve", "--A", "3/2,1"]),
        ("solve_complex_eps0", ["solve", "--instance", str(GOLDEN / "complex_instance_eps0.json")]),
    ],
)
def test_golden_output_bytes(name, argv, capsys):
    """Every certified bound byte stays as recorded in tests/golden."""
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("nn_seed7", ["nn", "--seed", "7", "--steps", "300"]),
        (
            "nn_seed3_noise",
            ["nn", "--seed", "3", "--steps", "300", "--n-hi", "6", "--n-max", "8", "--widths", "16,16", "--noise", "1/8"],
        ),
        (
            # from n = 57 on the 2**-n bump is lost when 1/3 + 2**-n is
            # rounded to float, so those rows read gap 0.0
            "nn_seed5_a13",
            ["nn", "--seed", "5", "--steps", "50", "--a", "1/3", "--eps", "1/3", "--N", "3", "--n-max", "64"],
        ),
    ],
)
def test_nn_golden_bytes(name, argv, tmp_path, capsys):
    """The trained weights, the conflict table and the summary line stay as recorded."""
    ckpt = tmp_path / "net.json"
    code, out, err = run(argv + ["--checkpoint", str(ckpt)], capsys)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert err == (GOLDEN / f"{name}.err").read_text()
    assert ckpt.read_text() == (GOLDEN / f"{name}.checkpoint.json").read_text()


@pytest.mark.filterwarnings("error")
def test_solve_with_huge_entries_keeps_stderr_clean(capsys):
    """Float overflow while polishing is not reported: the exact checks reject what it spoils."""
    argv = ["solve", "--A", f"{HUGE},1,1;1,{HUGE},1", "--y", f"{HUGE},{HUGE}", "--max-iter", "500"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "solve_huge_entries.out").read_text()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("solve_stalled_y1e20", ["solve", "--A", "1,2", "--y", "1" + "0" * 20, "--max-iter", "20000"]),
        ("solve_stalled_y1e307", ["solve", "--A", "1,2", "--y", HUGE, "--eps", "1" + "0" * 306, "--max-iter", "5000"]),
    ],
)
def test_stalled_solve_stops_and_keeps_its_bytes(name, argv, monkeypatch, capsys):
    """A batch after the first that returns its input ends the solve: every
    later batch would repeat it.  Both solves return their state in their second
    batch; they ran 80 and 20 kernel calls before and print the same bytes
    (ROADMAP item 13 moves these bytes on purpose)."""
    calls = []
    pd_iterate = _kernels.pd_iterate
    monkeypatch.setattr(_kernels, "pd_iterate", lambda *args: calls.append(1) or pd_iterate(*args))
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert len(calls) == 2


SRC = Path(__file__).resolve().parents[1] / "src"


_BASELINE_GATE = [
    *(
        f"tests/test_cli.py::test_golden_output_bytes[{name}]"
        for name in (
            "solve_two_rows-argv0",
            "solve_single_row-argv1",
            "solve_ill_posed-argv2",
            "solve_complex-argv3",
            "adversarial_solve-argv4",
            "solve_single_row_eps0-argv11",
            "solve_complex_eps0-argv12",
        )
    ),
    "tests/test_cli.py::test_solve_with_huge_entries_keeps_stderr_clean",
    "tests/test_kernels.py::test_pd_replay_of_two_column_solves_keeps_its_bytes",
    "tests/test_kernels.py::test_pd_replay_of_real_solves_keeps_its_bytes",
    "tests/test_kernels.py::test_pd_replay_of_complex_solves_keeps_its_bytes",
    "tests/test_kernels.py::test_pd_replay_kernel_calls_keep_their_bytes[pd_replay_real.json]",
    "tests/test_kernels.py::test_pd_replay_kernel_calls_keep_their_bytes[pd_replay_complex.json]",
]


def test_solve_bytes_hold_on_the_baseline_blas_kernels():
    """Every golden of ``solve`` and ``adversarial --solve`` and every byte
    replay, reports included, keeps its bytes in a process whose OpenBLAS runs
    its x86-64 baseline kernels (``OPENBLAS_CORETYPE=Prescott``): the solver
    makes no BLAS or LAPACK call.  The primal-dual kernel and polishing's
    least-squares solves form their own sums on Python floats."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "addopts=", "-rA", *_BASELINE_GATE],
        capture_output=True,
        text=True,
        cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_CORETYPE": "Prescott"},
        timeout=120,
    )
    passed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("PASSED ")}
    assert proc.returncode == 0 and passed == set(_BASELINE_GATE), (sorted(set(_BASELINE_GATE) - passed), proc.stdout[-3000:])


def module(argv):
    """Exit code, stdout and stderr of ``python -m qcbplab`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "qcbplab", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_python_dash_m_runs_the_cli(capsys):
    """``PYTHONPATH=src python -m qcbplab`` works from a checkout, like ``cli.main``."""
    argv = ["oracle", "--A", "2,1", "--eps", "0"]
    assert module(argv)[:2] == run(argv, capsys)[:2]
    code, out, err = module(["oracle", "--A", "2,x"])
    assert (code, out) == (2, "")
    assert "error" in json.loads(err)


def test_top_level_help_names_config():
    """--config is taken out of argv before argparse runs; the help text still names it."""
    code, out, err = module(["--help"])
    assert (code, err) == (0, "")
    assert "--config FILE" in out
    # argparse wraps the epilog to the terminal width
    assert "read as flags" in " ".join(out.split())


# runs ``python -m qcbplab`` in-process, then prints the loaded qcbplab modules
_LOADED_AFTER = """
import json, runpy, sys
try:
    runpy.run_module("qcbplab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("qcbplab."))]))
"""

LAYERS = {"qcbplab.families", "qcbplab.halting", "qcbplab.mlp"}


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["oracle", "--A", "9/8,1", "--eps", "1/4"], LAYERS, {"qcbplab.cli", "qcbplab.qcbp"}),
        (["solve", "--A", "2,1", "--eps", "1/8"], LAYERS, {"qcbplab.cli", "qcbplab.qcbp"}),
        (
            ["halting", "--machine", "builtin:even", "--n-max", "3"],
            {"qcbplab.mlp"},
            {"qcbplab.families", "qcbplab.halting"},
        ),
        (["adversarial", "--n-max", "3"], {"qcbplab.mlp", "qcbplab.halting"}, {"qcbplab.families"}),
        (["gen-data", "--seed", "1", "--n-hi", "2"], {"qcbplab.halting"}, {"qcbplab.families", "qcbplab.mlp"}),
    ],
    ids=["oracle", "solve", "halting", "adversarial", "gen-data"],
)
def test_subcommand_loads_only_the_layers_it_runs(argv, absent, present):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert (code, proc.stderr) == (0, "")
    assert not absent & set(loaded)
    assert present <= set(loaded)


def test_package_and_exact_layers_load_no_solver():
    probe = (
        "import sys, qcbplab, qcbplab.rationals, qcbplab.creal\n"
        "print('numpy' in sys.modules, 'qcbplab.qcbp' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert (proc.stdout, proc.stderr) == ("False False\n", "")


# runs each argv of a JSON list through ``cli.main`` in one process and prints,
# after each, its exit code and whether numpy is loaded
_NUMPY_AFTER = """
import json, sys
from qcbplab.cli import main
print(json.dumps([[main(argv), "numpy" in sys.modules] for argv in json.loads(sys.argv[1])]))
"""


def test_exact_subcommands_never_load_numpy():
    """``oracle``, ``halting`` and ``adversarial`` without ``--solve`` run no float
    code and never load numpy, one after another in one process; ``solve`` then does."""
    runs = [
        ["oracle", "--A", "2,1"],
        ["halting", "--machine", "builtin:even", "--n-max", "5"],
        ["adversarial", "--n-max", "3"],
        ["solve", "--A", "2,1"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_AFTER, json.dumps(runs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, False], [0, False], [0, False], [0, True]]


def test_main_calls_in_one_process_share_one_parser(tmp_path, capsys):
    """The parser is built once; each later main() call prints what a fresh process prints."""
    cfg = tmp_path / "embedded.cfg"
    cfg.write_text("n_max = 5\nj_budget = 100\n")
    oracle = ["oracle", "--A", "9/8,1", "--eps", "1/4"]
    fresh = {
        "oracle": module(oracle),
        "usage": module(["oracle", "--eps", "1/4"]),
    }
    assert fresh["usage"][0] == 2
    assert cli.build_parser() is cli.build_parser()
    assert run(oracle, capsys) == fresh["oracle"]
    assert run(["oracle", "--eps", "1/4"], capsys) == fresh["usage"]
    halting_even = ["halting", "--machine", "builtin:even", "--n-max", "40", "--j-budget", "100000"]
    assert run(halting_even, capsys) == (0, (GOLDEN / "halting_even.out").read_text(), "")
    config_run = ["halting", "--config", str(cfg), "--machine", "builtin:even", *EMBEDDED]
    assert run(config_run, capsys) == (0, (GOLDEN / "halting_embedded.out").read_text(), "")
    assert run(oracle, capsys) == fresh["oracle"]
