"""CLI surface: subcommands, exit codes, reproducible outputs."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from qcbplab import cli, families, halting, mlp, qcbp


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


def test_halting_missing_machine_exit_2(capsys):
    code, _, err = run(["halting", "--machine", "/no/such/file.tm"], capsys)
    assert code == 2
    assert "not found" in json.loads(err)["error"]


def test_halting_violated_certificate_exit_3(monkeypatch, capsys):
    real = cli.families.separation_certificate
    monkeypatch.setattr(
        cli.families,
        "separation_certificate",
        lambda p: dataclasses.replace(real(p), bound=Q(4)),
    )
    code, out, err = run(["halting", "--machine", "builtin:even", "--n-max", "2"], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "separation certificate violated at decision time", "kind": "numerical"}


def test_halting_machine_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("init a\naccept z\ngarbage line here\n")
    code, _, err = run(["halting", "--machine", str(bad)], capsys)
    assert code == 2
    assert "line 3" in json.loads(err)["error"]


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

    monkeypatch.setattr(cli.mlp, "train", no_training)
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


def test_halting_negative_n_max_exit_2(capsys):
    code, out, err = run(["halting", "--machine", "builtin:even", "--n-max", "-1"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "n_max must be >= 0"


def test_gen_data_empty_range_exit_2(capsys):
    code, out, err = run(["gen-data", "--n-lo", "5", "--n-hi", "2", "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert "widen the n range" in json.loads(err)["error"]


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


def test_config_file_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run(["adversarial", "--config", str(cfg)], capsys)
    assert code == 2
    assert "--bogus" in json.loads(err)["error"]


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


_ROW = [[{"re": "1", "im": "0"}, {"re": "2", "im": "0"}]]
_Y = [{"re": "1", "im": "0"}]


@pytest.mark.parametrize(
    "doc",
    [
        {"A": _ROW, "y": _Y},  # no "eps"
        [1, 2, 3],  # a list at the top level
        {"A": _ROW, "y": _Y, "eps": "1/0"},  # zero denominator
        {"A": _ROW, "y": _Y, "eps": 0.5},  # a number where "num/den" text belongs
    ],
    ids=["missing-key", "list", "zero-denominator", "float-rational"],
)
def test_solve_malformed_instance_file_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["solve", "--instance", str(path)], capsys)
    assert code == 2 and out == ""
    assert str(path) in json.loads(err)["error"]


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


def test_domain_errors_exit_2(capsys):
    assert cli.main(["adversarial", "--n-max", "0"]) == 2
    assert capsys.readouterr().err == '{"error": "n_max must be >= 1"}\n'
    # a negative precision budget is an input error, as a negative j budget is
    assert cli.main(["halting", "--machine", "builtin:even", "--precision-budget", "-1"]) == 2
    assert capsys.readouterr().err == '{"error": "precision budget must be nonnegative"}\n'
    # domain errors raised below the subcommands reach main as they are
    for argv, message in (
        (["adversarial", "--a", "0"], "a must be positive"),
        (["oracle", "--A", "1,-1"], "oracle requires positive entries; entry 1 is -1"),
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


SRC = Path(__file__).resolve().parents[1] / "src"


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
