import csv
import dataclasses
import json

import pytest

from lowrank_als import bench, cli
from lowrank_als.bench import SuiteConfig
from lowrank_als.cli import main


def test_small_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(
        [
            "--m", "32", "--n", "64",
            "--k", "2", "--delta", "1e-3",
            "--iters", "0,2", "--seeds", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    assert {row["j"] for row in rows} == {"0", "2"}
    assert "max epsilon/delta by j" in capsys.readouterr().out


def test_json_output(tmp_path):
    out = tmp_path / "records.json"
    code = main(
        [
            "--m", "32", "--n", "64",
            "--k", "2", "--delta", "1e-3",
            "--iters", "1", "--seeds", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 1


def test_out_suffix_picks_the_format(tmp_path):
    # JSON for a .json suffix in any case, CSV for any other path.
    grid = ["--m", "32", "--n", "64", "--k", "2", "--delta", "1e-3", "--iters", "1", "--seeds", "1"]
    assert main([*grid, "--out", str(tmp_path / "records.JSON")]) == 0
    assert len(json.loads((tmp_path / "records.JSON").read_text())["records"]) == 1
    assert main([*grid, "--out", str(tmp_path / "records.txt")]) == 0
    rows = list(csv.DictReader((tmp_path / "records.txt").read_text().splitlines()))
    assert len(rows) == 1


def test_flags():
    flags = {flag for action in cli.build_parser()._actions for flag in action.option_strings}
    assert flags - {"-h", "--help"} == {
        "--m", "--n", "--k", "--delta", "--iters", "--seeds", "--transform", "--out", "--full", "--verify",
    }


def test_explicit_seed_list(tmp_path):
    out = tmp_path / "records.csv"
    code = main(
        [
            "--m", "32", "--n", "64",
            "--k", "2", "--delta", "1e-3",
            "--iters", "1", "--seeds", "3,7",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {row["seed"] for row in rows} == {"3", "7"}


def test_real_transform(tmp_path):
    out = tmp_path / "records.csv"
    code = main(
        [
            "--m", "32", "--n", "64",
            "--k", "2", "--delta", "1e-3",
            "--iters", "1", "--seeds", "1",
            "--transform", "real",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["transform"] == "real_orthogonal"


def test_defaults_are_the_default_suite(monkeypatch):
    # With no options the harness runs SuiteConfig() itself, cells in its order.
    seen = []

    def capture(config):
        seen.append(config)
        return [], {"max_epsilon_over_delta_by_j": {}, "failures": []}

    monkeypatch.setattr(cli, "run_suite", capture)
    assert main([]) == 0
    assert seen == [SuiteConfig()]


def test_failed_test_matrix_exits_1(monkeypatch, capsys):
    real_build = bench.build_test_matrix

    def flaky(spec):
        if spec.m == 48:
            raise RuntimeError("boom")
        return real_build(spec)

    monkeypatch.setattr(bench, "build_test_matrix", flaky)
    monkeypatch.setattr(cli, "PAPER_SIZES", ((48, 64), (32, 64)))
    code = main(["--full", "--k", "2", "--delta", "1e-3", "--iters", "0,1", "--seeds", "1"])
    assert code == 1
    out, err = capsys.readouterr()
    spec = bench.TestMatrixSpec(48, 64, 2, 1e-3)
    assert err.splitlines() == ["1 test matrix(es) failed:", f"  {dataclasses.asdict(spec)}: boom"]
    assert out.count("(32 x 64, seed 0)") == 2
    assert "(48 x 64" not in out


@pytest.mark.parametrize("size", [["--m", "64"], ["--n", "128"], ["--m", "64", "--n", "128"]])
def test_full_refuses_a_size(size, monkeypatch, capsys):
    # --full runs PAPER_SIZES; a size given with it would be dropped silently.
    monkeypatch.setattr(cli, "run_suite", lambda config: pytest.fail("ran a suite"))
    assert main(["--full", *size]) == 2
    assert "--full runs the paper sizes and takes no --m or --n" in capsys.readouterr().err


def test_configuration_error_exit_code():
    # k = 10 does not fit a 4x4 matrix.
    assert main(["--m", "4", "--n", "4", "--k", "10", "--iters", "1", "--seeds", "1"]) == 2


def test_zero_seed_count_is_config_error():
    assert main(["--m", "32", "--n", "64", "--seeds", "0", "--iters", "1"]) == 2


@pytest.mark.parametrize(
    "options",
    [["--seeds=-1,2"], ["--seeds", "1,1", "--iters", "2,2"], ["--seeds", "0,1,0"], ["--k", "2,2"]],
    ids=["negative_seed", "repeated_seed_and_iters", "repeated_seed", "repeated_k"],
)
def test_bad_grid_is_config_error_before_any_build(options, monkeypatch, capsys):
    # A negative seed used to fail every matrix inside its batch (exit 1), and
    # a repeated seed or j wrote each cell once per repeat.
    monkeypatch.setattr(bench, "build_test_matrix", lambda spec: pytest.fail("built a matrix"))
    assert main(["--m", "32", "--n", "64", *options]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["--bogus"])
    assert err.value.code == 2


def test_verify_passes(capsys):
    assert main(["--verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out


@pytest.mark.parametrize(
    "options", [["--full"], ["--out", "v.json"], ["--k", "4"], ["--m", "0"]], ids=["full", "out", "k", "m_zero"]
)
def test_verify_refuses_other_options(options, tmp_path, monkeypatch, capsys):
    # --verify runs only the theory checks; a grid option or --out given
    # with it would be dropped silently.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_all", lambda: pytest.fail("ran the checks"))
    monkeypatch.setattr(cli, "run_suite", lambda config: pytest.fail("ran a suite"))
    assert main(["--verify", *options]) == 2
    assert f"configuration error: --verify takes no {options[0]}\n" == capsys.readouterr().err
    assert not list(tmp_path.iterdir())
