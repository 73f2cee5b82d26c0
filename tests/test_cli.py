import json
import os
import subprocess
import sys

import pytest

import orgrass
import orgrass.cli
import orgrass.duals
import orgrass.rank_cup
import orgrass.suites
from orgrass.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ORGRASS_CACHE_DIR", str(tmp_path / "cache"))


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--k", "3", "--i", "3")
    assert code == 0
    assert out.strip() == "w1^3 + w3"
    code, out, _ = run(capsys, "dual", "--k", "4", "--i", "0")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "dual", "--k", "3", "--i", "1")
    assert out.strip() == "w1"


def test_report_commands_never_touch_cache(capsys, tmp_path):
    code, out, _ = run(capsys, "dual", "--k", "3", "--i", "6")
    assert code == 0
    assert out.strip() == "w1^6 + w1^4*w2 + w2^3 + w3^2"
    for argv in (
        ("g", "--k", "3", "--i", "6"),
        ("scan", "--k", "3", "--kill", "1", "--lo", "2", "--hi", "20"),
        *((command, "--n", "8", "--k", "3") for command in ("betti", "charrank", "cup")),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert not (tmp_path / "cache").exists()


def test_cache_dir_is_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["dual", "--k", "3", "--i", "3", "--cache-dir", str(tmp_path / "explicit")])
    assert exc.value.code == 2
    assert not (tmp_path / "explicit").exists()


def test_g_command(capsys):
    code, out, _ = run(capsys, "g", "--k", "4", "--i", "5")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "g", "--k", "5", "--i", "5")
    assert out.strip() == "w5"


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--k", "3", "--kill", "1", "--lo", "2", "--hi", "100")
    assert code == 0
    assert "[5, 13, 29, 61]" in out


def test_scan_values(capsys):
    code, out, _ = run(
        capsys, "scan", "--k", "4", "--kill", "1,2,3", "--lo", "12", "--hi", "12", "--values"
    )
    assert code == 0
    assert "12: w4^3" in out


def test_scan_json(capsys):
    code, out, _ = run(
        capsys, "scan", "--k", "5", "--kill", "1", "--lo", "2", "--hi", "60", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == "orgrass-scan/1"
    assert payload["zero_degrees"] == []


def test_scan_bad_kill(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--k", "3", "--kill", "7", "--lo", "0", "--hi", "4"])
    assert exc.value.code == 2


def test_betti_human(capsys):
    code, out, _ = run(capsys, "betti", "--n", "6", "--k", "3")
    assert code == 0
    assert "total dim H*(G)=20" in out
    assert "r(G~)=2" in out


def test_betti_json_stable(capsys):
    code, out1, _ = run(capsys, "betti", "--n", "8", "--k", "3", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "betti", "--n", "8", "--k", "3", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["format"] == "orgrass-gysin/1"
    assert payload["total_dim_base"] == 56
    row = payload["rows"][0]
    assert set(row) == {"j", "dim_base", "w1_rank", "ker", "coker", "dim_cover"}


def test_betti_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--n", "5", "--k", "3"])
    assert exc.value.code == 2


def test_betti_strategy_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--n", "8", "--k", "3", "--strategy", "direct"])
    assert exc.value.code == 2


def test_charrank_command(capsys):
    code, out, _ = run(capsys, "charrank", "--n", "8", "--k", "3")
    assert code == 0
    assert "exact 6" in out
    assert "agrees" in out


def test_charrank_capped_exit_code(capsys):
    code, out, _ = run(capsys, "charrank", "--n", "8", "--k", "3", "--cap", "3")
    assert code == 3
    assert "at least 3" in out


def test_charrank_json(capsys):
    code, out, _ = run(capsys, "charrank", "--n", "13", "--k", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 11
    assert payload["exact"] is True
    assert payload["prediction"] == {"kind": "exact", "value": 11}


def test_cup_command(capsys):
    code, out, _ = run(capsys, "cup", "--n", "8", "--k", "3")
    assert code == 0
    assert "upper bound: 5" in out
    assert "exact: 5" in out


def test_cup_json(capsys):
    code, out, _ = run(capsys, "cup", "--n", "8", "--k", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == 5
    assert payload["lower_sw"] == 4
    assert payload["exact_source"] == "case_table"


def test_cup_negative_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cup", "--n", "8", "--k", "3", "--budget", "-1"])
    assert exc.value.code == 2
    assert "budget must be non-negative" in capsys.readouterr().err
    code, out, _ = run(capsys, "cup", "--n", "8", "--k", "3", "--budget", "0")
    assert code == 3
    assert "[search capped]" in out


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "points")
    assert code == 0
    assert "PASS" in out


def test_verify_vanishing_with_hi(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "vanishing", "--hi", "64")
    assert code == 0


def test_verify_json_stable_without_timing(capsys):
    code, out1, _ = run(capsys, "verify", "--suite", "points", "--json")
    code, out2, _ = run(capsys, "verify", "--suite", "points", "--json")
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert all("seconds" not in row for row in payload["rows"])


def test_verify_charrank_tmax(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "charrank", "--t-max", "3")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "charrank", "--t-max", "0"),
        ("--suite", "cup", "--t-max", "2"),
        ("--suite", "gysin", "--t-max", "2"),
    ],
)
def test_verify_empty_selection_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert "selects no rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "all", "--t-max", "3"),
        ("--suite", "points", "--t-max", "3"),
        ("--suite", "oracle", "--t-max", "3"),
        ("--suite", "points", "--hi", "64"),
        ("--suite", "charrank", "--hi", "64"),
    ],
)
def test_verify_unread_bound_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--suite", "charrank", "--t-max", "-1"), "--t-max"),
        (("--suite", "cup", "--t-max", "-3"), "--t-max"),
        (("--suite", "vanishing", "--hi", "1"), "--hi"),
        (("--suite", "vanishing", "--hi", "-5"), "--hi"),
    ],
)
def test_verify_out_of_range_bound_names_its_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "shift count" not in err and "degree range" not in err


def test_verbose_only_on_scan(capsys):
    code, _, err = run(capsys, "scan", "--k", "3", "--kill", "1", "--lo", "2", "--hi", "300", "-v")
    assert code == 0
    assert "scanned through degree 256" in err
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--n", "6", "--k", "3", "-v"])
    assert exc.value.code == 2


@pytest.mark.parametrize("values", [(), ("--values",)])
def test_verbose_scan_progress_lines(capsys, values):
    # the same lines whether the kernel streams values or not
    code, _, err = run(capsys, "scan", "--k", "3", "--kill", "1", "--lo", "100", "--hi", "520", "-v", *values)
    assert code == 0
    assert err == "".join(f"  ... scanned through degree {i}\n" for i in (128, 256, 384, 512))


def test_unexpected_error_exits_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    # each command looks its engine function up in the engine module when it runs
    monkeypatch.setattr(orgrass.duals, "scan_vanishing", broken)
    code, out, err = run(capsys, "scan", "--k", "3", "--kill", "1", "--lo", "2", "--hi", "10")
    assert code == 1
    assert err == "error: RuntimeError: boom\n"


def test_inconsistency_exits_1_with_its_message(capsys, monkeypatch):
    def inconsistent(*args, **kwargs):
        raise orgrass.rank_cup.InconsistencyError("ranks disagree")

    monkeypatch.setattr(orgrass.rank_cup, "cup_report", inconsistent)
    code, out, err = run(capsys, "cup", "--n", "8", "--k", "3")
    assert code == 1
    assert out == ""
    assert err == "error: ranks disagree\n"


def test_suite_choices_are_the_suites():
    assert list(orgrass.cli.SUITE_NAMES) == sorted(orgrass.suites.SUITES)


def test_bad_suite_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonesuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


IMPORTS = """
import json, sys
from orgrass.cli import main
loaded = []
for argv in {commands!r}:
    assert main(argv) == 0
    loaded.append(sorted(m for m in sys.modules if m.startswith("orgrass.")))
print(json.dumps(loaded))
"""


def _loaded_after(*commands):
    """The orgrass submodules loaded after each command, run in turn in a
    fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orgrass.__file__)))
    script = IMPORTS.format(commands=[list(c) for c in commands])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(mods) for mods in json.loads(proc.stdout.splitlines()[-1])]


def test_commands_load_only_their_modules():
    duals = {"orgrass.cli", "orgrass.duals", "orgrass.gf2poly"}
    for argv in (
        ("dual", "--k", "3", "--i", "3"),
        ("g", "--k", "3", "--i", "6"),
        ("scan", "--k", "3", "--kill", "1", "--lo", "2", "--hi", "20"),
    ):
        assert _loaded_after(argv) == [duals]
    betti, charrank, cup, verify = _loaded_after(
        ("betti", "--n", "8", "--k", "3", "--json"),
        ("charrank", "--n", "8", "--k", "3"),
        ("cup", "--n", "8", "--k", "3"),
        ("verify", "--suite", "points"),
    )
    assert betti == {"orgrass.cli", "orgrass.cohomology", "orgrass.gf2poly", "orgrass.schubert"}
    assert charrank == cup == betti | {"orgrass.rank_cup"}
    assert verify == cup | {"orgrass.duals", "orgrass.suites"}


PACKAGE = """
import sys
import orgrass
names = {}
exec("from orgrass import *", names)
assert set(orgrass.__all__) <= set(names), set(orgrass.__all__) - set(names)
assert set(orgrass.__all__) <= set(dir(orgrass))
try:
    orgrass.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("an unknown attribute must raise AttributeError")
print("ok")
"""


def test_package_names_resolve_on_first_use():
    src = os.path.dirname(os.path.dirname(os.path.abspath(orgrass.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", PACKAGE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_closed_stdout_exits_without_traceback():
    src = os.path.dirname(os.path.dirname(os.path.abspath(orgrass.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["scan", "--k", "3", "--kill", "1", "--lo", "2", "--hi", "3000", "--values"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "orgrass.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()  # about 1 MB follows, far more than a pipe holds
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"reductions of the dual classes")
    assert err == b""


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("orgrass ")
