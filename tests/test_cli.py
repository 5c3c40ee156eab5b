import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pcgroups.cli import run
from pcgroups.words import MAX_WORD_LETTERS

SRC = str(Path(__file__).resolve().parents[1] / "src")

C5P_TEXT = """vertices t a1 a2 a3 a4
edge t a1
edge a1 a2
edge a2 a3
edge a3 a4
edge a4 t
edge a1 a4
"""

AB_TEXT = """vertices a b
edge a b
"""


@pytest.fixture
def c5p(tmp_path):
    path = tmp_path / "c5p.txt"
    path.write_text(C5P_TEXT)
    return str(path)


@pytest.fixture
def ab(tmp_path):
    path = tmp_path / "ab.txt"
    path.write_text(AB_TEXT)
    return str(path)


def test_normalize(ab, capsys):
    assert run(["normalize", "--graph", ab, "--word", "a b a^-1"]) == 0
    assert capsys.readouterr().out.strip() == "b"


def test_equal_and_conjugate(ab, capsys):
    assert run(["equal", "--graph", ab, "--word", "a b", "--word2", "b a"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["conjugate", "--graph", ab, "--word", "a", "--word2", "b"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_support(c5p, capsys):
    assert run(["support", "--graph", c5p, "--word", "a1 a2 a1^-1"]) == 0
    assert capsys.readouterr().out.strip() == "a2"


def test_hnn_and_sigma(c5p, capsys):
    assert run(["hnn", "--graph", c5p, "--word", "a2 t a1 t^-1",
                "--t", "t"]) == 0
    assert "(t-length 0)" in capsys.readouterr().out
    assert run(["sigma", "--graph", c5p, "--word", "a1 a2 t a4 t",
                "--t", "t", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == "[a2] t t"


def test_check_text_and_json(c5p, capsys):
    assert run(["check", "--graph", c5p, "--word", "a2 a3 t", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "EMBEDS" in out and "order of s: 3" in out
    assert run(["check", "--graph", c5p, "--word", "a2 a3 t", "--n", "3",
                "--t", "t", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order_of_s"] == 3
    assert len(data["per_t"]) == 1 and data["per_t"][0]["t"] == "t"


def test_check_t_restricts_the_centre_split_and_the_chord_advisories(
        tmp_path, capsys):
    # --t picks the one candidate of the main theorem, of the centre
    # split's verdict on the graph without z and of the chord advisories
    centred = tmp_path / "centred.txt"
    centred.write_text("vertices a b c z\nedge a z\nedge b z\nedge c z\n"
                       "edge a b\n")
    assert run(["check", "--graph", str(centred), "--word", "a c b^-1 c^-1",
                "--n", "3", "--t", "a", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [(c["subset"], c["justification"]) for c in data["conclusions"]
            if c["status"] != "UNKNOWN"] == [
        (["z"], "theorem_amalgam_trivial_part"),
        (["b", "c", "z"], "theorem_main; centre_split")]
    cycle = tmp_path / "c6.txt"
    cycle.write_text("vertices t a1 a2 a3 a4 a5\nedge t a1\nedge a1 a2\n"
                     "edge a2 a3\nedge a3 a4\nedge a4 a5\nedge a5 t\n")
    assert run(["check", "--graph", str(cycle), "--word", "a2 a3 a5 t a4",
                "--n", "3", "--t", "a2"]) == 0
    out = capsys.readouterr().out
    assert out.count("cycle_chord_reduction") == 1
    assert "<t a4 a5>: RESTRICTED_EMBEDS (cycle_chord_reduction(t=a2))" in out


def test_census_csv_and_json(capsys):
    assert run(["census", "--n", "5", "--d", "1", "--k", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("n,d,k,l_H,")
    assert lines[1].split(",")[:6] == ["5", "1", "1", "9", "5", "5"]
    assert run(["census", "--n", "5", "--d", "2", "--k", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["enumerated"]["l2"] == data["formula"]["l2"]


def test_census_is_imported_on_first_use(ab):
    # import pcgroups and the other commands leave the census unloaded;
    # the attribute, the from-import and the census command load it
    code = """if True:
        import sys
        import pcgroups
        from pcgroups.cli import run
        assert run(["normalize", "--graph", sys.argv[1], "--word", "a"]) == 0
        assert "pcgroups.census" not in sys.modules
        assert "pcgroups.census_slots" not in sys.modules
        assert "census" in pcgroups.__all__
        assert pcgroups.census is sys.modules["pcgroups.census"]
        from pcgroups import census
        assert census is pcgroups.census
        try:
            pcgroups.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("no AttributeError")
    """
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, ab],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "pcgroups.cli", "census", "--n", "5", "--d",
         "1", "--k", "1"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[1].split(",")[:6] \
        == ["5", "1", "1", "9", "5", "5"]


def test_import_loads_no_dataclasses_re_or_json(c5p):
    # a CLI call pays for every module the import loads: the package and a
    # graph leave dataclasses, inspect, re and json unloaded, and the CLI
    # (argparse loads re) leaves dataclasses and inspect unloaded
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        import pcgroups
        pcgroups.load_graph(sys.argv[2])
        for name in ("words", "cosets", "hnn", "freiheitssatz"):
            assert "pcgroups." + name in sys.modules, name
        assert "pcgroups.census" not in sys.modules
        print(sorted({"dataclasses", "inspect", "re", "json"}
                     & set(sys.modules)))
        import pcgroups.cli
        print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
    """
    proc = subprocess.run([sys.executable, "-S", "-c", code, SRC, c5p],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_density_sample(capsys):
    args = ["density", "--n", "5", "--d", "2", "--k", "1", "--mode", "sample",
            "--samples", "200", "--seed", "42", "--json"]
    assert run(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second  # byte-identical under a fixed seed
    assert 0.0 <= first["rho_sample"] <= 1.0


def test_out_file(c5p, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["check", "--graph", c5p, "--word", "a2 a3 t", "--n", "3",
                "--json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["order_of_s"] == 3
    assert capsys.readouterr().out == ""


def test_domain_error_exit_code(c5p, capsys):
    assert run(["normalize", "--graph", c5p, "--word", "zz"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["check", "--graph", c5p, "--word", "a2 t a2^-1",
                "--n", "3"]) == 1


def test_word_budget_exit_code(ab, capsys):
    assert run(["normalize", "--graph", ab,
                "--word", f"a^{MAX_WORD_LETTERS + 1}"]) == 1
    assert "error:" in capsys.readouterr().err


def test_huge_exponent_exit_code(ab, capsys):
    # more digits than Python's integer-string limit
    assert run(["normalize", "--graph", ab, "--word", "a^" + "1" * 5000]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["normalize", "--word", "a"])
    assert exc.value.code == 2


def test_exponent_below_one_exit_code(c5p, capsys):
    for n in ("0", "-3"):
        assert run(["check", "--graph", c5p, "--word", "a2 a3 t",
                    "--n", n]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""


def test_graph_file_not_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"vertices a \xff\xfe\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pcgroups.cli", "normalize", "--graph",
         str(path), "--word", "a"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_missing_graph_file(capsys):
    assert run(["normalize", "--graph", "/nonexistent/g.txt",
                "--word", "a"]) == 1
    assert "error:" in capsys.readouterr().err


def test_census_budget_exits_before_any_work():
    # the automaton work for d = 2 over 99999 generators is far over the
    # census budget, and the check runs before the first level is counted;
    # an alphabet of 2(n - 1) letters over the budget is never built (the
    # address-space limit keeps a 2 * 10^9-letter tuple from being tried)
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    for n, d in (("100000", "2"), ("1000000000", "1")):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pcgroups.cli", "census", "--n", n,
             "--d", d, "--k", "1"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=30,
            preexec_fn=limit)
        assert time.perf_counter() - start < 1.0, n
        assert proc.returncode == 1 and proc.stdout == ""
        assert (proc.stderr.startswith("error:")
                and "Traceback" not in proc.stderr)


def test_census_k_budget_exits_before_any_work():
    # k = 10^6 at d = 3 is far over the k-side budget, checked from the
    # slot counts before the engine runs
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pcgroups.cli", "census", "--n", "5",
         "--d", "3", "--k", "1000000"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=30)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_census_sample_budget_exits_before_any_work():
    # 1000 samples at k = 4276 are far over the sample budget, checked
    # before the row is counted; unchecked, this request ran for 7.7 s
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pcgroups.cli", "census", "--n", "5",
         "--d", "3", "--k", "4276", "--mode", "sample", "--samples", "1000",
         "--seed", "1"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=30)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_census_prints_counts_past_4300_digits():
    # l2 at (5, 3, 2000) has about 4400 digits, past Python's default
    # limit on int -> str, and the row is within the census budgets
    proc = subprocess.run(
        [sys.executable, "-m", "pcgroups.cli", "census", "--n", "5",
         "--d", "3", "--k", "2000", "--json"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=30)
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout, parse_int=str)  # digits, not ints
    assert len(row["enumerated"]["l2"]) > 4300
    assert row["enumerated"]["l2"] == row["formula"]["l2"]


def _digits(n):
    """Decimal digits of n >= 0, built from parts short enough for
    Python's limit on int -> str."""
    parts = []
    while n >= 10**1000:
        n, r = divmod(n, 10**1000)
        parts.append(f"{r:01000d}")
    return str(n) + "".join(reversed(parts))


def test_census_writers_print_counts_past_4300_digits_in_process(capsys):
    # run() and both row writers, called in-process under Python's default
    # limit on int -> str, print every digit of the counts at (5, 3, 3000)
    # and leave the limit as they found it
    from pcgroups import census
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    row = census.census_row(5, 3, 3000)
    l2, l_dk = _digits(row.enumerated["l2"]), _digits(row.enumerated["l_dk"])
    assert len(l2) > 4300 and len(l_dk) > 4300
    data = json.loads(row.to_json(), parse_int=str)  # digits, not ints
    assert data["enumerated"]["l2"] == data["formula"]["l2"] == l2
    text = census.rows_to_csv([row])
    assert text.splitlines()[1].split(",")[census.CensusRow.COLUMNS.index(
        "l2")] == l2
    assert run(["census", "--n", "5", "--d", "3", "--k", "3000"]) == 0
    assert capsys.readouterr().out == text
    assert run(["density", "--n", "5", "--d", "3", "--k", "3000"]) == 0
    assert f"\nl_dk: {l_dk}\n" in capsys.readouterr().out
    assert run(["density", "--n", "5", "--d", "3", "--k", "3000",
                "--json"]) == 0
    assert json.loads(capsys.readouterr().out, parse_int=str)["l_dk"] == l_dk
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
