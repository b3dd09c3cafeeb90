import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bosecount
from bosecount.cli import _ROW_BLOCK, _rows_csv, _rows_json, build_plan, main
from bosecount.distributions import (
    RareEventSpec,
    TransferSpec,
    bose_exact,
    bose_rare_limit,
    classical_exact,
    classical_rare_limit,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDist:
    def test_bose_limit_headline_row(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "bose", "--limit",
                           "--m", "3", "--w", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m_prime", "probability"]
        assert rows[0][0] == "0"
        assert float(rows[0][1]) == pytest.approx(27 * math.exp(-3) / 6, rel=1e-15)
        assert rows[0][1] == "0.22404180765538775"

    def test_classical_limit_first_row(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "classical", "--limit", "--w", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == "0"
        assert float(rows[0][1]) == pytest.approx(math.exp(-3), rel=1e-15)
        assert rows[0][1] == "0.049787068367863944"

    def test_bose_exact_interference_null(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "bose",
                           "--N", "2", "--m", "1", "--p", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["0.5", "0.0", "0.5"]

    def test_rows_ascending_and_complete(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "classical",
                           "--N", "40", "--m", "3", "--p", "0.2")
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r[0]) for r in rows] == list(range(41))
        total = sum(float(r[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_w_flag_derives_p(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "bose",
                           "--N", "1000", "--m", "1", "--w", "2")
        assert code == 0
        _, rows = parse_csv(out)
        ref = bose_exact(TransferSpec(1000, 1, 2 / 1000)).probs
        assert float(rows[0][1]) == ref[0]

    def test_json_and_csv_carry_identical_values(self, capsys):
        _, csv_out, _ = run(capsys, "dist", "--model", "bose", "--limit",
                            "--m", "2", "--w", "1.5")
        _, json_out, _ = run(capsys, "dist", "--model", "bose", "--limit",
                             "--m", "2", "--w", "1.5", "--format", "json")
        _, csv_rows = parse_csv(csv_out)
        doc = json.loads(json_out)
        assert doc["meta"]["model"] == "bose-limit"
        assert len(doc["rows"]) == len(csv_rows)
        for (mp_csv, p_csv), (mp_json, p_json) in zip(csv_rows, doc["rows"]):
            assert int(mp_csv) == mp_json
            assert float(p_csv) == p_json

    def test_byte_stable_across_runs(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["dist", "--model", "bose", "--N", "500", "--m", "4", "--p", "0.37"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        raw = out_a.read_bytes()
        assert raw == out_b.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_mmax_truncates_bose_limit(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "bose", "--limit",
                           "--m", "1", "--w", "3", "--mmax", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6
        ref = bose_rare_limit(RareEventSpec(3.0, 1), 5).probs
        assert [float(r[1]) for r in rows] == list(ref)

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--model", "bose", "--p", "0.5", "--w", "3"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--model", "bose", "--p", "0.5"])  # exact needs --N
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--model", "classical", "--limit", "--p", "0.5"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--model", "classical", "--limit", "--w", "3",
                  "--mmax", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["dist", "--model", "bose", "--N", "0", "--w", "3"],
        ["plan", "--N", "0"],
        ["dist", "--model", "bose", "--N", "abc", "--w", "3"],
    ])
    def test_nonpositive_n_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_invalid_range_exits_2(self, capsys):
        code = main(["dist", "--model", "bose", "--N", "10", "--m", "11", "--p", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error" in captured.err

    @pytest.mark.parametrize("argv", [
        ["dist", "--model", "bose", "--N", "4194305", "--m", "3", "--w", "3"],
        ["dist", "--model", "classical", "--N", "4194305", "--p", "0.1"],
        ["figure", "--id", "4", "--N", "4194305"],
        ["plan", "--N", "4194305", "--m", "3"],
        ["dist", "--model", "bose", "--limit", "--m", "3", "--w", "3", "--mmax", "4194305"],
        ["dist", "--model", "classical", "--limit", "--w", "4194305"],
        ["dist", "--model", "bose", "--limit", "--w", "4194305"],
        ["dist", "--model", "bose", "--limit", "--m", "4194304", "--w", "4194304"],
    ], ids=["dist-bose", "dist-classical", "figure", "plan", "limit-mmax",
            "limit-classical-w", "limit-bose-w", "limit-bose-window"])
    def test_n_above_table_cap_exits_2_before_any_table(self, capsys, monkeypatch, argv):
        from bosecount import distributions

        def no_table(n_max):
            raise AssertionError(f"log-factorial table of size {n_max} requested")

        monkeypatch.setattr(distributions, "log_factorial_array", no_table)
        monkeypatch.setattr(distributions, "log_factorial", no_table)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "4194304" in err


def reference_rows_csv(start, probs):
    """Row writer of the first release, one np.float64 at a time."""
    lines = ["m_prime,probability"]
    for offset, value in enumerate(probs):
        lines.append(f"{start + offset},{repr(float(value))}")
    return "\n".join(lines) + "\n"


def reference_rows_json(start, probs, meta):
    rows = [[start + offset, float(value)] for offset, value in enumerate(probs)]
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


def _edge_row():
    probs = np.zeros(4 * _ROW_BLOCK + 5)
    probs[_ROW_BLOCK] = 0.25            # first entry of the second block
    probs[3 * _ROW_BLOCK - 1] = 0.75    # last entry of the third block
    return probs


def _lone_negative_zero():
    probs = np.zeros(9)
    probs[4] = -0.0
    return probs


def _lone_subnormal():
    probs = np.zeros(_ROW_BLOCK + 1)
    probs[-1] = 5e-324
    return probs


class TestRowWriters:
    @pytest.mark.parametrize("start, probs", [
        (0, np.array([0.0, 1.0, 5e-324])),
        (4, np.array([1.0])),
        (3, classical_rare_limit(RareEventSpec(3.0, 3)).probs),
        (0, bose_exact(TransferSpec(100000, 3, 3e-5)).probs),
        (7, _edge_row()),
        (0, _lone_negative_zero()),
        (0, bose_exact(TransferSpec(10000, 3, 3e-4)).probs[::-1]),
        (2, _lone_subnormal()),
    ], ids=["edge-values", "single", "limit-start-3", "n-1e5", "block-edges",
            "negative-zero", "reversed", "lone-subnormal"])
    def test_bytes_match_reference_writers(self, start, probs):
        meta = {"model": "bose-exact", "n": 100000, "m": 3, "p": 3e-5}
        assert "".join(_rows_csv(start, probs)) == reference_rows_csv(start, probs)
        assert ("".join(_rows_json(start, probs, meta))
                == reference_rows_json(start, probs, meta))

    @pytest.mark.parametrize("n", [1000, 100000])
    def test_no_kernel_returns_negative_zero(self, n):
        """The writers print a block of bitwise +0.0 without repr, which
        would drop the sign of a -0.0."""
        for m in (0, 1, 3, 21, n - 1, n):
            for p in (0.0, 1e-300, 3 / n, 0.5, 1.0):
                spec = TransferSpec(n, m, p)
                for probs in (bose_exact(spec).probs, classical_exact(spec).probs):
                    assert not np.signbit(probs).any(), (n, m, p)
        for w in (0.0, 1e-300, 3.0, 20.0):
            for m in (0, 1, 3, 21, 300):
                spec = RareEventSpec(w, m)
                for probs in (bose_rare_limit(spec).probs, classical_rare_limit(spec).probs):
                    assert not np.signbit(probs).any(), (w, m)


def _fresh_interpreter(code):
    """stdout of `code` run in a new interpreter on this checkout."""
    src = str(Path(bosecount.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    return done.stdout.strip()


def test_import_loads_no_scipy():
    code = ("import sys, bosecount.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_interpreter(code) == "[]"


def test_import_loads_no_layer_and_no_numpy():
    code = ("import sys, bosecount.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'dataclasses', 'inspect') "
            "or m.startswith('bosecount.')))")
    assert _fresh_interpreter(code) == "['bosecount.cli']"


def test_dist_and_figure_load_no_verification_layers():
    code = ("import os, sys; from bosecount.cli import main; "
            "main(['dist', '--model', 'bose', '--N', '100', '--m', '3', '--w', '3', "
            "'--out', os.devnull]); "
            "main(['dist', '--model', 'bose', '--limit', '--m', '3', '--w', '3', "
            "'--format', 'json', '--out', os.devnull]); "
            "[main(['figure', '--id', fig, '--N', '100', '--out', os.devnull]) "
            "for fig in '3456']; "
            "print(sorted(m for m in sys.modules if m in "
            "('bosecount.verification', 'bosecount.oracles', 'bosecount.dynamics')))")
    assert _fresh_interpreter(code) == "[]"


def test_public_names_resolve_to_their_home_objects():
    code = ("import importlib, bosecount; "
            "names = [n for n in bosecount.__all__ if n != '__version__']; "
            "values = [getattr(bosecount, n) for n in names]; "
            "homes = [getattr(importlib.import_module(v.__module__), n) "
            "for n, v in zip(names, values)]; "
            "print(len(names), all(v is h for v, h in zip(values, homes)), "
            "all(v.__module__.startswith('bosecount.') for v in values), "
            "hasattr(bosecount, 'no_such_name'))")
    assert _fresh_interpreter(code) == "19 True True False"


class TestFigure:
    def test_surface_tables_schema(self, capsys):
        for fig in ("3", "4"):
            code, out, _ = run(capsys, "figure", "--id", fig,
                               "--N", "2000", "--w", "3")
            assert code == 0
            header, rows = parse_csv(out)
            assert header == ["m", "m_prime", "probability"]
            assert len(rows) == 13 * 13

    def test_surfaces_differ_in_recapture_corner(self, capsys):
        _, classical_out, _ = run(capsys, "figure", "--id", "3", "--N", "2000")
        _, bose_out, _ = run(capsys, "figure", "--id", "4", "--N", "2000")
        _, c_rows = parse_csv(classical_out)
        _, b_rows = parse_csv(bose_out)
        c = {(int(r[0]), int(r[1])): float(r[2]) for r in c_rows}
        b = {(int(r[0]), int(r[1])): float(r[2]) for r in b_rows}
        assert b[(3, 0)] > 0.2
        assert c[(3, 0)] < 1e-8
        # empty-mode rows coincide
        for mp in range(13):
            assert c[(0, mp)] == b[(0, mp)]

    def test_recapture_table_schema(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "5", "--N", "5000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "m"
        assert header[1:] == ["p0m_exact_w1", "p0m_poisson_w1",
                              "p0m_exact_w3", "p0m_poisson_w3",
                              "p0m_exact_w5", "p0m_poisson_w5"]
        assert len(rows) == 16
        row3 = rows[3]
        # Poisson column is N-independent; the exact column carries an
        # O(1/N) finite-size correction at N=5000
        assert float(row3[4]) == pytest.approx(0.224042, rel=1e-5)
        assert float(row3[3]) == pytest.approx(0.224042, rel=1e-3)

    def test_sections_table_schema(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "6", "--N", "5000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "p_1_from_m", "p_m_from_m"]
        assert len(rows) == 16

    @pytest.mark.parametrize("fig, n, w, min_n", [
        ("3", "11", "3", 12), ("4", "12", "12.5", 13), ("5", "2", "3", 15),
        ("6", "14", "3", 15), ("6", "15", "20", 20)])
    def test_small_n_names_smallest_allowed(self, capsys, fig, n, w, min_n):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--id", fig, "--N", n, "--w", w])
        assert exc.value.code == 2
        assert f"--N >= {min_n}," in capsys.readouterr().err
        code, out, _ = run(capsys, "figure", "--id", fig, "--N", str(min_n), "--w", w)
        assert code == 0 and out.startswith("m,")

    def test_unknown_id_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--id", "7"])
        assert exc.value.code == 2


class TestPlan:
    def test_headline_experiment(self, capsys):
        code, out, _ = run(capsys, "plan", "--epsilon", "0", "--xi", "1",
                           "--eta", "0", "--N", "100000", "--m", "3", "--w", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"] == pytest.approx(0.005477252961549256, rel=1e-12)
        assert doc["achieved_p"] * doc["n"] == pytest.approx(3.0, rel=1e-9)
        assert doc["headline"] == pytest.approx(0.2240, abs=1e-3)
        assert doc["headline"] == doc["predicted"]["0"]

    def test_empty_start_headline_is_binomial(self, capsys):
        code, out, _ = run(capsys, "plan", "--N", "100000", "--m", "0", "--w", "3")
        assert code == 0
        doc = json.loads(out)
        p = doc["achieved_p"]
        assert doc["headline"] == pytest.approx(math.exp(100000 * math.log1p(-p)), rel=1e-10)
        assert doc["headline"] == pytest.approx(math.exp(-3), rel=5e-5)

    def test_plan_matches_dist_at_zero(self, capsys):
        report = build_plan(0.0, 1.0, 0.0, 5000, 2, 3.0)
        dist = bose_exact(TransferSpec(5000, 2, report.achieved_p))
        assert report.headline == dist.probs[0]
        assert report.predicted[0] == dist.probs[0]

    def test_unreachable_target_exits_2(self, capsys):
        code = main(["plan", "--epsilon", "10", "--xi", "0.01",
                     "--N", "100000", "--m", "3", "--w", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error" in captured.err

    def test_predicted_mass_nearly_complete(self):
        report = build_plan(0.0, 1.0, 0.0, 50000, 3, 3.0)
        assert sum(report.predicted.values()) == pytest.approx(1.0, abs=1e-9)
        assert report.meta["predicted_tail_bound"] < 1e-9


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-N", "4")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_vacuous_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-N", "0")
        assert code == 0
        assert "0 checks" in out

    def test_max_n_above_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--max-N", "31")
        assert code == 2 and out == ""
        assert "at most 30" in err

    def test_failure_reports_worst_case_and_exits_1(self, capsys, monkeypatch):
        from bosecount import verification
        from bosecount.verification import CheckResult

        def fake(max_n):
            return [CheckResult("synthetic check", 1e-12, 0.5,
                                "(n=1, m=1, m'=1, p=0.3)", 1)]

        monkeypatch.setattr(verification, "run_verification", fake)
        code, out, _ = run(capsys, "verify", "--max-N", "2")
        assert code == 1
        assert "FAIL" in out
        assert "(n=1, m=1, m'=1, p=0.3)" in out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
