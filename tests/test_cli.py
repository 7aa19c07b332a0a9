import json
import os
import subprocess
import sys

import pytest

import hcc
from hcc import cli, groupring, selfcheck


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def torus_files(tmp_path):
    pres = tmp_path / "torus.pres"
    pres.write_text("< a, b | a b a^-1 b^-1 >\n")
    hom = tmp_path / "z2sq.hom"
    hom.write_text("a -> (1,0)\nb -> (0,1)\n")
    return str(pres), str(hom)


class TestOmega:
    def test_tsv_table(self, capsys):
        code, out, _ = run_cli(["omega", "--p", "3", "--r", "2", "--format", "tsv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["p", "r", "k", "omega", "pi"]
        assert [line.split("\t")[3] for line in lines[1:]] == ["1", "2", "3", "2", "1"]

    def test_json_default(self, capsys):
        code, out, _ = run_cli(["omega", "--p", "2", "--r", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [row["omega"] for row in payload["rows"]] == [1, 3, 3, 1]

    def test_big_integers_become_strings(self, capsys):
        code, out, _ = run_cli(["omega", "--p", "2", "--r", "70"], capsys)
        payload = json.loads(out)
        mid = payload["rows"][35]["omega"]
        assert isinstance(mid, str) and int(mid) > 2**63

    def test_suite(self, capsys):
        code, out, _ = run_cli(["omega", "--suite", "8", "--format", "tsv"], capsys)
        assert code == 0
        assert "hrk_threshold" in out

    @pytest.mark.parametrize("argv", [["--suite", "0"], ["--p", "3", "--r", "2", "--suite", "0"]])
    def test_suite_zero_is_refused(self, capsys, argv):
        # --suite 0 is a suite request with r_max 0, not an absent flag
        code, out, err = run_cli(["omega", *argv], capsys)
        assert (code, out, err) == (1, "", "error: r_max must be at least 1\n")

    def test_suite_over_the_degree_cap_is_refused_before_any_row(self):
        # the p = 7 table of degree 6 r_max is read last, but checked first
        src = os.path.dirname(os.path.dirname(hcc.__file__))
        for r_max, degree in (("1667", "10002"), ("99999999999999999999", "599999999999999999994")):
            res = subprocess.run([sys.executable, "-m", "hcc.cli", "omega", "--suite", r_max],
                                 env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=20)
            assert (res.returncode, res.stdout) == (1, "")
            assert res.stderr == f"error: degree r(p-1) = {degree} above cap 10000\n"

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(["omega", "--p", "5", "--r", "3"], capsys)
        _, out2, _ = run_cli(["omega", "--p", "5", "--r", "3"], capsys)
        assert out1 == out2


class TestRing:
    def test_cyclic(self, capsys):
        code, out, _ = run_cli(["ring", "--p", "2", "--cyclic", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_dims"] == [4, 3, 2, 1, 0]
        assert payload["nilpotent"] is True

    def test_elementary_abelian_tsv(self, capsys):
        code, out, _ = run_cli(["ring", "--p", "2", "--r", "2", "--format", "tsv"], capsys)
        assert code == 0
        assert out.splitlines()[1].split("\t") == ["0", "4", "1"]

    def test_table_file(self, tmp_path, capsys):
        table = tmp_path / "z3.tbl"
        table.write_text("order 3\n0 1 2\n1 2 0\n2 0 1\n")
        code, out, _ = run_cli(["ring", "--p", "3", "--table", str(table)], capsys)
        assert code == 0
        assert json.loads(out)["lambdas"] == [1, 1, 1]

    @pytest.mark.parametrize("entry", ["99999999999999999999999", "-99999999999999999999999"])
    def test_table_entry_outside_int64_is_an_input_error(self, entry, torus_files, tmp_path, capsys):
        table = tmp_path / "big.tbl"
        table.write_text(f"order 2\n0 1\n1 {entry}\n")
        pres, hom = torus_files
        for argv in (["ring", "--p", "2"], ["cover", "--p", "2", "--pres", pres, "--hom", hom]):
            code, out, err = run_cli([*argv, "--table", str(table)], capsys)
            assert (code, out, err) == (1, "", "error: table entries must be element indices\n")

    @pytest.mark.parametrize("group", [["--p", "2", "--cyclic", "4"], ["--p", "2", "--r", "3"], ["--p", "3", "--table"]])
    def test_k_max_prints_prefixes_of_the_full_profile(self, group, tmp_path, capsys):
        if group[-1] == "--table":  # S3 at p = 3: not nilpotent, stable from k = 1
            table = tmp_path / "s3.tbl"
            table.write_text("order 6\n0 1 2 3 4 5\n1 0 4 5 2 3\n2 3 0 1 5 4\n3 2 5 4 0 1\n4 5 1 0 3 2\n5 4 3 2 1 0\n")
            group = group + [str(table)]
        _, out, _ = run_cli(["ring", *group], capsys)
        full = json.loads(out)
        _, out, _ = run_cli(["ring", *group, "--format", "tsv"], capsys)
        full_rows = out.splitlines()
        for k_max in (1, 2, full["stabilization_k"], 100):
            code, out, err = run_cli(["ring", *group, "--k-max", str(k_max)], capsys)
            assert (code, err) == (0, "")
            lambdas, dims = full["lambdas"][:k_max], full["delta_dims"][: k_max + 1]
            assert json.loads(out) == {**full, "delta_dims": dims, "lambdas": lambdas}
            code, out, _ = run_cli(["ring", *group, "--k-max", str(k_max), "--format", "tsv"], capsys)
            rows = out.splitlines()
            assert code == 0 and len(rows) == len(dims) + 1 and rows[:-1] == full_rows[: len(dims)]
            # no jump is printed for the last level, whose next level is not printed
            assert rows[-1].split("\t") == full_rows[len(dims)].split("\t")[:2] + [""]

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_k_max_below_one_is_refused_after_the_group_and_the_prime(self, k_max, capsys, monkeypatch):
        monkeypatch.setattr(groupring, "filtration_profile", None)  # refused before any profile is computed
        code, out, err = run_cli(["ring", "--p", "2", "--cyclic", "4", "--k-max", k_max], capsys)
        assert (code, out, err) == (1, "", "error: k_max must be at least 1\n")
        code, out, err = run_cli(["ring", "--p", "4", "--cyclic", "3", "--k-max", k_max], capsys)
        assert (code, out) == (1, "") and err.startswith("error: modulus must be a prime integer")
        code, out, err = run_cli(["ring", "--p", "2", "--k-max", k_max], capsys)
        assert (code, out) == (1, "") and "target group" in err

    def test_missing_group(self, capsys):
        code, _, err = run_cli(["ring", "--p", "2"], capsys)
        assert code == 1 and "target group" in err

    def test_table_too_large_to_print(self, capsys):
        code, out, err = run_cli(["ring", "--p", "2", "--r", "20000"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: multiplication table needs at least 10^4300 entries, above the cap of")

    def test_one_parser_and_no_leaking_defaults(self, capsys):
        # the parser is built once per process: options of one call must
        # not carry over to the next
        code, out, _ = run_cli(["ring", "--p", "2", "--cyclic", "4", "--k-max", "1"], capsys)
        assert code == 0 and json.loads(out)["delta_dims"] == [4, 3]
        code, out, _ = run_cli(["ring", "--p", "2", "--cyclic", "4"], capsys)
        assert code == 0 and json.loads(out)["delta_dims"] == [4, 3, 2, 1, 0]
        code, _, err = run_cli(["ring", "--p", "2", "--cyclic"], capsys)
        assert code == 1 and "expected one argument" in err
        assert cli._build_parser() is cli._build_parser()


class TestPresent:
    def test_summary_with_normalize(self, tmp_path, capsys):
        pres = tmp_path / "p.pres"
        pres.write_text("< a, b | a b, b >\n")
        code, out, _ = run_cli(["present", "--pres", str(pres), "--p", "2", "--normalize"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["boundary"] == [[1, 0], [1, 1]]
        assert payload["normalized"]["boundary"] == [[1, 0], [0, 1]]
        assert payload["normalized"]["diagonal"] == [1, 1]

    def test_prime_above_max_prime_is_input_error(self, tmp_path, capsys):
        pres = tmp_path / "p.pres"
        pres.write_text("< a | a a >\n")
        code, out, err = run_cli(["present", "--pres", str(pres), "--p", "1048583"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: modulus must be a prime integer, at most MAX_PRIME = {hcc.MAX_PRIME}, got 1048583\n"
        code, out, _ = run_cli(["present", "--pres", str(pres), "--p", str(hcc.MAX_PRIME)], capsys)
        assert code == 0 and json.loads(out)["boundary"] == [[2]]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        pres = tmp_path / "bad.pres"
        pres.write_text("< a | a c >\n")
        code, _, err = run_cli(["present", "--pres", str(pres), "--p", "2"], capsys)
        assert code == 1
        assert "unknown generator" in err


class TestCover:
    def test_torus_verdict(self, torus_files, capsys):
        pres, hom = torus_files
        code, out, _ = run_cli(
            ["cover", "--pres", pres, "--hom", hom, "--p", "2", "--r", "2"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["b0"], payload["b1"], payload["b2"]) == (1, 2, 1)
        assert payload["hrk"] == 4
        assert payload["verdict"]["passed"] and payload["verdict"]["case"] == "c"

    def test_incompatible_hom(self, tmp_path, capsys):
        pres = tmp_path / "p.pres"
        pres.write_text("< a | a a >\n")
        hom = tmp_path / "h.hom"
        hom.write_text("a -> 1\n")
        code, _, err = run_cli(
            ["cover", "--pres", str(pres), "--hom", str(hom), "--p", "3", "--cyclic", "4"],
            capsys,
        )
        assert code == 1
        assert "relator 0" in err

    def test_target_inferred_from_coordinates(self, torus_files, capsys):
        pres, hom = torus_files
        code, out, _ = run_cli(["cover", "--pres", pres, "--hom", hom, "--p", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == "(Z2)^2" and payload["verdict"]["case"] == "c"

    def test_byte_identical_runs(self, torus_files, capsys):
        pres, hom = torus_files
        args = ["cover", "--pres", pres, "--hom", hom, "--p", "2", "--r", "2"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_elementary_abelian_type_decided_once(self, torus_files, capsys, monkeypatch):
        # the CLI and hc_verdict both ask for the type of the same group
        calls = []
        is_abelian = groupring.OrderedGroup.is_abelian
        monkeypatch.setattr(groupring.OrderedGroup, "is_abelian", lambda g: calls.append(g) or is_abelian(g))
        pres, hom = torus_files
        for args in (["--r", "2"], []):
            calls.clear()
            code, out, _ = run_cli(["cover", "--pres", pres, "--hom", hom, "--p", "2", *args], capsys)
            assert code == 0 and json.loads(out)["verdict"]["case"] == "c"
            assert len(calls) == 1


class TestBounds:
    def test_report(self, capsys):
        code, out, _ = run_cli(["bounds", "--b1", "2", "--d", "1", "--p", "2", "--r", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["best"] == {"k": 1, "value": 2}
        assert [b["value"] for b in payload["bounds"]] == [-1, 2, 2]

    def test_with_actual(self, torus_files, capsys):
        pres, hom = torus_files
        code, out, _ = run_cli(
            ["bounds", "--b1", "2", "--d", "1", "--p", "2", "--r", "2",
             "--actual", "--pres", pres, "--hom", hom],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["actual"] == 2 and payload["tight"] is True

    def test_actual_rejects_b1_and_d_that_disagree_with_pres(self, torus_files, capsys):
        pres, hom = torus_files
        for b1, d in (("5", "1"), ("2", "0")):
            code, out, err = run_cli(
                ["bounds", "--b1", b1, "--d", d, "--p", "2", "--r", "2",
                 "--actual", "--pres", pres, "--hom", hom],
                capsys,
            )
            assert code == 1 and out == ""
            assert "disagree with --pres, which has b1 2 and deficiency 1" in err

    def test_actual_rejects_nonsurjective_hom(self, torus_files, tmp_path, capsys):
        pres, _ = torus_files
        hom = tmp_path / "diag.hom"
        hom.write_text("a -> (1,0)\nb -> (1,0)\n")
        code, out, err = run_cli(
            ["bounds", "--b1", "2", "--d", "1", "--p", "2", "--r", "2",
             "--actual", "--pres", pres, "--hom", str(hom)],
            capsys,
        )
        assert code == 1 and out == ""
        assert "surjective" in err

    def test_target_is_the_callers_group(self, capsys):
        # Z3 and (Z3)^1 share a table and so a cached profile; each names its own group
        for args, label in ((["--r", "1"], "(Z3)^1"), (["--cyclic", "3"], "Z3")):
            code, out, _ = run_cli(["bounds", "--b1", "2", "--d", "1", "--p", "3", *args], capsys)
            assert code == 0 and json.loads(out)["target"] == label

    def test_inconsistent_input_is_input_error(self, capsys):
        code, _, err = run_cli(["bounds", "--b1", "0", "--d", "1", "--p", "2", "--r", "1"], capsys)
        assert code == 1 and "inconsistent" in err


class TestIterate:
    def test_growth(self, tmp_path, capsys):
        pres = tmp_path / "g.pres"
        pres.write_text("< a, b | a a >\n")
        code, out, _ = run_cli(["iterate", "--pres", str(pres), "--p", "2", "--steps", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [st["b1"] for st in payload["stages"]] == [2, 3, 17]
        assert payload["truncated"] is False


    def test_stage_too_large_to_print(self, tmp_path, capsys):
        pres = tmp_path / "free.pres"
        pres.write_text("< " + ", ".join(f"g{i}" for i in range(10000)) + " | >\n")
        code, out, _ = run_cli(["iterate", "--pres", str(pres), "--p", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["stages"] == [{"index": 1, "b1": 10000, "generators": 10000, "relators": 0}]
        assert payload["truncated"] is True
        assert payload["reason"].startswith("multiplication table needs at least 10^4300 entries, above the cap of")


class TestFormatChoices:
    # present, cover, bounds and iterate print JSON only; omega and ring also print TSV tables
    @pytest.fixture()
    def argvs(self, torus_files):
        pres, hom = torus_files
        return {
            "present": ["present", "--pres", pres, "--p", "2"],
            "cover": ["cover", "--pres", pres, "--hom", hom, "--p", "2", "--r", "2"],
            "bounds": ["bounds", "--b1", "2", "--d", "1", "--p", "2", "--r", "2"],
            "iterate": ["iterate", "--pres", pres, "--p", "2", "--steps", "1"],
        }

    @pytest.mark.parametrize("command", ["present", "cover", "bounds", "iterate"])
    def test_tsv_is_refused(self, argvs, command, capsys):
        code, out, err = run_cli([*argvs[command], "--format", "tsv"], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"hcc {command}: error: argument --format: invalid choice: 'tsv'")

    @pytest.mark.parametrize("command", ["present", "cover", "bounds", "iterate"])
    def test_json_is_the_default(self, argvs, command, capsys):
        code, out, _ = run_cli([*argvs[command], "--format", "json"], capsys)
        assert code == 0 and json.loads(out)
        assert run_cli(argvs[command], capsys) == (0, out, "")

    @pytest.mark.parametrize("argv", [["omega", "--p", "2", "--r", "2"], ["ring", "--p", "2", "--r", "2"]])
    def test_tables_keep_tsv(self, argv, capsys):
        code, out, _ = run_cli([*argv, "--format", "tsv"], capsys)
        assert code == 0 and "\t" in out.splitlines()[0]


class TestMatrixCapVariable:
    # HCC_MATRIX_CAP is read once per process, so each value gets its own
    def run_hcc(self, cap, argv, **kwargs):
        src = os.path.dirname(os.path.dirname(hcc.__file__))
        env = {**os.environ, "HCC_MATRIX_CAP": cap, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "hcc.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120, **kwargs)

    def test_invalid_values_are_input_errors(self):
        for cap in ("abc", "0", "-3"):
            res = self.run_hcc(cap, ["omega", "--p", "2", "--r", "2"])
            assert res.returncode == 1 and res.stdout == ""
            assert res.stderr == f"error: HCC_MATRIX_CAP must be a positive integer, got {cap!r}\n"

    def test_valid_value_is_the_cap(self, torus_files):
        pres, hom = torus_files
        argv = ["cover", "--pres", pres, "--hom", hom, "--p", "2"]
        assert self.run_hcc("32", argv).returncode == 0  # d2 of this cover has 32 entries
        res = self.run_hcc("31", argv)
        assert res.returncode == 1
        assert "needs 32 entries, above the cap of 31" in res.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS to be enforced")
    def test_failed_allocation_is_an_error_line(self, tmp_path):
        # the raised cap admits stage 2's 19,684 x 19,683 exponent matrix
        # (2.89 GiB), which the child's 2 GiB address space cannot hold
        import resource

        pres = tmp_path / "a3.pres"
        pres.write_text("< a, b | a^3 >\n")
        argv = ["iterate", "--pres", str(pres), "--p", "3", "--steps", "2"]
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        res = self.run_hcc("1000000000", argv, preexec_fn=limit)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: out of memory: Unable to allocate")
        assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr

    def test_presentation_letters_are_capped(self, tmp_path):
        pres = tmp_path / "long.pres"
        pres.write_text("< a | a^1001 >\n")
        argv = ["present", "--pres", str(pres), "--p", "2"]
        res = self.run_hcc("1000", argv)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: presentation needs 1001 entries, above the cap of 1000")
        assert self.run_hcc("1001", argv).returncode == 0

    def test_exponent_too_long_to_convert_is_capped(self, tmp_path, capsys):
        # 5,000 digits: beyond the 4,300-digit limit of int() on text
        pres = tmp_path / "huge.pres"
        pres.write_text(f"< a | a^{'9' * 5000} >\n")
        code, out, err = run_cli(["present", "--pres", str(pres), "--p", "2"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: presentation needs at least 10^4300 entries, above the cap of")
        # leading zeros do not count: this is a^-3
        pres.write_text(f"< a | a^-{'0' * 5000}3 >\n")
        code, out, _ = run_cli(["present", "--pres", str(pres), "--p", "3"], capsys)
        assert code == 0 and json.loads(out)["boundary"] == [[0]]


class TestSelfcheckAndExitCodes:
    def test_usage_error_is_exit_one(self, capsys):
        code, _, _ = run_cli(["no-such-command"], capsys)
        assert code == 1

    def test_falsification_exit_two(self, capsys, monkeypatch):
        # inject a failing theorem check to exercise the exit discipline
        fake = selfcheck.CheckResult("injected", False, '{"instance": 1}')
        monkeypatch.setattr(selfcheck, "run_all", lambda: [fake])
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == 2
        assert "FAIL injected" in out

    def test_falsification_error_maps_to_two(self, capsys, monkeypatch):
        class FakeReport:
            rows = ()

            def discipline_violations(self):
                return ("injected violation",)

        monkeypatch.setattr(cli.omega, "check_inequality_suite", lambda *a, **k: FakeReport())
        code, out, err = run_cli(["omega", "--suite", "3"], capsys)
        assert code == 2
        assert "FALSIFIED" in err
        assert "injected violation" in err or "injected violation" in out

    def test_selfcheck_passes(self, capsys):
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == 0
        assert "all 11 checks passed" in out
        with open(os.path.join(os.path.dirname(__file__), "data", "selfcheck.out")) as golden:
            assert out == golden.read()
