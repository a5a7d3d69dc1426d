import json

import numpy as np
import pytest

from nonlocal_lab import acceptance, cli, lhv, mc, measure, qmat, states
from nonlocal_lab.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a bad option value itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWitness:
    def test_entangled_werner(self, capsys):
        code, out, _ = run(capsys, "witness", "werner-local", "--d", "3")
        assert code == 0
        assert "flip_witness: -0.555555555556" in out
        assert "witness_verdict: entangled" in out

    def test_flagged_mixture_needs_ppt(self, capsys):
        code, out, _ = run(capsys, "witness", "rho-g", "--q", "0.2")
        assert code == 0
        assert "flip_witness: 0.2" in out
        assert "inconclusive" in out
        assert "ppt_verdict: entangled" in out

    def test_separable_werner(self, capsys):
        code, out, _ = run(capsys, "witness", "werner", "--d", "2", "--phi", "0.5")
        assert code == 0
        assert "witness_verdict: separable" in out

    def test_separable_werner2x2(self, capsys):
        # werner2x2 is a Werner state, so a non-negative witness decides it
        code, out, _ = run(capsys, "witness", "werner2x2", "--alpha", "0.2")
        assert code == 0
        assert "flip_witness: 0.2" in out
        assert "witness_verdict: separable" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "witness", "singlet", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["flip_witness"] == -1.0
        assert payload["witness_verdict"] == "entangled"

    def test_state_json_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(states.werner2x2(1.0).to_json())
        code, out, _ = run(capsys, "witness", "--state-json", str(path))
        assert code == 0
        assert "witness_verdict: entangled" in out

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "witness", "rho-g")
        assert code == 2
        assert "requires --q" in err


class TestChsh:
    def test_singlet_optimal(self, capsys):
        code, out, _ = run(capsys, "chsh", "singlet", "--optimal")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 2 * np.sqrt(2)) < 1e-8
        assert abs(payload["M"] - 2.0) < 1e-9

    def test_product_state_below_two(self, capsys):
        code, out, _ = run(capsys, "chsh", "rho-g", "--q", "0", "--optimal")
        assert code == 0
        assert json.loads(out)["value"] <= 2 + 1e-9

    def test_half_mixture_m_value(self, capsys):
        code, out, _ = run(capsys, "chsh", "werner2x2", "--alpha", "0.5", "--optimal")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["M"] - 0.5) < 1e-9

    def test_explicit_settings(self, capsys):
        s = 1 / np.sqrt(2)
        code, out, _ = run(
            capsys,
            "chsh",
            "singlet",
            "--x=0,0,1",
            "--x2=1,0,0",
            f"--y={-s},0,{-s}",
            f"--y2={-s},0,{s}",
        )
        assert code == 0
        assert abs(json.loads(out)["value"] - 2 * np.sqrt(2)) < 1e-10

    def test_requires_settings_or_optimal(self, capsys):
        code, _, err = run(capsys, "chsh", "singlet")
        assert code == 2
        assert "--optimal" in err

    def test_rejects_non_qubit_state(self, capsys):
        code, _, err = run(capsys, "chsh", "rho-e", "--q", "0.5", "--optimal")
        assert code == 2
        assert "two-qubit" in err

    def test_rejects_non_finite_setting(self, capsys):
        code, out, err = run(capsys, "chsh", "singlet", "--x=nan,0,1", "--x2=1,0,0", "--y=0,0,1", "--y2=1,0,0")
        assert code == 2
        assert "Traceback" not in err
        assert "NaN" not in out


class TestSimulate:
    def test_werner_within_five_sigma(self, capsys):
        code, out, _ = run(capsys, "simulate", "werner", "--d", "2", "--n", "2e5", "--seed", "7")
        assert code == 0
        assert "max_sigma" in out

    def test_gd_expectation(self, capsys):
        code, out, _ = run(capsys, "simulate", "gd", "--x", "0,0,1", "--y", "0,0,1", "--n", "2e5", "--seed", "3")
        assert code == 0
        assert "# E_AB_target = -0.5" in out
        assert "# rewrite_agreement = 1.0" in out

    def test_epr_json(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "epr1bit", "--x", "0,0,1", "--y", "0,0,1", "--n", "1e5", "--seed", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["E_AB"] == -1.0
        assert payload["E_AB_target"] == -1.0
        assert payload["oracle"] == [[0.0, 0.5], [0.5, 0.0]]
        assert payload["within_5_sigma"] is True

    @pytest.mark.parametrize(
        "x, y", [("1,1,1", "1,1,1"), ("1,1,0", "1,1,0"), ("1,1,1", "-1,-1,-1")]
    )
    def test_epr_exact_off_axis_settings_pass(self, capsys, x, y):
        # E(AB) is exactly -+1 with stderr 0; the singlet's table and -x.y
        # differ from it only by rounding
        code, out, _ = run(capsys, "simulate", "epr1bit", f"--x={x}", f"--y={y}", "--n", "3000", "--seed", "5")
        assert code == 0
        assert "-> ok" in out

    def test_hirsch_out_of_range_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "simulate", "hirsch", "--q", "0.6")
        assert code == 2
        assert "q must lie in [0, 0.5], got 0.6" in err

    def test_hirsch_runs(self, capsys):
        code, out, _ = run(capsys, "simulate", "hirsch", "--q", "0.3", "--x", "0,0,1", "--y", "1,0,0", "--n", "1e5", "--seed", "2")
        assert code == 0
        assert "accept_rate" in out

    def test_povm_lift_runs(self, capsys):
        code, out, _ = run(capsys, "simulate", "povm-lift", "--q", "0.4", "--n", "1e5", "--seed", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["within_5_sigma"] is True
        assert abs(payload["step4_rate_a"] - 0.5) < 0.02

    def test_barrett_runs(self, capsys):
        code, out, _ = run(capsys, "simulate", "barrett", "--d", "2", "--n", "1e5", "--seed", "5")
        assert code == 0

    @pytest.mark.parametrize("model", ["werner", "barrett"])
    @pytest.mark.parametrize("d", ["0", "1"])
    def test_rejects_too_small_dimension(self, capsys, model, d):
        code, out, err = run(capsys, "simulate", model, "--d", d, "--n", "1e3")
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_rejects_bad_thread_count(self, capsys, monkeypatch, value):
        monkeypatch.setenv("NONLOCAL_LAB_THREADS", value)
        code, out, err = run(capsys, "simulate", "epr1bit", "--n", "1e3")
        assert code == 2
        assert err.startswith("error: NONLOCAL_LAB_THREADS must be a positive integer")
        assert "Traceback" not in err
        assert out == ""

    def test_rejects_non_finite_direction(self, capsys):
        code, out, err = run(capsys, "simulate", "epr1bit", "--x=nan,0,1", "--n", "1e3")
        assert code == 2
        assert "Traceback" not in err
        assert "NaN" not in out

    @pytest.mark.parametrize("model", sorted(lhv.MODELS))
    def test_json_at_one_sample_is_strict_json(self, capsys, model):
        """At n = 1 a cell of standard error 0 misses its oracle, so max_sigma
        is inf: JSON cannot hold it, so it is null, and the verdict stays in
        within_5_sigma and the exit code."""
        code, out, _ = run(capsys, "simulate", model, "--n", "1", "--format", "json")

        def constant(name):
            raise AssertionError(f"{name} is not JSON")

        payload = json.loads(out, parse_constant=constant)
        assert code == 1
        assert payload["max_sigma"] is None
        assert payload["within_5_sigma"] is False

    @pytest.mark.parametrize("model", ["werner", "barrett"])
    def test_large_dimension(self, capsys, model):
        code, out, _ = run(capsys, "simulate", model, "--d", "32", "--n", "1e4", "--seed", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_sigma"] <= 5
        assert abs(np.sum(payload["oracle"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("model", ["werner", "barrett"])
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_json_bytes_match_table_to_json(self, capsys, model, d):
        """The report is built from the table's own dict; its bytes equal the
        route through json.dumps(table.to_dict()) and back."""
        code, out, _ = run(capsys, "simulate", model, "--d", str(d), "--n", "2e4", "--seed", "4", "--format", "json")
        rng = np.random.default_rng(4)
        pa, pb = measure.random_projective(d, rng), measure.random_projective(d, rng)
        if model == "werner":
            table = lhv.simulate_werner(d, pa, pb, 20_000, 4)
            target = states.werner_local(d)
        else:
            table = lhv.simulate_barrett(d, pa, pb, 20_000, 4)
            target = states.barrett_state(d)
        oracle = measure.born_table(target, pa.elements, pb.elements)
        payload = json.loads(json.dumps(table.to_dict()))
        payload["oracle"] = [[float(v) for v in row] for row in oracle]
        payload["max_sigma"] = table.max_sigma(oracle)
        payload["within_5_sigma"] = payload["max_sigma"] <= acceptance.SIGMA
        assert code == (0 if payload["within_5_sigma"] else 1)
        assert out == cli._dump_json(payload) + "\n"

    @pytest.mark.parametrize("model", list(lhv.MODELS))
    def test_every_model_runs_in_both_formats(self, capsys, model):
        """A table model reports its Born-table gate, a model without one its
        scalar gate; both formats carry the same figures."""
        out = {}
        for fmt in ("csv", "json"):
            code, out[fmt], err = run(capsys, "simulate", model, "--n", "3000", "--seed", "5", "--format", fmt)
            assert code == 0 and err == ""
        payload = json.loads(out["json"])
        if "max_sigma" in payload:
            assert payload["within_5_sigma"] is True
            assert f"# max_sigma = {cli._fmt(payload['max_sigma'])} -> ok" in out["csv"]
        else:
            assert payload["sigma"] <= acceptance.SIGMA
            assert out["csv"].endswith(f"sigma: {cli._fmt(payload['sigma'])}\n")

    def test_gd_rewrite_mismatch_fails_simulate_and_c05(self, capsys, monkeypatch):
        real = lhv.simulate_gd_w2x2

        def one_mismatch(*args, **kwargs):
            res = real(*args, **kwargs)
            for r in res if isinstance(res, list) else [res]:  # C05 runs its 10 pairs as one stack
                r.rewrite_mismatches = 1
            return res

        monkeypatch.setattr(lhv, "simulate_gd_w2x2", one_mismatch)
        code, out, _ = run(capsys, "simulate", "gd", "--n", "3000", "--seed", "5")
        assert code == 1
        assert "-> ok" in out  # the table itself passes; the rewrite check fails the run
        result = acceptance.criterion_05(0, 3000)
        assert not result.passed
        assert result.detail.endswith("rewrite mismatches 10")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "simulate", "werner", "--n", "1e5", "--seed", "7", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("a,b,mean,stderr,oracle")


def _round12(obj):
    """Reference rounding: every float to 12 significant digits, and a
    non-finite one to None, which JSON writes as null."""
    if isinstance(obj, float):
        r = float(f"{obj:.12g}")
        return r if np.isfinite(r) else None
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


class TestDumpJson:
    """cli._dump_json writes the bytes of json.dumps(_round12(obj), indent=2)."""

    def test_edge_values(self):
        payload = {
            "floats": [0.1 + 0.2, -0.0, 1e-300, 2.5e20, 1 / 3, float("nan"), float("inf"), -float("inf")],
            "numpy": np.float64(2) / 3,
            "empty": [[], {}, ()],
            "nested": {"t": (1, 2.0, [True, False, None]), "s": 'quote " é \n', "big": 10**20},
        }
        assert cli._dump_json(payload) == json.dumps(_round12(payload), indent=2)
        for leaf in (1.5, 3, "x", None, [], {}):
            assert cli._dump_json(leaf) == json.dumps(_round12(leaf), indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            *(["simulate", m, "--d", str(d)] for m in ("werner", "barrett") for d in (2, 3, 8)),
            *(["simulate", m] for m in ("gd", "epr1bit", "hirsch", "povm-lift")),
            ["chsh", "singlet", "--optimal"],
            ["chsh", "rho-g", "--q", "0.3", "--x", "0,0,1", "--x2", "1,0,0", "--y", "0.6,0,0.8", "--y2", "0,1,0"],
            ["witness", "werner-local", "--d", "3", "--format", "json"],
            ["witness", "rho-g", "--q", "0.2", "--format", "json"],
        ],
    )
    def test_cli_bytes_match_reference(self, capsys, monkeypatch, argv):
        if argv[0] == "simulate":
            argv = argv + ["--n", "3000", "--seed", "5", "--format", "json"]
        seen = []

        def spy(obj, _real=cli._dump_json):
            seen.append((obj, _real(obj)))
            return seen[-1][1]

        monkeypatch.setattr(cli, "_dump_json", spy)
        _, out, _ = run(capsys, *argv)
        assert len(seen) == 1
        obj, text = seen[0]
        assert text == json.dumps(_round12(obj), indent=2)
        assert out == text + "\n"


class TestFilterScan:
    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "filter-scan", "rho-g", "--q", "0.25", "--eps-grid", "1e-2,1e-3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,success_prob,M,chsh_bound,chsh_at_optimal_settings"
        assert len(lines) == 3
        last_m = float(lines[-1].split(",")[2])
        assert abs(last_m - 1.25) < 1e-4

    def test_prime_family(self, capsys):
        code, out, _ = run(capsys, "filter-scan", "rho-g-prime", "--q", "0.5", "--eps-grid", "1e-3")
        assert code == 0
        assert abs(float(out.strip().splitlines()[1].split(",")[3]) - 2 * np.sqrt(1.125)) < 1e-3

    def test_popescu(self, capsys):
        code, out, _ = run(capsys, "filter-scan", "popescu", "--d", "5")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[2]) - 2.0203050891) < 1e-9

    def test_wide_epsilon_at_q_zero(self, capsys):
        # delta = eps / sqrt(q) > 1 rescales both filters; at q = 0 as at q > 0
        code, out, _ = run(capsys, "filter-scan", "rho-g", "--q", "0", "--eps-grid", "2")
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "2"

    @pytest.mark.parametrize("family", ["rho-g", "rho-g-prime"])
    def test_grid_prints_the_rows_of_one_epsilon_scans(self, capsys, family):
        code, out, _ = run(capsys, "filter-scan", family, "--q", "0.3", "--eps-grid", "1e-1,3e-2,1e-2")
        assert code == 0
        ones = [run(capsys, "filter-scan", family, "--q", "0.3", "--eps-grid", eps)[1].splitlines() for eps in ("1e-1", "3e-2", "1e-2")]
        assert out.splitlines() == ones[0][:1] + [lines[1] for lines in ones]

    def test_requires_q(self, capsys):
        code, _, err = run(capsys, "filter-scan", "rho-g")
        assert code == 2
        assert "--q" in err


class TestBadInput:
    """Input the CLI rejects with exit 2 and one error line, never a traceback."""

    def check(self, capsys, *argv) -> str:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err
        assert out == ""
        return err

    @pytest.mark.parametrize("n", ["inf", "1e400"])
    def test_rejects_infinite_count(self, capsys, n):
        self.check(capsys, "simulate", "werner", "--n", n)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "werner", "--d", "200"],
            ["simulate", "barrett", "--d", "65", "--n", "10"],
            ["witness", "werner", "--d", "200", "--phi", "0"],
            ["witness", "werner-local", "--d", "65"],
            ["witness", "barrett", "--d", "1000"],
            ["chsh", "werner", "--d", "100", "--phi", "0", "--optimal"],
        ],
    )
    def test_over_budget_d_is_rejected_before_drawing_or_allocating(self, capsys, monkeypatch, argv):
        """A d whose d^2 x d^2 state exceeds qmat.MATRIX_BUDGET is exit 2 while
        the samplers and every constructor of that state are patched to fail."""

        def built(*args, **kwargs):
            raise AssertionError("an over-budget d reached a sampler or constructor")

        for owner, name in [(lhv, "run_batched"), (lhv, "random_projective"), (lhv, "born_table"), (states, "flip")]:
            monkeypatch.setattr(owner, name, built)
        assert "256 MiB budget (d <= 64)" in self.check(capsys, *argv)

    def test_matrix_budget_admits_every_d_up_to_64(self):
        for d in [*range(-2, 65), np.int64(64)]:
            qmat._check_matrix_budget(d)
        for d in (65, np.int64(65), 10**6):
            with pytest.raises(ValueError, match="d <= 64"):
                qmat._check_matrix_budget(d)

    @pytest.mark.parametrize("command", ["witness", "chsh"])
    def test_werner_local_below_d_two(self, capsys, command):
        assert "d must be >= 2, got 0" in self.check(capsys, command, "werner-local", "--d", "0")

    def test_state_file_longer_than_any_state_within_budget_is_not_read(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        with open(path, "wb") as f:
            f.truncate(states.DensityMatrix.JSON_BYTES + 1)  # sparse: no block is written

        def read(*args, **kwargs):
            raise AssertionError("an over-long state file was read")

        monkeypatch.setattr(cli.Path, "read_text", read)
        assert "more than any state within the matrix budget" in self.check(capsys, "witness", "--state-json", str(path))

    def test_state_file_declaring_an_over_budget_state_is_not_decoded(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        path.write_text('{"dA": 65, "dB": 65, "entries": [[1, 0]]}')

        def decoded(*args, **kwargs):
            raise AssertionError("the entries were decoded")

        monkeypatch.setattr(states, "complex", decoded, raising=False)  # each entry is decoded by complex()
        assert "4225x4225 complex matrix, above the 256 MiB budget" in self.check(capsys, "chsh", "--state-json", str(path), "--optimal")

    def test_missing_state_file(self, capsys, tmp_path):
        assert "absent.json" in self.check(capsys, "witness", "--state-json", str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("field", ["dA", "dB", "entries"])
    def test_state_file_lacking_a_field(self, capsys, tmp_path, field):
        obj = json.loads(states.singlet().to_json())
        del obj[field]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        assert field in self.check(capsys, "witness", "--state-json", str(path))

    @pytest.mark.parametrize("text", ["[1, 2]", '{"dA": 2, "dB": 2, "entries": 5}', '{"dA": null, "dB": 2, "entries": []}'])
    def test_malformed_state_file(self, capsys, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        self.check(capsys, "witness", "--state-json", str(path))

    @pytest.mark.parametrize(
        "argv, n",
        [(["simulate", "werner"], "2.5"), (["simulate", "barrett", "--d", "3"], "999.9"), (["reproduce"], "2000.5")],
    )
    def test_a_count_that_is_not_a_whole_number_is_named(self, capsys, monkeypatch, argv, n):
        """A fractional --n is exit 2 before any run; it used to be truncated."""

        def ran(*args, **kwargs):
            raise AssertionError("a fractional count reached a run")

        for owner in (mc, lhv):
            monkeypatch.setattr(owner, "run_batched", ran)
        monkeypatch.setattr(acceptance, "run_all", ran)
        assert repr(n) in self.check(capsys, *argv, "--n", n)

    def test_a_count_in_integer_digits_is_parsed_exactly(self, capsys, monkeypatch):
        """2**53 + 1 has no float; --n used to reach the run as 2**53."""
        seen = []

        def ran(n, *args, **kwargs):
            seen.append(n)
            raise ValueError("recorded")

        monkeypatch.setattr(lhv, "run_batched", ran)
        assert "recorded" in self.check(capsys, "simulate", "werner", "--n", " 9007199254740993 ")
        assert seen == [9007199254740993] and type(seen[0]) is int
        assert [cli._parse_count(t) for t in ("9007199254740993", "1e6", "2000.0", "7")] == [2**53 + 1, 10**6, 2000, 7]

    @pytest.mark.parametrize(
        "argv, seed",
        [(["simulate", "werner", "--seed", "-1"], "-1"), (["reproduce", "--seed", "-3"], "-3"), (["simulate", "gd", "--seed", "1.5"], "1.5")],
    )
    def test_a_seed_that_is_not_a_non_negative_integer_is_named(self, capsys, monkeypatch, tmp_path, argv, seed):
        def ran(*args, **kwargs):
            raise AssertionError("a bad seed reached a run")

        monkeypatch.setattr(acceptance, "run_all", ran)
        monkeypatch.setattr(lhv, "run_batched", ran)
        err = self.check(capsys, *argv)
        assert f"argument --seed: seed must be a non-negative integer, got '{seed}'" in err
        assert "Warning" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["witness", "chsh"])
    def test_state_whose_hermiticity_error_overflows(self, capsys, tmp_path, command):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dA": 1, "dB": 1, "entries": [[0.25, 1e308]]}))
        extra = ["--optimal"] if command == "chsh" else []
        err = self.check(capsys, command, "--state-json", str(path), *extra)
        assert "not a density matrix: hermiticity error inf" in err and "Warning" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["witness", "chsh"])
    def test_state_with_symmetric_infinities(self, capsys, tmp_path, command):
        mat = np.eye(4, dtype=object) / 4
        mat[0, 1] = mat[1, 0] = float("inf")
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dA": 2, "dB": 2, "entries": [[v, 0.0] for v in mat.ravel().tolist()]}))
        extra = ["--optimal"] if command == "chsh" else []
        assert "not a density matrix" in self.check(capsys, command, "--state-json", str(path), *extra)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    @pytest.mark.parametrize("q", ["0.3", "0"])
    def test_non_finite_epsilon(self, capsys, q, eps):
        err = self.check(capsys, "filter-scan", "rho-g", "--q", q, "--eps-grid", f"1e-2,{eps}")
        assert f"epsilon must lie in (0, inf), got {float(eps)!r}" in err

    @pytest.mark.parametrize("eps", ["-0.1", "0"])
    @pytest.mark.parametrize("q", ["0.3", "0"])
    def test_non_positive_epsilon(self, capsys, q, eps):
        err = self.check(capsys, "filter-scan", "rho-g", "--q", q, "--eps-grid", f"1e-2,{eps}")
        assert f"epsilon must lie in (0, inf), got {float(eps)!r}" in err

    def test_filter_that_never_succeeds(self, capsys):
        # on rho_g(0) = |0><0| (x) I/2 the success probability is eps^2 (1 + eps^2) / 2
        assert "never succeed" in self.check(capsys, "filter-scan", "rho-g", "--q", "0", "--eps-grid", "1e-7")


class TestReproduce:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", ["1", "2", "3"])
    def test_tiny_n_fails_without_a_traceback(self, capsys, tmp_path, n):
        """At n = 1 and 2 some C07 run has no sample inside the protocol, so
        no acceptance rate: C07 fails and says so. No rate comparison divides
        by a zero standard error (a RuntimeWarning is an error here)."""
        code, out, err = run(capsys, "reproduce", "--n", n, "--out", str(tmp_path))
        assert code == 1
        assert "FAILED criteria" in err
        assert "FAIL  C07" in out
        assert ("no rate" in out) == (n != "3")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is False

    def test_small_run_warns_and_is_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "r1"
        code, stdout, stderr = run(capsys, "reproduce", "--n", "2e4", "--seed", "0", "--out", str(out1))
        assert code == 0
        assert "underpowered" in stderr
        assert stdout.count("PASS") >= 13
        out2 = tmp_path / "r2"
        code2, _, _ = run(capsys, "reproduce", "--n", "2e4", "--seed", "0", "--out", str(out2))
        assert code2 == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        report = json.loads((out1 / "report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["criteria"]) == 13
        assert (out1 / "barrett_d2_table.csv").exists()
        assert (out1 / "scan_rho_g_q0.25.csv").exists()
