"""Command-line interface: outputs, exit codes, determinism."""

import io
import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

from hddiamond import cli, gen_random
from hddiamond.cli import main
from hddiamond.selection import STRATEGIES, SelectionReport, select_k
from oracles import dense_fd_capacity, is_threshold_cut


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def worst4(tmp_path, capsys):
    path = tmp_path / "worst4.json"
    code, _, _ = run(capsys, "generate", "--family", "worst-case", "--n", "4", "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def oversized(tmp_path):
    """Two relays with a link too large for a float on each side."""
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps({"l": [10**400, 1], "r": [1, 10**400]}))
    return str(path)


@pytest.fixture
def mixed(tmp_path):
    """Three relays: a link too large for a float beside float links."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"l": [10**400, 0.5, 1], "r": [1, 10**400, 0.5]}))
    return str(path)


class TestCapacity:
    def test_hd_json_shape(self, capsys, worst4):
        code, out, _ = run(capsys, "capacity", "--network", worst4)
        data = json.loads(out)
        assert code == 0
        assert data["mode"] == "hd"
        assert data["value"] == pytest.approx(1.0, abs=1e-9)
        assert isinstance(data["tight_cuts"], list)
        assert all(isinstance(c, str) and len(c) == 4 for c in data["tight_cuts"])
        assert "schedule" not in data

    def test_exact_mode(self, capsys, worst4):
        code, out, _ = run(capsys, "capacity", "--network", worst4, "--exact")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == 1  # exact rational, rendered as a JSON number

    def test_emit_schedule(self, capsys, worst4):
        code, out, _ = run(
            capsys, "capacity", "--network", worst4, "--exact", "--emit-schedule"
        )
        data = json.loads(out)
        sched = data["schedule"]
        assert sched["n"] == 4
        total = sum(F(str(e["prob"])) if isinstance(e["prob"], str) else F(e["prob"]) for e in sched["states"])
        assert float(total) == pytest.approx(1.0, abs=1e-9)

    def test_fd_mode(self, capsys, worst4):
        code, out, _ = run(
            capsys, "capacity", "--network", worst4, "--mode", "fd", "--emit-schedule"
        )
        data = json.loads(out)
        assert code == 0
        assert data["mode"] == "fd"
        assert "schedule" not in data  # FD has no schedule to emit
        assert data["value"] == pytest.approx(1.0)

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"l": [1], "r": [0.5]}')
        )
        code, out, _ = run(capsys, "capacity", "--network", "-", "--exact")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == "1/3"

    def test_big_l_substitution(self, capsys, tmp_path):
        path = tmp_path / "ht3.json"
        run(capsys, "generate", "--family", "half-tight", "--n", "3", "-o", str(path))
        code, out, _ = run(
            capsys, "capacity", "--network", str(path), "--big-l", "1000000"
        )
        data = json.loads(out)
        assert code == 0
        assert data["value"] == pytest.approx(1.0, abs=1e-4)

    def test_big_l_past_the_float_range_stays_finite(self, capsys, tmp_path):
        # float("1e400") is inf: the literal is kept exactly instead, so the
        # links stay bounded and the value is below the unbounded limit 3/2.
        path = tmp_path / "net.json"
        path.write_text('{"l": [1, 2], "r": ["inf", 1]}')
        values = {}
        for big_l in ("inf", "1e400"):
            code, out, _ = run(
                capsys, "capacity", "--network", str(path), "--exact", "--big-l", big_l
            )
            assert code == 0
            values[big_l] = F(json.loads(out)["value"])
        assert values["inf"] == F(3, 2)
        assert 0 < F(3, 2) - values["1e400"] < F(1, 10**399)

    def test_deterministic_output(self, capsys, worst4):
        _, out1, _ = run(capsys, "capacity", "--network", worst4, "--emit-schedule")
        _, out2, _ = run(capsys, "capacity", "--network", worst4, "--emit-schedule")
        assert out1 == out2

    def test_bad_network_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, out, err = run(capsys, "capacity", "--network", str(bad))
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "capacity", "--network", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_solver_failure_exits_5(self, capsys, tmp_path, monkeypatch):
        # A magnitude spread of 1e13 that the float simplex cannot settle:
        # float mode escalates to exact arithmetic and solves it.  Exit 5
        # needs a solver that fails in both arithmetics.
        from hddiamond import SolverFailure, capacity

        path = tmp_path / "wide.json"
        path.write_text('{"l": [1e7, 0.1, 0], "r": [1e-6, 0.1, 1e4]}')
        for flag in ((), ("--exact",)):
            code, out, _ = run(capsys, "capacity", "--network", str(path), *flag)
            assert code == 0
            assert F(json.loads(out)["value"]) == pytest.approx(0.0500007499987, rel=1e-9)

        def fail(*args, **kwargs):
            raise SolverFailure("patched to fail")

        monkeypatch.setattr(capacity, "_solve", fail)
        code, out, err = run(capsys, "capacity", "--network", str(path))
        assert code == 5
        assert out == ""
        assert err.startswith("solver: ")

    def test_wide_spread_float_matches_exact(self, capsys, tmp_path):
        # A spread of 1e14 that float mode once failed on.
        path = tmp_path / "wide.json"
        path.write_text('{"l": [1e-7, 1e-3, 1, 1e-7, 3], "r": [1e7, 1e3, 1e7, 0.5, 1]}')
        code, out, _ = run(capsys, "capacity", "--network", str(path))
        assert code == 0
        approx = json.loads(out)["value"]
        code, out, _ = run(capsys, "capacity", "--network", str(path), "--exact")
        assert code == 0
        assert approx == pytest.approx(float(F(json.loads(out)["value"])), rel=1e-9)

    def test_guard_exits_3(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        run(capsys, "generate", "--family", "random", "--n", "17", "-o", str(path))
        code, _, err = run(capsys, "capacity", "--network", str(path))
        assert code == 3
        assert "guard:" in err

    def test_pin_past_the_guard(self, capsys, tmp_path):
        # n = 18 is past the hd_capacity guard.  The two-phase schedule's
        # rate meets the FD value there, so both arithmetics answer 1 with
        # that schedule; at n = 17 the pin stays open.
        path = str(tmp_path / "worst18.json")
        run(capsys, "generate", "--family", "worst-case", "--n", "18", "-o", path)
        code, out, _ = run(capsys, "capacity", "--network", path, "--exact", "--emit-schedule")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 1 and isinstance(data["value"], int)
        assert data["schedule"]["states"] == [
            {"state": "111111111000000000", "prob": 0.5},
            {"state": "000000000111111111", "prob": 0.5},
        ]
        code, out, _ = run(capsys, "capacity", "--network", path)
        assert code == 0
        value = json.loads(out)["value"]
        assert value == 1.0 and isinstance(value, float)
        path = str(tmp_path / "worst17.json")
        run(capsys, "generate", "--family", "worst-case", "--n", "17", "-o", path)
        code, out, err = run(capsys, "capacity", "--network", path)
        assert (code, out) == (3, "")
        assert err.startswith("guard: hd_capacity on 17 relays exceeds guard 16")

    def test_unbounded_fd_value_past_the_guard_exits_0(self, capsys, tmp_path):
        # Relay 17 is unbounded both ways, so every cut has infinite FD value.
        net = gen_random(17, 0)
        path = tmp_path / "unbounded17.json"
        path.write_text(json.dumps({"l": list(net.uplinks[:-1]) + ["inf"],
                                    "r": list(net.downlinks[:-1]) + ["inf"]}))
        code, out, _ = run(capsys, "capacity", "--network", str(path), "--exact")
        assert code == 0
        assert json.loads(out)["value"] == "inf"

    def test_fd_mode_past_the_guard_exits_0(self, capsys, tmp_path, monkeypatch):
        # The threshold scan builds no 2^n table, so it answers at any n.
        from hddiamond import capacity, load_network, render_mask

        path = tmp_path / "big.json"
        run(capsys, "generate", "--family", "random", "--n", "17", "-o", str(path))
        net = load_network(str(path))
        monkeypatch.setenv(capacity.LP_GUARD_ENV, "17")
        dense = dense_fd_capacity(net)
        monkeypatch.delenv(capacity.LP_GUARD_ENV)

        def refuse(*args, **kwargs):
            raise AssertionError("a 2^n table was built")

        monkeypatch.setattr(capacity, "_tables", refuse)
        code, out, _ = run(capsys, "capacity", "--network", str(path), "--mode", "fd")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == dense.value
        threshold = [a for a in dense.tight_cuts if is_threshold_cut(net, a)]
        assert data["tight_cuts"] == [render_mask(a, 17) for a in threshold] != []

    def test_oversized_link_escalates_to_exact(self, capsys, oversized):
        # float(10**400) overflows, so float mode solves the game exactly.
        code, out, _ = run(capsys, "capacity", "--network", oversized)
        assert code == 0
        assert json.loads(out)["value"] == 2.0
        code, out, _ = run(capsys, "capacity", "--network", oversized, "--exact")
        assert code == 0
        assert F(json.loads(out)["value"]) == F(2 * 10**400, 10**400 + 1)

    def test_fd_mode_on_oversized_and_float_links(self, capsys, mixed):
        # The threshold scan runs on the links' exact values and rounds once.
        code, out, _ = run(capsys, "capacity", "--network", mixed, "--mode", "fd")
        assert code == 0
        data = json.loads(out)
        assert (data["value"], data["tight_cuts"]) == (1.5, ["010"])


class TestSelect:
    def test_exact_exhaustive_with_links_past_the_float_range(self, capsys, tmp_path):
        # Exact ceilings compare with the incumbent exactly and read no float slack.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"l": ["inf", 10**400, 1], "r": [1, 10**400, 2]}))
        code, out, _ = run(
            capsys, "select", "--network", str(path), "--exact", "-k", "2",
            "--strategy", "exhaustive",
        )
        assert code == 0
        data = json.loads(out)
        assert data["selected"] == [1, 2]
        assert F(data["bound"]) <= F(data["fraction"]) < 1

    @pytest.mark.parametrize("strategy", ["exhaustive", "worst-drop"])
    def test_oversized_link_capacity_strategies(self, capsys, oversized, strategy):
        code, out, _ = run(
            capsys, "select", "--network", oversized, "-k", "1", "--strategy", strategy
        )
        assert code == 0
        assert json.loads(out)["fraction"] == 0.5

    @pytest.mark.parametrize("strategy", ["iterative", "schedule-reuse"])
    def test_oversized_link_rate_strategies(self, capsys, oversized, mixed, strategy):
        # A float rate whose links cannot fill float tables takes the min
        # cut on the links' exact values, so float mode answers too, and the
        # escalated schedule keeps its states weighted about 1e-400: the
        # float report is the --exact one, rounded.
        argv = ("select", "--network", oversized, "-k", "1", "--strategy", strategy)
        mixed_argv = ("select", "--network", mixed, "-k", "2", "--strategy", strategy)
        for args, want in ((argv, ([2], 1.0, 2.0)), (mixed_argv, ([1, 2], 1.25, 1.5))):
            code, out, _ = run(capsys, *args)
            assert code == 0
            data = json.loads(out)
            assert F(data["fraction"]) >= F(data["bound"]), data
            assert (data["selected"], data["value"], data["full_value"]) == want
            code, out, _ = run(capsys, *args, "--exact")
            assert code == 0
            exact = json.loads(out)
            assert exact["selected"] == data["selected"]
            assert float(F(exact["value"])) == data["value"]
            assert float(F(exact["full_value"])) == data["full_value"]
        code, out, _ = run(capsys, *argv, "--exact")
        assert code == 0
        assert F(json.loads(out)["full_value"]) == F(2 * 10**400, 10**400 + 1)

    @pytest.mark.parametrize("strategy", ["exhaustive", "worst-drop"])
    def test_oversized_and_float_links_capacity_strategies(self, capsys, mixed, strategy):
        # Single-relay and FD values run on the links' exact values, so float
        # mode answers: the --exact report's numbers, rounded.
        argv = ("select", "--network", mixed, "-k", "1", "--strategy", strategy)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert (data["selected"], data["value"], data["full_value"]) == ([1], 1.0, 1.5)
        code, out, _ = run(capsys, *argv, "--exact")
        assert code == 0
        exact = json.loads(out)
        assert exact["selected"] == [1]
        assert float(F(exact["value"])) == 1.0 and float(F(exact["full_value"])) == 1.5

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pin_past_the_lp_guard(self, capsys, tmp_path, strategy):
        # n=18 is past the hd_capacity guard; the pin certifies the full
        # value 1 for every strategy's full solve.
        k, value = {"worst-drop": ("1", "5/18"), "schedule-reuse": ("17", "17/18"),
                    "iterative": ("1", "2/9"), "exhaustive": ("1", "5/18")}[strategy]
        path = str(tmp_path / "worst18.json")
        run(capsys, "generate", "--family", "worst-case", "--n", "18", "-o", path)
        code, out, _ = run(
            capsys, "select", "--network", path, "--exact", "--strategy", strategy, "-k", k
        )
        assert code == 0
        data = json.loads(out)
        assert (data["full_value"], data["value"], data["fraction"]) == (1, value, value)

    def test_float_pin_past_the_lp_guard(self, capsys, tmp_path):
        # Float mode pins the full value too: exhaustive k = 1 keeps a relay
        # of capacity 5/18, rounded.
        path = str(tmp_path / "worst18.json")
        run(capsys, "generate", "--family", "worst-case", "--n", "18", "-o", path)
        code, out, _ = run(capsys, "select", "--network", path, "--strategy", "exhaustive", "-k", "1")
        assert code == 0
        data = json.loads(out)
        assert (data["selected"], data["value"], data["full_value"]) == ([5], 5 / 18, 1.0)

    @pytest.mark.parametrize("exact", [True, False])
    def test_exhaustive_under_an_unbounded_incumbent(self, capsys, tmp_path, exact):
        # Relay 1 is unbounded both ways; relay 2's ceiling 10**400 is past
        # the float range and is compared with the unbounded incumbent
        # without a float slack.
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps({"l": ["inf", 10**400], "r": ["inf", 10**400]}))
        argv = ("select", "--network", str(path), "-k", "1") + (("--exact",) if exact else ())
        code, out, _ = run(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert (data["selected"], data["value"], data["full_value"]) == ([1], "inf", "inf")

    @pytest.mark.parametrize(
        "big_l, value", [("3/4", F(3, 4)), ("2.5", 2.5), ("1e400", 10**400), ("7", 7)]
    )
    def test_big_l_values(self, capsys, tmp_path, big_l, value):
        # --big-l reads a p/q fraction, a decimal or an integer, and keeps a
        # decimal past the float range exactly.  Relay 5 of the odd family
        # has an unbounded uplink, so the full value moves off its limit 1.
        from hddiamond import gen_worst_case

        path = str(tmp_path / "worst5.json")
        run(capsys, "generate", "--family", "worst-case", "--n", "5", "-o", path)
        code, out, _ = run(
            capsys, "select", "--network", path, "--exact", "-k", "2", "--big-l", big_l
        )
        assert code == 0
        want = select_k(gen_worst_case(5, big_l=value), 2, arithmetic="rational").full_value
        assert F(json.loads(out)["full_value"]) == want < 1

    @pytest.mark.parametrize("big_l", ["1/0", "abc", "1/x"])
    def test_bad_big_l_exits_2(self, capsys, worst4, big_l):
        code, out, err = run(capsys, "select", "--network", worst4, "-k", "2", "--big-l", big_l)
        assert (code, out) == (2, "")
        assert err == f"error: bad capacity value {big_l!r}\n"

    def test_exact_iterative_on_float_links(self, capsys, tmp_path):
        # Rational mode rates the float links' exact values, so the rate is
        # an exact p/q string, as exhaustive and worst-drop report.
        path = tmp_path / "floats.json"
        path.write_text('{"l": [0.3, 1.7, 2.2], "r": [1.1, 0.4, 2.9]}')
        argv = ("select", "--network", str(path), "-k", "2", "--strategy", "iterative")
        code, out, _ = run(capsys, *argv, "--exact")
        assert code == 0
        data = json.loads(out)
        for name in ("value", "full_value", "fraction"):
            assert isinstance(data[name], str) and "/" in data[name], data
        _, approx, _ = run(capsys, *argv)
        approx = json.loads(approx)
        assert data["selected"] == approx["selected"]
        assert float(F(data["value"])) == pytest.approx(approx["value"], rel=1e-9)

    def test_exhaustive_single_relay_report(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text('{"l": [1, "2/5"], "r": [0.5, "14/5"]}')
        code, out, _ = run(
            capsys, "select", "--network", str(path), "-k", "1", "--exact"
        )
        data = json.loads(out)
        assert code == 0
        assert data["strategy"] == "exhaustive"
        assert data["selected"] == [2]
        assert data["value"] == "7/20"
        assert data["value_kind"] == "capacity"
        # exhaustive search with k=1 guarantees max(k/n, 1/4); here k/n wins
        assert data["bound"] == 0.5

    def test_worst_case_drop_one(self, capsys, worst4):
        code, out, _ = run(
            capsys, "select", "--network", worst4, "-k", "3", "--exact"
        )
        data = json.loads(out)
        assert code == 0
        assert data["fraction"] == 0.75
        assert data["full_value"] == 1

    def test_force_remove_voids_bound(self, capsys, tmp_path):
        path = tmp_path / "ht4.json"
        run(capsys, "generate", "--family", "half-tight", "--n", "4", "-o", str(path))
        code, out, _ = run(
            capsys,
            "select",
            "--network",
            str(path),
            "-k",
            "3",
            "--strategy",
            "worst-drop",
            "--force-remove",
            "4",
            "--exact",
        )
        data = json.loads(out)
        assert code == 0  # no bound, so no bound check to fail
        assert data["bound"] is None
        assert data["fraction"] == 0.5
        assert data["selected"] == [1, 2, 3]
        assert data["notes"]

    def test_strategies_all_run(self, capsys, worst4):
        for strategy, k in [
            ("worst-drop", "2"),
            ("schedule-reuse", "3"),
            ("iterative", "2"),
            ("exhaustive", "2"),
        ]:
            code, out, _ = run(
                capsys, "select", "--network", worst4, "-k", k, "--strategy", strategy
            )
            data = json.loads(out)
            assert code == 0
            assert data["strategy"] == strategy
            assert float(data["fraction"]) >= float(data["bound"]) - 1e-9

    def test_below_bound_exits_4(self, capsys, worst4, monkeypatch):
        monkeypatch.setattr(SelectionReport, "below_bound", property(lambda self: True))
        code, out, _ = run(capsys, "select", "--network", worst4, "-k", "3", "--exact")
        assert code == 4
        assert json.loads(out)["fraction"] == 0.75  # the report is still printed

    def test_exact_shortfall_exits_4(self, capsys, worst4, monkeypatch):
        # An exact fraction a hair below its bound is a violation, however
        # small: exact reports are not compared in float.
        def short(*args, **kwargs):
            rep = select_k(*args, **kwargs)
            return replace(rep, fraction=rep.bound - F(1, 10**12))

        monkeypatch.setattr(cli, "select_k", short)
        code, _, _ = run(capsys, "select", "--network", worst4, "-k", "3", "--exact")
        assert code == 4

    def test_bad_k_exits_2(self, capsys, worst4):
        code, _, err = run(capsys, "select", "--network", worst4, "-k", "9")
        assert code == 2
        assert "error:" in err
        # schedule-reuse always drops one relay, so k = n is refused too.
        code, out, err = run(capsys, "select", "--network", worst4, "-k", "4",
                             "--strategy", "schedule-reuse")
        assert (code, out) == (2, "")
        assert "error:" in err

    def test_deterministic(self, capsys, worst4):
        _, out1, _ = run(capsys, "select", "--network", worst4, "-k", "2")
        _, out2, _ = run(capsys, "select", "--network", worst4, "-k", "2")
        assert out1 == out2


class TestGenerate:
    def test_worst_case_to_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "worst-case", "--n", "4")
        data = json.loads(out)
        assert code == 0
        assert data["name"] == "worst-case-4"
        assert data["l"] == [0.5, 1, 0.5, 1]
        assert data["r"] == [1, 0.5, 1, 0.5]

    def test_odd_worst_case_big_l(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "worst-case", "--n", "5", "--big-l", "64"
        )
        data = json.loads(out)
        assert code == 0
        assert data["l"][-1] == 64
        _, out_inf, _ = run(capsys, "generate", "--family", "worst-case", "--n", "5")
        assert json.loads(out_inf)["l"][-1] == "inf"

    def test_half_tight(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "half-tight", "--n", "3")
        data = json.loads(out)
        assert data["l"] == [0.5, 0.5, "inf"]
        assert data["r"] == ["inf", "inf", 0.5]

    def test_random_seeded(self, capsys):
        _, out1, _ = run(
            capsys, "generate", "--family", "random", "--n", "5", "--seed", "7"
        )
        _, out2, _ = run(
            capsys, "generate", "--family", "random", "--n", "5", "--seed", "7"
        )
        _, out3, _ = run(
            capsys, "generate", "--family", "random", "--n", "5", "--seed", "8"
        )
        assert out1 == out2
        assert out1 != out3

    def test_random_range(self, capsys):
        _, out, _ = run(
            capsys,
            "generate", "--family", "random", "--n", "6",
            "--seed", "0", "--lo", "1.5", "--hi", "2.5",
        )
        data = json.loads(out)
        assert all(1.5 <= v < 2.5 for v in data["l"] + data["r"])

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(
            capsys, "generate", "--family", "random", "--n", "3", "--seed", "-1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestVerify:
    def test_suite_runs_green(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "submodular", "--trials", "5"
        )
        data = json.loads(out)
        assert code == 0
        assert data["suite"] == "submodular"
        assert data["failures"] == []
        assert data["passes"] == data["instances"] > 0

    def test_guarantees_fail_when_below_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(SelectionReport, "below_bound", property(lambda self: True))
        code, out, _ = run(
            capsys, "verify", "--suite", "guarantees", "--trials", "3", "--n-max", "3"
        )
        data = json.loads(out)
        assert code == 1
        assert len(data["failures"]) == data["instances"] == 3

    def test_unknown_suite_exits_2_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_no_trials_exits_2(self, capsys):
        for trials in ("0", "-3"):
            code, out, err = run(
                capsys, "verify", "--suite", "guarantees", "--trials", trials
            )
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: bad --trials {trials}")

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "partition", "--trials", "2", "--seed", "-1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: bad --seed -1")

    @pytest.mark.parametrize(
        "suite", ["partition", "lemma5", "guarantees", "sparsify", "edge-delta"]
    )
    def test_n_max_past_the_lp_guard_exits_3(self, capsys, monkeypatch, suite):
        # These suites work over all 2^n states: refuse before the first net.
        import hddiamond.verify

        def refuse(*args, **kwargs):
            raise AssertionError("a network was drawn before the size guard")

        monkeypatch.setattr(hddiamond.verify, "_random_net", refuse)
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--trials", "2", "--n-max", "40"
        )
        assert (code, out) == (3, "")
        assert err.startswith(f"guard: suite {suite} with n_max 40")

    def test_seeded_reports_match(self, capsys):
        args = ("verify", "--suite", "partition", "--trials", "4", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        # wall time differs; everything else must not
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("seconds"), d2.pop("seconds")
        assert d1 == d2


class TestSweep:
    def test_worst_case_csv(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "worst-case", "--n-range", "2:5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,C_full,best_value,fraction"
        assert len(lines) == 5
        for line in lines[1:]:
            n, c_full, best, frac = line.split(",")
            n = int(n)
            assert F(c_full) == 1
            assert F(best) == F(n - 1, n)
            assert F(frac) == F(n - 1, n)

    def test_integer_k(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "worst-case", "--n-range", "4:4", "--k", "1"
        )
        lines = out.splitlines()
        # best single relay of the even family at n=4: fraction 1/3
        n, c_full, best, frac = lines[1].split(",")
        assert (n, F(c_full), F(best), F(frac)) == ("4", F(1), F(1, 3), F(1, 3))

    def test_to_file_and_deterministic(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        args = ("sweep", "--family", "half-tight", "--n-range", "2:4", "--out", str(out_path))
        code, _, _ = run(capsys, *args)
        assert code == 0
        first = out_path.read_bytes()
        run(capsys, *args)
        assert out_path.read_bytes() == first

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "worst-case", "--n-range", "5")
        assert code == 2
        assert "error:" in err

    def test_bad_k_exits_2(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--family", "worst-case", "--n-range", "2:2", "--k", "abc"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad --k 'abc'")

    @pytest.mark.parametrize("family", ["worst-case", "half-tight"])
    def test_runs_to_twelve_relays(self, capsys, family):
        code, out, _ = run(capsys, "sweep", "--family", family, "--n-range", "2:12")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(2, 13))
        for n, c_full, best, frac in rows:
            n = int(n)
            want = F(n - 1, n) if family == "worst-case" else F(1, 2) if n == 2 else 1
            assert (F(c_full), F(best), F(frac)) == (1, want, want)

    def test_guard_exits_3(self, capsys):
        # C(12, 7) * 2^7 = 101376 subnetwork cells, past one 2^16 scan.
        code, _, err = run(
            capsys, "sweep", "--family", "half-tight", "--n-range", "12:12", "--k", "7"
        )
        assert code == 3
        assert "guard:" in err

    def test_guard_refuses_before_solving(self, capsys, monkeypatch):
        import hddiamond
        import hddiamond.capacity
        import hddiamond.cli
        import hddiamond.selection
        import hddiamond.verify

        def refuse(*args, **kwargs):
            raise AssertionError("hd_capacity ran before the size guard")

        for module in (
            hddiamond,
            hddiamond.capacity,
            hddiamond.cli,
            hddiamond.selection,
            hddiamond.verify,
        ):
            if hasattr(module, "hd_capacity"):
                monkeypatch.setattr(module, "hd_capacity", refuse)
        code, out, err = run(
            capsys, "sweep", "--family", "half-tight", "--n-range", "12:12", "--k", "7"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("guard: ")
        # k = n - 1 at 14 relays: 14 * 2^13 = 114688 cells.
        code, out, err = run(capsys, "sweep", "--family", "worst-case", "--n-range", "14:14")
        assert (code, out) == (3, "")
        assert err.startswith("guard: select_k_exhaustive on 14 relays with k=13 ")

    def test_pin_past_the_lp_guard(self, capsys):
        # n=18 is past the hd_capacity guard.  The two-phase schedule's rate
        # meets the full-duplex value there, which pins the full capacity.
        code, out, _ = run(
            capsys, "sweep", "--family", "worst-case", "--n-range", "18:18", "--k", "1"
        )
        assert code == 0
        assert out.splitlines() == ["N,C_full,best_value,fraction", "18,1,5/18,5/18"]

    def test_open_pin_exits_3(self, capsys):
        # For odd n the two-phase rate stays below the full-duplex value, so
        # the pin does not close and the LP guard's refusal stands.
        code, out, err = run(
            capsys, "sweep", "--family", "worst-case", "--n-range", "17:17", "--k", "1"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("guard: ")

    def test_pin_at_thirty_relays(self, capsys):
        # The pin's schedule rate comes from one s-t min cut, so sizes far
        # past any 2^n scan are certified too.
        code, out, _ = run(
            capsys, "sweep", "--family", "worst-case", "--n-range", "30:30", "--k", "1"
        )
        assert code == 0
        assert out.splitlines() == ["N,C_full,best_value,fraction", "30,1,4/15,4/15"]
