"""End-to-end tests for the batch command line.

Everything runs in-process through ``cli.main`` with small truncations and
tiny solver budgets, so the whole file stays fast.  The three contracts
under test: worked examples reproduce their closed-form values, exit codes
follow the 0/2/64/65/73 policy, and reruns with the same configuration write
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moyalmetric import cli
from moyalmetric.acceptance import CriterionResult, settings_from
from moyalmetric.config import RunConfig
from moyalmetric.stateexpr import format_state_expr, parse_state_expr


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# A pair that no closed form covers and that is not number-diagonal, so
# only the solver route applies to it.
GENERAL_PAIR = (
    "distance", "super:0,2:1,1", "eigen:1", "--trunc-dim", "16",
    "--solver-iterations", "5",
)


class TestWorkedExamples:
    def test_distance_ground_to_first_level(self, tmp_path, capsys):
        rc = run_cli(
            "distance", "eigen:0", "eigen:1", "--method", "all",
            "--trunc-dim", "16", "--solver-iterations", "80",
            "--output-dir", str(tmp_path),
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.707106781187" in out
        payload = read_json(tmp_path / "distance_eigen-0_eigen-1_all.json")
        values = {r["method"]: r["value"] for r in payload["reports"]}
        want = 1.0 / math.sqrt(2.0)
        assert values["closed-form"] == pytest.approx(want, abs=1e-9)
        assert values["diagonal-lp"] == pytest.approx(want, abs=1e-9)
        # The solver route certifies its value as a lower bound.
        assert values["convex-solver"] >= 0.98 * want
        # Only the solver's proven skip routes carry an upper bound.
        uppers = {r["method"]: r["upper"] for r in payload["reports"]}
        assert uppers["closed-form"] is None and uppers["diagonal-lp"] is None
        assert uppers["convex-solver"] == pytest.approx(want, abs=1e-9)
        assert payload["anomaly"] is False

    def test_distance_pure_translation(self, tmp_path, capsys):
        # amplitude 2 needs headroom: the same pair at trunc_dim 16 trips
        # the leakage guard, which TestExitCodes checks separately
        rc = run_cli(
            "distance", "eigen:0", "translated:eigen:0:2+0i",
            "--method", "closed", "--trunc-dim", "24",
            "--output-dir", str(tmp_path),
        )
        assert rc == 0
        assert "d_D = 2" in capsys.readouterr().out

    def test_distance_all_skips_routes_that_do_not_cover(self, tmp_path, capsys):
        rc = run_cli(*GENERAL_PAIR, "--method", "all", "--output-dir", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "skipped closed-form:" in out
        assert "skipped diagonal-lp:" in out
        payload = read_json(tmp_path / "distance_super-0-2-1-1--3a2c3a2c_eigen-1_all.json")
        assert len(payload["skipped"]) == 2
        assert [r["method"] for r in payload["reports"]] == ["convex-solver"]

    def test_distance_prints_the_upper_bound(self, tmp_path, capsys):
        # A report that carries an upper bound prints it beside d_D, as the
        # JSON records it; one without prints none.
        rc = run_cli("distance", "eigen:0", "eigen:1", "--method", "all",
                     "--trunc-dim", "16", "--output-dir", str(tmp_path))
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        payload = read_json(tmp_path / "distance_eigen-0_eigen-1_all.json")
        for rep in payload["reports"]:
            (line,) = [x for x in lines if x.startswith(f"{rep['method']:<13s} d_D = ")]
            if rep["upper"] is None:
                assert "upper = " not in line
            else:
                assert f"upper = {cli._fmt(rep['upper'])}" in line
        assert [r["upper"] is None for r in payload["reports"]] == [True, True, False]
        rc = run_cli(*GENERAL_PAIR, "--method", "solver", "--output-dir", str(tmp_path))
        assert rc == 0
        (rep,) = read_json(
            tmp_path / "distance_super-0-2-1-1--3a2c3a2c_eigen-1_solver.json")["reports"]
        assert rep["upper"] > rep["value"]
        assert f"upper = {cli._fmt(rep['upper'])}" in capsys.readouterr().out

    def test_distance_identical_states_vanishes(self, tmp_path):
        rc = run_cli(
            "distance", "eigen:0", "eigen:0", "--method", "all",
            "--trunc-dim", "16", "--solver-iterations", "40",
            "--output-dir", str(tmp_path),
        )
        assert rc == 0
        payload = read_json(tmp_path / "distance_eigen-0_eigen-0_all.json")
        assert all(r["value"] == 0.0 for r in payload["reports"])

    def test_qlength_family_closed_form(self, tmp_path, capsys):
        rc = run_cli(
            "qlength", "eigen:1", "translated:eigen:2:2+0i",
            "--trunc-dim", "24", "--output-dir", str(tmp_path),
        )
        assert rc == 0
        out = capsys.readouterr().out
        # 2*E_1 + 2*E_2 + |2|^2 = 3 + 5 + 4
        assert "d_L2       = 12" in out
        assert (tmp_path / "qlength_eigen-1_translated-eigen-2-2-0i.csv").exists()

    def test_qlength_vacuum_diagonal(self, tmp_path, capsys):
        rc = run_cli(
            "qlength", "eigen:0", "eigen:0",
            "--trunc-dim", "16", "--output-dir", str(tmp_path),
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "d_L2       = 2" in out
        assert f"d_L        = {cli.format_value(math.sqrt(2.0))}" in out
        assert "d_L_mod    = 0" in out

    def test_qlength_half_truncation_without_the_level(self, tmp_path, capsys):
        # Level 6 holds at N=16 but lies past the edge at N=8: the half-N
        # row is untestable, and the full-N values are written.
        rc = run_cli(
            "qlength", "eigen:5", "eigen:6",
            "--trunc-dim", "16", "--output-dir", str(tmp_path),
        )
        assert rc == 0
        assert "not testable at N=8" in capsys.readouterr().out
        rows = (tmp_path / "qlength_eigen-5_eigen-6.csv").read_text(encoding="utf-8")
        assert rows.splitlines()[-3:] == [
            "pair N=16,,4.45814721659,24,0.288926485109,,",
            "family closed form,,,24,,0,",
            "pair N=8 untestable (range),,,,,,",
        ]

    def test_qlength_modified_length_level_pair(self, tmp_path, capsys):
        rc = run_cli(
            "qlength", "eigen:1", "eigen:2",
            "--trunc-dim", "24", "--output-dir", str(tmp_path),
        )
        assert rc == 0
        out = capsys.readouterr().out
        want = math.sqrt(5.0) - math.sqrt(3.0)
        assert f"d_L_mod    = {cli.format_value(want)}" in out

    def test_counterexample_frozen_residual(self, tmp_path, capsys):
        rc = run_cli(
            "counterexample", "--indices", "0,2,4,6",
            "--trunc-dim", "24", "--output-dir", str(tmp_path),
        )
        assert rc == 0
        assert "residual = 2.04411885337" in capsys.readouterr().out

    def test_riemann_gap_shrinks(self, tmp_path, capsys):
        rc = run_cli(
            "riemann", "--family", "0", "--upto", "10",
            "--trunc-dim", "20", "--output-dir", str(tmp_path),
        )
        assert rc == 0
        assert "monotone decreasing: yes" in capsys.readouterr().out

    def test_spectrum_floor(self, tmp_path, capsys):
        rc = run_cli(
            "spectrum", "--count", "4", "--trunc-dim", "16",
            "--output-dir", str(tmp_path),
        )
        assert rc == 0
        assert "min Sp(L2) = 2 " in capsys.readouterr().out

    def test_pythagoras_bracket(self, tmp_path, capsys):
        rc = run_cli(
            "pythagoras", "--family", "0", "--kappa", "0,0.5",
            "--trunc-dim", "16", "--solver-iterations", "60",
            "--output-dir", str(tmp_path),
        )
        assert rc == 0
        assert "worst relative equality residual" in capsys.readouterr().out

    def test_oracle_routes_agree(self, tmp_path):
        # the smallest box whose boundary value 2 e^{-R^2} clears the
        # 1e-8 decay certification is R ~ 4.4; stay a little above
        rc = run_cli(
            "oracle", "--box", "5.0", "--step", "0.25",
            "--output-dir", str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "oracle.csv").exists()

    def test_optimal_element_identities(self, tmp_path, capsys):
        rc = run_cli(
            "optimal-element", "--xi", "0.25", "--upto", "5",
            "--trunc-dim", "20", "--output-dir", str(tmp_path),
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "translation element: seminorm = 1 " in out
        assert "radial element gap (0,1) = 0.732050807569" in out


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("distance", "squeezed:0.3", "eigen:0"),
            ("distance", "eigen:0"),
            ("distance", "eigen:0", "eigen:1", "--method", "warp"),
            ("nosuchcommand",),
            ("counterexample", "--indices", "0,2,4"),
            ("asymptotics", "--kappa", "0..three"),
            ("pythagoras", "--kappa", "0,1+zz"),
            # input bounded before any work: nesting far past any state the
            # truncation holds, and a shift range of 100001 points
            ("distance", "translated:" * 1200 + "eigen:0" + ":0" * 1200, "eigen:0"),
            ("asymptotics", "--kappa", "0..100000"),
            ("pythagoras", "--kappa", "0..100000"),
            # inputs that would give two rows one label: two shifts or points
            # that print alike, or two shifts at one separation from the first
            ("pythagoras", "--kappa", "0,0"),
            ("pythagoras", "--kappa", "1e15..1000000000000002"),
            ("oracle", "--points", "0,0;0,0"),
            ("asymptotics", "--kappa", "0,1,-1"),
        ],
    )
    def test_usage_errors_give_64(self, tmp_path, argv, capsys):
        rc = run_cli(*argv, "--output-dir", str(tmp_path))
        capsys.readouterr()
        assert rc == 64

    def test_output_dir_that_is_a_file_gives_73(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        rc = run_cli("distance", "eigen:0", "eigen:1", "--method", "closed",
                     "--trunc-dim", "16", "--output-dir", str(blocker))
        err = capsys.readouterr().err
        assert rc == 73
        assert err.startswith("output error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # level past the guarded edge of a 16-dimensional truncation
            ("qlength", "eigen:50", "eigen:0", "--trunc-dim", "16"),
            # translate far enough to push weight onto the guard band
            ("qlength", "translated:eigen:0:9+0i", "eigen:0", "--trunc-dim", "16"),
            # indices without pairwise separation two
            ("counterexample", "--indices", "0,1,4,6", "--trunc-dim", "16"),
            ("distance", "eigen:0", "eigen:1", "--trunc-dim", "4"),
            # out-of-range values: a plain message, never a traceback
            ("spectrum", "--count", "0", "--trunc-dim", "16"),
            ("spectrum", "--count", "-3", "--trunc-dim", "16"),
            ("oracle", "--step", "0"),
            ("oracle", "--box", "-8"),
            ("spectrum", "--tol", "inf", "--trunc-dim", "16"),
            ("spectrum", "--leakage-bound", "inf", "--trunc-dim", "16"),
            ("spectrum", "--theta", "inf", "--trunc-dim", "16"),
            ("distance", "eigen:0", "eigen:1", "--method", "lp", "--theta", "inf",
             "--trunc-dim", "16"),
            # non-finite shifts and labels
            ("asymptotics", "--kappa", "0..inf"),
            ("pythagoras", "--kappa", "0,nan"),
            ("qlength", "eigen:0", "coherent:inf+0i", "--trunc-dim", "16"),
            ("qlength", "eigen:0", "translated:eigen:0:nan", "--trunc-dim", "16"),
            ("qlength", "mix:inf*eigen:0;1*eigen:1", "eigen:0", "--trunc-dim", "16"),
            ("qlength", "super:0,1:nan,1", "eigen:0", "--trunc-dim", "16"),
            ("qlength", "super:0,1:1,inf", "eigen:0", "--trunc-dim", "16"),
        ],
    )
    def test_data_errors_give_65(self, tmp_path, argv, capsys):
        rc = run_cli(*argv, "--output-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 65
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "method, message",
        [("closed", "no closed form covers this pair"), ("lp", "not diagonal")],
    )
    def test_route_outside_its_cover_gives_65(self, tmp_path, method, message, capsys):
        rc = run_cli(*GENERAL_PAIR, "--method", method, "--output-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 65
        assert err.startswith("data error: ") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            # exact identities whose roundoff grows with theta and N
            ("distance", "eigen:0", "eigen:1", "--method", "closed", "--theta", "2"),
            ("distance", "eigen:0", "eigen:1", "--method", "lp", "--theta", "2"),
            ("distance", "eigen:0", "eigen:1", "--method", "closed", "--trunc-dim", "128"),
            ("optimal-element", "--theta", "2"),
        ],
    )
    def test_exact_identities_give_0(self, tmp_path, argv, capsys):
        rc = run_cli(*argv, "--output-dir", str(tmp_path))
        capsys.readouterr()
        assert rc == 0

    @pytest.mark.parametrize(
        "argv, patched, name, message",
        [
            (("optimal-element",), "lipschitz_seminorm", "optimal_element.csv",
             "an optimal-element identity failed"),
            (("qlength", "eigen:0", "eigen:1"), "d_L2", "qlength_eigen-0_eigen-1.csv",
             "a length value failed its cross-check"),
        ],
        ids=("optimal-element", "qlength"),
    )
    def test_failed_cross_check_writes_then_gives_2(
        self, tmp_path, monkeypatch, capsys, argv, patched, name, message
    ):
        monkeypatch.setattr(cli, patched, lambda *args: 7.0)
        rc = run_cli(*argv, "--trunc-dim", "16", "--output-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"anomaly: {message}\n"
        assert (tmp_path / name).exists()

    def test_malformed_environment_gives_65(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MOYAL_TRUNC_DIM", "banana")
        rc = run_cli("spectrum", "--output-dir", str(tmp_path))
        capsys.readouterr()
        assert rc == 65

    @pytest.mark.parametrize("key", ("solver_restarts", "solver_seed"))
    def test_removed_solver_keys_give_65(self, tmp_path, capsys, key):
        # Neither is a configuration key: a config file that sets one is a
        # data error, not a silent no-op.
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = 2\n", encoding="utf-8")
        rc = run_cli("spectrum", "--config", str(cfgfile), "--output-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 65
        assert f"unknown configuration key '{key}'" in err

    def test_missing_config_file_gives_65(self, tmp_path, capsys):
        rc = run_cli(
            "spectrum", "--config", str(tmp_path / "nope.cfg"),
            "--output-dir", str(tmp_path),
        )
        capsys.readouterr()
        assert rc == 65


class TestConfigLayering:
    def test_flag_beats_env_beats_file(self, tmp_path, monkeypatch, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("trunc_dim = 12\n", encoding="utf-8")
        common = (
            "distance", "eigen:0", "eigen:1", "--method", "closed",
            "--config", str(cfgfile), "--output-dir", str(tmp_path),
        )
        path = tmp_path / "distance_eigen-0_eigen-1_closed.json"

        assert run_cli(*common) == 0
        assert read_json(path)["config"]["trunc_dim"] == 12

        monkeypatch.setenv("MOYAL_TRUNC_DIM", "14")
        assert run_cli(*common) == 0
        assert read_json(path)["config"]["trunc_dim"] == 14

        assert run_cli(*common, "--trunc-dim", "16") == 0
        assert read_json(path)["config"]["trunc_dim"] == 16
        capsys.readouterr()

    def test_every_field_has_its_flag(self, tmp_path):
        want = RunConfig(trunc_dim=12, theta=0.5, tol=1e-9, solver_iterations=7,
                         leakage_bound=1e-9, output_dir=str(tmp_path))
        args = cli.build_parser().parse_args([
            "spectrum", "--trunc-dim", "12", "--theta", "0.5", "--tol", "1e-9",
            "--solver-iterations", "7", "--leakage-bound", "1e-9",
            "--output-dir", str(tmp_path),
        ])
        assert cli.resolve_config(overrides=cli._overrides(args)) == want

    def test_certificate_only_on_request(self, tmp_path, capsys):
        base = (
            "distance", "eigen:0", "eigen:1", "--method", "lp",
            "--trunc-dim", "12", "--output-dir", str(tmp_path),
        )
        path = tmp_path / "distance_eigen-0_eigen-1_lp.json"
        assert run_cli(*base) == 0
        assert "certificate" not in read_json(path)["reports"][0]
        assert run_cli(*base, "--with-certificate") == 0
        cert = read_json(path)["reports"][0]["certificate"]
        assert cert is not None and len(cert["real"]) == 12
        capsys.readouterr()


ASYMPTOTICS_LABELS = [
    "same-family m=0 |dk|=0",
    "same-family m=0 |dk|=1",
    "same-family m=0 |dk|=2 (closed)",
    "same-family m=0 |dk|=3 (closed)",
    "cross-family-shift |dk|=0 m=0 n=1",
    "cross-family-shift |dk|=1 m=0 n=1",
    "cross-family-shift |dk|=2 m=0 n=1 (closed)",
    "cross-family-shift |dk|=3 m=0 n=1 (closed)",
] + [f"cross-family-level n={n} m=0" for n in range(1, 14)]


class TestOutputContract:
    # Every command that writes a CSV; suite is covered by TestSuiteCommand.
    @pytest.mark.parametrize("argv, labels", [
        (("qlength", "eigen:0", "translated:eigen:0:1+0i"), None),
        (("spectrum",), None),
        (("pythagoras", "--kappa", "0,1", "--solver-iterations", "40"), None),
        (("asymptotics", "--kappa", "0..3"), ASYMPTOTICS_LABELS),
        # Shifts that agree to six digits still get one label each.
        (("pythagoras", "--kappa", "0.1234561,0.1234562", "--solver-iterations", "40"),
         ["family m=0 k1=0.1234561 k2=0.1234561", "family m=0 k1=0.1234561 k2=0.1234562"]),
        (("asymptotics", "--kappa", "0,0.1234561,0.1234562"),
         [f"same-family m=0 |dk|={dk}" for dk in ("0", "0.1234561", "0.1234562")]
         + [f"cross-family-shift |dk|={dk} m=0 n=1" for dk in ("0", "0.1234561", "0.1234562")]
         + [f"cross-family-level n={n} m=0" for n in range(1, 14)]),
        (("counterexample",), None),
        (("riemann",), None),
        (("oracle",), None),
        (("optimal-element",), None),
    ], ids=("qlength", "spectrum", "pythagoras", "asymptotics", "pythagoras-close-shifts",
            "asymptotics-close-shifts", "counterexample", "riemann", "oracle",
            "optimal-element"))
    def test_csv_header_echo_and_schema(self, tmp_path, capsys, argv, labels):
        rc = run_cli(*argv, "--trunc-dim", "16", "--output-dir", str(tmp_path))
        capsys.readouterr()
        assert rc == 0
        [path] = tmp_path.glob("*.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# trunc_dim = 16"
        assert all(lines[i].startswith("# ") for i in range(6))
        assert lines[6] == ",".join(cli._Row._fields)
        assert lines[6] == "label,d_D,d_L,d_L2,d_L_mod,rel_gap,feasibility"
        got = [row[0] for row in csv.reader(lines[7:])]
        assert len(set(got)) == len(got) > 0
        if labels is not None:
            assert got == labels

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("qlength", "eigen:0", "coherent:0.5+0.5i"),
             "qlength_eigen-0_coherent-0.5-0.5i.csv"),
            (("distance", "eigen:0", "coherent:1+0i", "--method", "all"),
             "distance_eigen-0_coherent-1-0i_all.json"),
            (("pythagoras", "--kappa", "0,1"), "pythagoras.csv"),
        ],
        ids=("qlength", "distance", "pythagoras"),
    )
    def test_rerun_is_byte_identical(self, tmp_path, capsys, argv, name):
        argv = (
            *argv, "--trunc-dim", "16", "--solver-iterations", "40",
            "--output-dir", str(tmp_path),
        )
        path = tmp_path / name
        assert run_cli(*argv) == 0
        first = path.read_bytes()
        assert run_cli(*argv) == 0
        capsys.readouterr()
        assert path.read_bytes() == first

    def test_long_names_are_cut_and_tagged(self, tmp_path, capsys):
        # Two long expressions that share a prefix far past the cut get
        # distinct names, each within the 255-byte file-name limit.
        prefix = "mix:" + ";".join(f"0.0909090909*eigen:{k}" for k in range(10))
        long1, long2 = prefix + ";0.0909090909*eigen:10", prefix + ";0.0909090909*eigen:11"
        for other in (long1, long2):
            rc = run_cli("distance", long1, other, "--method", "lp", "--trunc-dim", "16",
                         "--output-dir", str(tmp_path))
            assert rc == 0
        capsys.readouterr()
        names = sorted(path.name for path in tmp_path.iterdir())
        assert len(names) == 2
        assert all(len(name.encode()) <= 255 for name in names)
        assert all(name.startswith("distance_mix-0.0909090909-eigen-0-") for name in names)

    @pytest.mark.parametrize("pair", [
        ("coherent:0.5+0.5i", "coherent:0.5-0.5i"),
        ("translated:eigen:2:1+2i", "translated:eigen:2:1-2i"),
    ], ids=("coherent", "translated"))
    def test_distinct_states_get_distinct_files(self, tmp_path, capsys, pair):
        # The readable tags of the two states agree, so the second takes the
        # tagged name instead of overwriting the first's file.
        for state in pair:
            rc = run_cli("distance", "eigen:0", state, "--method", "solver",
                         "--trunc-dim", "48", "--solver-iterations", "5",
                         "--output-dir", str(tmp_path))
            assert rc == 0
        capsys.readouterr()
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == 2
        assert paths[0].name.startswith(f"distance_eigen-0_{cli._slug(pair[0])}")
        states = sorted(read_json(path)["states"][1] for path in paths)
        assert states == sorted(format_state_expr(parse_state_expr(s)) for s in pair)

    @given(st.lists(st.text(alphabet="eigncoht:+-.,;*012ij _()", max_size=10),
                    unique_by=str.strip))
    def test_slug_is_injective(self, texts):
        # The old rule wrote every run of other characters as one '-', so
        # ':' and '+', or '+' and '-', gave one tag.
        tags = [cli._slug(text) for text in texts]
        assert len(set(tags)) == len(tags)
        assert all(len(tag) <= 96 and "_" not in tag for tag in tags)

    def test_plot_is_deterministic_svg(self, tmp_path, capsys):
        argv = (
            "asymptotics", "--kappa", "0..3", "--trunc-dim", "16",
            "--plot", "--output-dir", str(tmp_path),
        )
        path = tmp_path / "asymptotics.svg"
        assert run_cli(*argv) == 0
        first = path.read_bytes()
        assert first.startswith(b'<?xml version="1.0"')
        assert run_cli(*argv) == 0
        capsys.readouterr()
        assert path.read_bytes() == first

    def test_roundoff_spread_plots_flat(self, tmp_path):
        # A degenerate spectrum differs from a constant only by roundoff;
        # its axis must not autoscale to that noise.
        cfg = RunConfig(trunc_dim=16, output_dir=str(tmp_path))
        drawn = []
        for name, ys in (("flat.svg", [2.0, 2.0]), ("noisy.svg", [2.0, 2.0 + 4e-15])):
            path = cli._svg_plot(cfg, name, "t", "x", "y", [("s", [0, 1], ys)])
            with open(path, encoding="utf-8") as fh:
                drawn.append(fh.read())
        assert drawn[0] == drawn[1]
        assert ">3<" in drawn[0] and ">1<" in drawn[0]

    def test_header_check_detects_foreign_config(self, tmp_path, capsys):
        rc = run_cli(
            "spectrum", "--trunc-dim", "16", "--output-dir", str(tmp_path),
        )
        capsys.readouterr()
        assert rc == 0
        good = RunConfig(trunc_dim=16, output_dir=str(tmp_path))
        cli.check_header(str(tmp_path / "spectrum.csv"), good)
        with pytest.raises(ArithmeticError):
            cli.check_header(
                str(tmp_path / "spectrum.csv"),
                RunConfig(trunc_dim=32, output_dir=str(tmp_path)),
            )


class TestSuiteCommand:
    def test_suite_wiring_and_failure_exit(self, tmp_path, monkeypatch, capsys):
        """The suite command streams progress, writes the report, and maps
        any failed criterion to the anomaly exit code.  The real battery is
        exercised in test_acceptance; here a stub keeps the test instant."""

        def fake_run_all(cfg, quick, progress):
            results = [
                CriterionResult(1, "first check", True, 0.25, "fine", 0.01),
                CriterionResult(2, "second check", False, 3.5, "broken", 0.02),
            ]
            for r in results:
                progress(r)
            return results

        monkeypatch.setattr(cli.acceptance, "run_all", fake_run_all)
        rc = run_cli("suite", "--quick", "--trunc-dim", "16",
                     "--output-dir", str(tmp_path))
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == "anomaly: 1 of 2 criteria failed\n"
        assert "FAIL  second check" in out
        assert "broken" in out
        assert "suite: 1/2 criteria passed" in out
        lines = (tmp_path / "suite_quick.csv").read_text(encoding="utf-8").splitlines()
        assert lines[7] == "criterion 1: first check,,,,,0.25,1"
        assert lines[8] == "criterion 2: second check,,,,,3.5,0"

    @pytest.mark.parametrize("quick, dims", [(True, (32, 32)), (False, (64, 48))])
    def test_battery_runs_at_the_echoed_configuration(self, quick, dims):
        cfg = RunConfig(tol=1e-6, leakage_bound=1e-4, theta=0.5)
        st = settings_from(cfg, quick)
        assert (st.ctx.trunc_dim, st.solver_ctx.trunc_dim) == dims
        for ctx in (st.ctx, st.solver_ctx):
            assert (ctx.theta, ctx.tol, ctx.leakage_bound) == (0.5, 1e-6, 1e-4)
        assert st.solver.iterations == (300 if quick else 2000)


class TestScripts:
    def test_library_names_they_import_exist(self):
        # The scripts beside the package run outside this suite, so a helper
        # renamed or deleted under them would break them silently.  Every
        # name they import from moyalmetric, inside functions too, must
        # exist; the scripts are parsed, not run.
        import ast
        import importlib
        import importlib.util
        from pathlib import Path

        def exists(module, name):
            # A submodule is a name of its package before it is imported.
            if hasattr(module, name):
                return True
            return hasattr(module, "__path__") and importlib.util.find_spec(
                f"{module.__name__}.{name}") is not None

        scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
        imported, missing = 0, []
        for path in scripts:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if not isinstance(node, ast.ImportFrom) or node.level or not (
                        node.module == "moyalmetric" or node.module.startswith("moyalmetric.")):
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported += 1
                    if not exists(module, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
        assert imported > 0
        assert missing == []
