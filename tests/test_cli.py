import json
import os

import pytest

from meanrisk import cli

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")


def demo(name):
    with open(os.path.join(DEMO, name), encoding="utf-8") as fh:
        return json.load(fh)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def run_eval(model, measure):
    return cli.main(["eval", "--model", model, "--measure", measure, "--all"])


class TestExitCodes:
    def test_demo_eval_ok(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", demo("model_linear_avar.json"))
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        assert run_eval(model, base) == cli.EXIT_OK
        assert "phi" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("risk"),
            lambda d: d.pop("recourse"),
            lambda d: d["decisions"].pop("points"),
            lambda d: d.update(gamma="steep"),
            lambda d: d.update(p=[1, 2]),
        ],
        ids=["no-risk", "no-recourse", "no-decisions", "gamma-not-a-number", "p-a-list"],
    )
    def test_malformed_model_is_a_config_error(self, tmp_path, capsys, edit):
        data = demo("model_linear_avar.json")
        edit(data)
        model = write(tmp_path, "m.json", data)
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        assert run_eval(model, base) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: bad model")

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 1, "atoms": [{"point": [0.0]}]}',
            '{"dim": 1, "atoms": [{"weight": 1.0}]}',
            '{"atoms": [{"point": [0.0], "weight": 1.0}]}',
            '{"dim": 1, "atoms": [{"point": ["zero"], "weight": 1.0}]}',
            '{"dim": 1, "atoms": [{"point": [NaN], "weight": 1.0}]}',
            '{"dim": 1, "atoms": [{"point": [0.0], "weight": Infinity}]}',
            '{"dim": 1, "atoms": 3}',
        ],
        ids=["no-weight", "no-point", "no-dim", "text-point", "nan-point", "inf-weight", "atoms-int"],
    )
    def test_malformed_measure_is_a_config_error(self, tmp_path, capsys, text):
        model = write(tmp_path, "m.json", demo("model_linear_avar.json"))
        base = write(tmp_path, "b.json", text)
        assert run_eval(model, base) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: bad measure")

    @pytest.mark.parametrize(
        "scheme",
        [
            '{"kind": "saa", "n_schedule": "abc", "seed": 0}',
            '{"kind": "saa", "n_schedule": [100], "seed": "x"}',
            '{"n_schedule": [100], "seed": 0}',
            '[1, 2',
        ],
        ids=["schedule-text", "seed-text", "no-kind", "broken-json"],
    )
    def test_malformed_scheme_is_a_config_error(self, tmp_path, capsys, scheme):
        model = write(tmp_path, "m.json", demo("model_milp_expectation.json"))
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        argv = ["stability", "--model", model, "--measure", base, "--scheme", scheme,
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def run_infeasible_convex(self, tmp_path, capsys):
        # |y| <= z - 5 on a continuous y is empty at every base atom
        data = demo("model_convex_expectation.json")
        data["recourse"].update(
            m1=1,
            m2=0,
            integer_bounds=[],
            continuous_box=[[-10.0, 10.0]],
            v=["var", 0],
            g=[["abs", ["var", 0]]],
            h_map={"affine": {"matrix": [[0.0, 1.0]], "constant": [-5.0]}},
        )
        model = write(tmp_path, "m.json", data)
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        assert run_eval(model, base) == cli.EXIT_MODEL
        return capsys.readouterr()

    def test_infeasible_recourse_is_a_model_error(self, tmp_path, capsys):
        out = self.run_infeasible_convex(tmp_path, capsys)
        assert out.out == "" and out.err.startswith("model error: RecourseInfeasible")
        assert "(certified:" in out.err and "Traceback" not in out.err

    def test_infeasible_point_prints_plain_floats(self, tmp_path, capsys):
        err = self.run_infeasible_convex(tmp_path, capsys).err
        assert "np.float64" not in err
        assert "at x=[0.0], z=[" in err

    @pytest.mark.parametrize("entry", ["q_map", "h_map"])
    def test_non_finite_miqp_data_is_a_model_error(self, tmp_path, capsys, entry):
        data = demo("model_miqp_expectation.json")
        data["recourse"][entry]["affine"]["constant"] = [float("inf")]
        model = write(tmp_path, "m.json", data)
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        assert run_eval(model, base) == cli.EXIT_MODEL
        out = capsys.readouterr()
        name = "q" if entry == "q_map" else "b"
        assert out.out == ""
        assert out.err == f"model error: OutOfRange: non-finite entries in {name}\n"

    def test_missing_file(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", demo("model_linear_avar.json"))
        assert run_eval(model, str(tmp_path / "absent.json")) == cli.EXIT_CONFIG

    def test_gate_failure(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", demo("model_milp_expectation.json"))
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        argv = ["stability", "--model", model, "--measure", base, "--out", str(tmp_path / "out"),
                "--scheme", os.path.join(DEMO, "scheme_saa.json"), "--gate", "d_bl:1e9"]
        assert cli.main(argv) == cli.EXIT_GATE
        assert (tmp_path / "out" / "report.csv").exists()


class TestCertify:
    def certify(self, tmp_path, *extra):
        model = write(tmp_path, "m.json", demo("model_linear_avar.json"))
        return cli.main(["certify", "--model", model, "--zbox=-1:1", "--n", "20", *extra])

    @pytest.mark.parametrize(
        "extra",
        [("--xcount", "0"), ("--xcount", "-1"), ("--n", "0")],
        ids=["xcount-0", "xcount-neg", "n-0"],
    )
    def test_nonpositive_counts_are_config_errors(self, tmp_path, capsys, extra):
        assert self.certify(tmp_path, *extra) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"config error: {extra[0]} must be >= 1")

    @pytest.mark.parametrize("xcount, expect", [(None, 5), (2, 2), (9, 5)])
    def test_xcount_takes_the_first_decisions(self, tmp_path, capsys, xcount, expect):
        extra = () if xcount is None else ("--xcount", str(xcount))
        assert self.certify(tmp_path, *extra) == cli.EXIT_OK
        cert = json.loads(capsys.readouterr().out)
        assert cert["decisions"] == [[0.25 * i] for i in range(expect)]
        assert cert["sample_count"] == 20
