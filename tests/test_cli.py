import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import cli

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")


def demo(name):
    with open(os.path.join(DEMO, name), encoding="utf-8") as fh:
        return json.load(fh)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def with_recourse(name, **edits):
    """A model edit: the recourse of another demo model, with these entries."""
    return lambda d: d.update(recourse={**demo(name)["recourse"], **edits})


def miqp_with_constant(entry, value):
    """The miqp demo's recourse with this affine map constant."""
    recourse = demo("model_miqp_expectation.json")["recourse"]
    recourse[entry]["affine"]["constant"] = [value]
    return recourse


def nested_sum(levels):
    """The convex demo's v inside `levels` nested one-term sums."""
    v = demo("model_convex_expectation.json")["recourse"]["v"]
    for _ in range(levels):
        v = ["sum", v]
    return v


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
            lambda d: d.update(gamma=1e400),
            lambda d: d.update(p=1e400),
            lambda d: d.update(risk={"kind": "semidev", "a": 0.5, "p": 1e400}),
            lambda d: d["recourse"].update(n=1e400),
            # the recourse data is refused when it loads, not at the first solve
            with_recourse("model_milp_expectation.json", integer_bounds=[[5, 0]]),
            with_recourse("model_milp_expectation.json", m1=-1, m2=3, integer_bounds=[[0, 1]] * 3),
            with_recourse("model_milp_expectation.json", integer_bounds=[[-5, -1]]),
            lambda d: d["recourse"].update(A=[[math.inf, -1.0]]),
            with_recourse("model_milp_expectation.json", q=[math.nan, 1.0]),
            with_recourse("model_miqp_expectation.json", D=[[math.inf]]),
            with_recourse("model_miqp_expectation.json", D=[[-1.0]]),
            with_recourse("model_convex_expectation.json", integer_bounds=[[20.0, -20.0]]),
            lambda d: d.update(recourse=miqp_with_constant("q_map", math.inf)),
            lambda d: d.update(recourse=miqp_with_constant("h_map", math.inf)),
            # refused before the grid is built: no command can evaluate it
            lambda d: d.update(decisions={"box": {"lo": [0.0], "hi": [1.0], "counts": [10**12]}}),
            lambda d: d.update(decisions={"box": {"lo": [0.0], "hi": [1.0], "counts": [10**8]}}),
            # deeper than the interpreter's recursion limit
            with_recourse("model_convex_expectation.json", v=nested_sum(500)),
        ],
        ids=["no-risk", "no-recourse", "no-decisions", "gamma-not-a-number", "p-a-list",
             "gamma-1e400", "p-1e400", "risk-p-1e400", "n-1e400", "milp-bounds-reversed",
             "milp-m1-negative", "milp-bounds-below-zero", "A-inf", "milp-q-nan", "miqp-D-inf",
             "miqp-D-negative", "convex-bounds-reversed", "miqp-q-map-inf", "miqp-h-map-inf",
             "box-1e12-points", "box-1e8-points", "v-500-levels"],
    )
    def test_malformed_model_is_a_config_error(self, tmp_path, capsys, edit):
        data = demo("model_linear_avar.json")
        edit(data)
        model = write(tmp_path, "m.json", data)
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        assert run_eval(model, base) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: bad model")
        assert out.err.count("\n") == 1

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
            '{"dim": 1e400, "atoms": [{"point": [0.0], "weight": 1.0}]}',
            '{"dim": 2, "atoms": [{"point": [0.0, 1.0], "weight": 0.5},'
            ' {"point": [2.0], "weight": 0.5}]}',
            '{"dim": 1, "atoms": [{"point": [[0.0]], "weight": 1.0}]}',
            '{"dim": 1, "atoms": [{"point": [0.0], "weight": 0.5},'
            ' {"point": [[1.0]], "weight": 0.5}]}',
            '{"dim": 1, "atoms": [{"point": [], "weight": 1.0}]}',
            '{"dim": 1, "atoms": [{"point": 0.0, "weight": 0.5}, {"point": [1.0], "weight": 0.5}]}',
            '{"dim": 1, "atoms": [{"point": [0.0], "weight": null}]}',
            '{"dim": 1, "atoms": [{"point": [0.0], "weight": [1.0]}]}',
        ],
        ids=["no-weight", "no-point", "no-dim", "text-point", "nan-point", "inf-weight",
             "atoms-int", "dim-1e400", "ragged-points", "nested-point", "nested-and-flat",
             "empty-point", "bare-and-list-points", "null-weight", "list-weight"],
    )
    def test_malformed_measure_is_a_config_error(self, tmp_path, capsys, text):
        model = write(tmp_path, "m.json", demo("model_linear_avar.json"))
        base = write(tmp_path, "b.json", text)
        assert run_eval(model, base) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: bad measure")

    @pytest.mark.parametrize(
        "scheme, extra",
        [
            ('{"kind": "saa", "n_schedule": "abc", "seed": 0}', ()),
            ('{"kind": "saa", "n_schedule": [100], "seed": "x"}', ()),
            ('{"n_schedule": [100], "seed": 0}', ()),
            ('[1, 2', ()),
            ('{"kind": "saa", "n_schedule": [1e400, 2000], "seed": 0}', ()),
            (os.path.join(DEMO, "scheme_saa.json"), ("--seed", "-3")),
        ],
        ids=["schedule-text", "seed-text", "no-kind", "broken-json", "n-1e400", "seed-flag-negative"],
    )
    def test_malformed_scheme_is_a_config_error(self, tmp_path, capsys, scheme, extra):
        model = write(tmp_path, "m.json", demo("model_milp_expectation.json"))
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        argv = ["stability", "--model", model, "--measure", base, "--scheme", scheme,
                "--out", str(tmp_path / "out"), *extra]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error:") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, path, value, message",
        [
            ("base_measure.json", ("dim",), 1.9, "dim must be an integer, got 1.9"),
            ("base_measure.json", ("dim",), "1", "dim must be an integer, got '1'"),
            ("model.json", ("recourse", "n"), 1.9, "recourse n must be an integer, got 1.9"),
            ("model.json", ("recourse", "s"), 1.9, "recourse s must be an integer, got 1.9"),
            ("model.json", ("recourse", "m1"), 0.5, "recourse m1 must be an integer, got 0.5"),
            ("model.json", ("recourse", "m2"), "1", "recourse m2 must be an integer, got '1'"),
            ("model.json", ("recourse", "n"), True, "recourse n must be an integer, got True"),
            ("model.json", ("decisions",), {"box": {"lo": [0.0], "hi": [1.0], "counts": [4.5]}},
             "box counts must be an integer, got 4.5"),
            ("model.json", ("decisions",), {"box": {"lo": [0.0], "hi": [1.0], "counts": "5"}},
             "box counts must be an integer, got '5'"),
            ("scheme.json", ("seed",), 0.5, "seed must be an integer, got 0.5"),
            ("scheme.json", ("n_schedule",), [100.7, 1000],
             "n_schedule entry must be an integer, got 100.7"),
        ],
        ids=["dim-fraction", "dim-text", "n-fraction", "s-fraction", "m1-fraction", "m2-text",
             "n-bool", "counts-fraction", "counts-text", "seed-fraction", "n-schedule-fraction"],
    )
    def test_integer_fields_refuse_fractions(self, tmp_path, capsys, doc, path, value, message):
        docs = {"model.json": demo("model_milp_expectation.json"),
                "base_measure.json": demo("base_measure.json"),
                "scheme.json": demo("scheme_saa.json")}
        node = docs[doc]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        model, base, scheme = (write(tmp_path, name, data) for name, data in docs.items())
        argv = ["stability", "--model", model, "--measure", base, "--scheme", scheme,
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error:")
        assert message in out.err

    def test_integral_floats_are_integers(self, tmp_path, capsys):
        model = demo("model_milp_expectation.json")
        model["recourse"].update(n=1.0, s=1.0, m1=1.0, m2=1.0)
        model["decisions"] = {"box": {"lo": [0.0], "hi": [1.0], "counts": [5.0]}}
        base = demo("base_measure.json")
        base["dim"] = 1.0
        assert run_eval(write(tmp_path, "m.json", model), write(tmp_path, "b.json", base)) == 0
        reference = capsys.readouterr().out
        assert run_eval(write(tmp_path, "m.json", demo("model_milp_expectation.json")),
                        write(tmp_path, "b.json", demo("base_measure.json"))) == 0
        assert capsys.readouterr().out == reference

    def test_overflowing_total_weight_is_one_config_error(self, tmp_path, capsys):
        # two finite weights of 1e308 add up to inf, at one point or at two
        for second in (0.0, 1.0):
            heavy = write(tmp_path, "heavy.json", {"dim": 1, "atoms": [
                {"point": [0.0], "weight": 1e308}, {"point": [second], "weight": 1e308}]})
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main(["metrics", "--measure", heavy, "--measure2", heavy, "--kind", "bl"])
            assert code == cli.EXIT_CONFIG
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == (f"config error: bad measure in {heavy}: OutOfRange: "
                               "total weight is inf: not finite\n")

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

    def test_replayed_solver_error_names_its_row(self, tmp_path, capsys):
        # z = 1e308 leaves the branch and bound's QP without a KKT point; the
        # batch is replayed row by row and the failing row is named
        model = write(tmp_path, "m.json", demo("model_miqp_expectation.json"))
        far = {"dim": 1, "atoms": [{"point": [1e308], "weight": 0.5},
                                   {"point": [0.0], "weight": 0.5}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_eval(model, write(tmp_path, "b.json", far)) == cli.EXIT_MODEL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("model error: NumericalFailure: feasible convex QP without a detected"
                           " KKT point at x=[0.0], z=[1e+308]\n")

    @pytest.mark.parametrize("entry", ["q_map", "h_map"])
    def test_affine_map_width_is_a_config_error(self, tmp_path, capsys, entry):
        # n + s = 2 inputs (x, z), three columns
        data = demo("model_linear_avar.json")
        affine = data["recourse"][entry]["affine"]
        affine["matrix"] = [row + [0.5] for row in affine["matrix"]]
        model = write(tmp_path, "m.json", data)
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        assert run_eval(model, base) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"config error: bad model in {model}: DimMismatch: an affine map"
                           " does not have n + s = 2 columns\n")

    @pytest.mark.parametrize("entry", ["v", "h_map"])
    def test_expression_overflow_is_a_model_error(self, tmp_path, capsys, entry):
        # (1e200 y + 7)^2 on the integer box, or z^2 at an atom z = 1e200
        data = demo("model_convex_expectation.json")
        base = demo("base_measure.json")
        if entry == "v":
            data["recourse"]["v"] = ["pow", ["affine", [1e200], 7.0], 2]
            expr = "['pow', ['affine', [1e+200], 7.0], 2]"
        else:
            data["recourse"]["h_map"]["expr"] = [["pow", ["affine", [0.0, 1.0]], 2]]
            base = {"dim": 1, "atoms": [{"point": [1e200], "weight": 1.0}]}
            expr = "['pow', ['affine', [0.0, 1.0], 0.0], 2]"
        model = write(tmp_path, "m.json", data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_eval(model, write(tmp_path, "b.json", base)) == cli.EXIT_MODEL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"model error: OutOfRange: expression {expr} at y = [")
        # v overflows inside the solver, whose replayed error names the row
        tail = " at x=[0.0], z=[0.0]" if entry == "v" else ""
        assert out.err.endswith(f"is inf: not finite{tail}\n") and out.err.count("\n") == 1

    def test_json_deeper_than_the_recursion_limit_is_a_config_error(self, tmp_path, capsys):
        deep = "[" * 5000 + "]" * 5000
        model = write(tmp_path, "m.json", demo("model_milp_expectation.json"))
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        for argv in (["eval", "--model", write(tmp_path, "deep.json", deep), "--measure", base,
                      "--all"],
                     ["stability", "--model", model, "--measure", base, "--scheme", deep,
                      "--out", str(tmp_path / "out")]):
            assert cli.main(argv) == cli.EXIT_CONFIG
            out = capsys.readouterr()
            assert out.out == "" and out.err.startswith("config error:")
            assert out.err.count("\n") == 1 and "recursion" in out.err

    def test_out_on_an_existing_file_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output directory was made")

        monkeypatch.setattr(cli, "run_experiment", no_solve)
        model = write(tmp_path, "m.json", demo("model_milp_expectation.json"))
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        argv = ["stability", "--model", model, "--measure", base, "--out", base,
                "--scheme", os.path.join(DEMO, "scheme_saa.json")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("config error: cannot create the output directory: ")

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


class TestParserReuse:
    """main builds its parser once per process; the reused parser answers
    like a fresh one, also after a parse error."""

    def run(self, argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as err:
            code = err.code
        return code, capsys.readouterr().out

    def test_reused_parser_answers_like_a_fresh_one(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", demo("model_linear_avar.json"))
        base = write(tmp_path, "b.json", demo("base_measure.json"))
        calls = {
            "bad": ["eval", "--model", model, "--no-such-flag"],
            "eval": ["eval", "--model", model, "--measure", base, "--all"],
            "metrics": ["metrics", "--measure", base, "--measure2",
                        os.path.join(DEMO, "measure_dirac1.json"), "--kind", "bl"],
        }
        fresh = {}
        for name, argv in calls.items():
            cli.build_parser.cache_clear()
            fresh[name] = self.run(argv, capsys)
        assert [code for code, _ in fresh.values()] == [cli.EXIT_CONFIG, cli.EXIT_OK, cli.EXIT_OK]
        assert fresh["bad"][1] == "" and fresh["eval"][1] and fresh["metrics"][1]
        parser = cli.build_parser()
        for sequence in (["bad", "eval"], ["eval", "metrics"], ["bad", "metrics", "bad", "eval"]):
            for name in sequence:
                assert self.run(calls[name], capsys) == fresh[name], sequence
        assert cli.build_parser() is parser


class TestCertify:
    def certify(self, tmp_path, *extra):
        model = write(tmp_path, "m.json", demo("model_linear_avar.json"))
        return cli.main(["certify", "--model", model, "--zbox=-1:1", "--n", "20", *extra])

    @pytest.mark.parametrize(
        "extra, rule",
        [(("--xcount", "0"), "finite and >= 1"), (("--xcount", "-1"), "finite and >= 1"),
         (("--n", "0"), "finite and >= 1"),
         (("--seed", "-1"), "finite and nonnegative"), (("--gamma", "0"), "finite and positive"),
         (("--gamma", "-1"), "finite and positive"), (("--gamma", "inf"), "finite and positive")],
        ids=["xcount-0", "xcount-neg", "n-0", "seed-neg", "gamma-0", "gamma-neg", "gamma-inf"],
    )
    def test_bad_numeric_flags_are_config_errors(self, tmp_path, capsys, extra, rule):
        assert self.certify(tmp_path, *extra) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"config error: {extra[0]} must be {rule}")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("zbox", ["-1:inf", "-inf:1", "nan:1", "1:1", "-1e308:1e308"])
    def test_bad_zbox_is_a_config_error(self, tmp_path, capsys, zbox):
        assert self.certify(tmp_path, f"--zbox={zbox}") == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: --zbox")

    @pytest.mark.parametrize("xcount, expect", [(None, 5), (2, 2), (9, 5)])
    def test_xcount_takes_the_first_decisions(self, tmp_path, capsys, xcount, expect):
        extra = () if xcount is None else ("--xcount", str(xcount))
        assert self.certify(tmp_path, *extra) == cli.EXIT_OK
        cert = json.loads(capsys.readouterr().out)
        assert cert["decisions"] == [[0.25 * i] for i in range(expect)]
        assert cert["sample_count"] == 20


# --- CLI fuzz: one malformed edit of a demo document ------------------------

MODELS = sorted(f for f in os.listdir(DEMO) if f.startswith("model_"))
BASES = ["base_measure.json", "base_measure_strict.json"]
SCHEMES = ["scheme_contamination.json", "scheme_saa.json"]
# the documents each command reads
READS = {"eval": ("model", "measure"), "stability": ("model", "measure", "scheme"),
         "certify": ("model",), "metrics": ("measure",)}
NAN_MARK = "__NaN__"


def paths(node, prefix=()):
    """Every path to a value inside a JSON document (the root excluded)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def json_kind(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value)


@st.composite
def malformed_runs(draw):
    """A command, its documents, and one edit of one document: a dropped
    key, a value of another type, or a number made NaN, 1e400 or -1.  No
    edit makes a size larger."""
    command = draw(st.sampled_from(sorted(READS)))
    docs = {"model": draw(st.sampled_from(MODELS)), "measure": draw(st.sampled_from(BASES)),
            "scheme": draw(st.sampled_from(SCHEMES))}
    docs = {name: demo(file) for name, file in docs.items()}
    doc = docs[draw(st.sampled_from(READS[command]))]
    edit = draw(st.sampled_from(["drop", "retype", "number"]))
    where = list(paths(doc))
    if edit == "drop":
        where = [p for p in where if isinstance(p[-1], str)]
    elif edit == "number":
        where = [p for p in where if json_kind(get(doc, p)) == "number"]
    path = draw(st.sampled_from(where))
    parent = get(doc, path[:-1])
    if edit == "drop":
        del parent[path[-1]]
    elif edit == "number":
        parent[path[-1]] = draw(st.sampled_from([math.nan, 1e400, -1]))
    else:
        old = json_kind(parent[path[-1]])
        others = [v for v in ("x", 1.0, [], {}, None, True) if json_kind(v) != old]
        parent[path[-1]] = draw(st.sampled_from(others))
    return command, docs


def strict_json(text):
    """Parse JSON, failing on +-Infinity and marking NaN with NAN_MARK."""
    def constant(name):
        assert name == "NaN", f"{name} in the output"
        return NAN_MARK

    return json.loads(text, parse_constant=constant)


class TestFuzz:
    """Malformed documents end in a documented exit code with strict JSON
    output, never a traceback, a RuntimeWarning or a non-finite report
    value outside a failed row's value columns."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(run=malformed_runs())
    def test_malformed_documents(self, run):
        command, docs = run
        with tempfile.TemporaryDirectory() as tmp:
            files = {}
            for name, data in docs.items():
                files[name] = os.path.join(tmp, f"{name}.json")
                with open(files[name], "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
            out_dir = os.path.join(tmp, "out")
            model, measure = files["model"], files["measure"]
            argv = {
                "eval": ["eval", "--model", model, "--measure", measure, "--all"],
                "stability": ["stability", "--model", model, "--measure", measure,
                              "--scheme", files["scheme"], "--out", out_dir, "--gate", "d_bl:1.5"],
                "certify": ["certify", "--model", model, "--zbox=-1:2", "--n", "20"],
                "metrics": ["metrics", "--measure", measure, "--kind", "psi", "--q", "2",
                            "--measure2", os.path.join(DEMO, "measure_dirac1.json")],
            }[command]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_MODEL, cli.EXIT_GATE)
            assert "Traceback" not in stderr.getvalue()
            if code in (cli.EXIT_OK, cli.EXIT_GATE):
                assert NAN_MARK not in json.dumps(strict_json(stdout.getvalue()))
            else:
                assert stdout.getvalue() == ""
            report = os.path.join(out_dir, "report.json")
            if command == "stability" and os.path.exists(report):
                with open(report, encoding="utf-8") as fh:
                    doc = strict_json(fh.read())
                for row in doc.pop("rows"):
                    marked = [i for i, v in enumerate(row) if v == NAN_MARK]
                    assert not marked or (row[-1] and set(marked) <= {2, 3, 4, 5, 6}), row
                assert NAN_MARK not in json.dumps(doc)


SRC = os.path.dirname(os.path.dirname(cli.__file__))
# runs the CLI on its arguments, then reports on stderr whether scipy was imported
PROBE = ("import sys; from meanrisk import cli; code = cli.main(sys.argv[1:]); "
         "print('scipy' in sys.modules, file=sys.stderr); sys.exit(code)")


def fresh_python(*args):
    """A fresh interpreter on args, importing meanrisk from this checkout."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


class TestFreshProcess:
    """CLI runs in a fresh interpreter: numpy warnings as errors, and scipy
    imported only where HiGHS or a sparse transport LP runs."""

    def test_far_atoms_bl_under_warnings_as_errors(self, tmp_path):
        # gaps between atoms at +-1e308 overflow to inf: every pair is more
        # than 2 apart, so BL is the total variation 2
        far = write(tmp_path, "far.json", {"dim": 1, "atoms": [
            {"point": [1e308], "weight": 0.5}, {"point": [-1e308], "weight": 0.5}]})
        dirac = os.path.join(DEMO, "measure_dirac1.json")
        run = fresh_python("-W", "error::RuntimeWarning", "-m", "meanrisk.cli", "metrics",
                           "--measure", far, "--measure2", dirac, "--kind", "bl")
        assert (run.returncode, run.stdout, run.stderr) == (cli.EXIT_OK, "2.0\n", "")

    @pytest.mark.parametrize("argv", [
        pytest.param(["eval", "--model", os.path.join(DEMO, name), "--measure",
                      os.path.join(DEMO, "base_measure.json"), "--all"], id=f"eval-{name[6:-5]}")
        for name in sorted(f for f in os.listdir(DEMO) if f.startswith("model_"))
    ] + [
        pytest.param(["metrics", "--measure", os.path.join(DEMO, "base_measure.json"),
                      "--measure2", os.path.join(DEMO, "base_measure_strict.json"), "--kind", "bl"],
                     id="metrics-bl"),
        pytest.param(["stability", "--model", os.path.join(DEMO, "model_milp_expectation.json"),
                      "--measure", os.path.join(DEMO, "base_measure.json"),
                      "--scheme", os.path.join(DEMO, "scheme_saa.json")], id="stability-saa"),
    ])
    def test_one_dimensional_runs_leave_scipy_unimported(self, argv, tmp_path):
        if argv[0] == "stability":
            argv = argv + ["--out", str(tmp_path / "out")]
        run = fresh_python("-c", PROBE, *argv)
        assert run.returncode == cli.EXIT_OK, run.stderr
        assert run.stderr == "False\n"

    def test_two_dimensional_wasserstein_imports_highs(self, tmp_path):
        mu = write(tmp_path, "mu.json", {"dim": 2, "atoms": [
            {"point": [0.0, 0.0], "weight": 0.5}, {"point": [1.0, 2.0], "weight": 0.25},
            {"point": [-1.0, 0.5], "weight": 0.25}]})
        nu = write(tmp_path, "nu.json", {"dim": 2, "atoms": [
            {"point": [0.5, -0.5], "weight": 0.6}, {"point": [2.0, 1.0], "weight": 0.4}]})
        run = fresh_python("-c", PROBE, "metrics", "--measure", mu, "--measure2", nu,
                           "--kind", "wasserstein", "--q", "2")
        assert (run.returncode, run.stdout, run.stderr) == (cli.EXIT_OK, "1.4958275301651591\n",
                                                            "True\n")
