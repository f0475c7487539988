import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import transduct
from transduct import KnnConfig, RunConfig, cli
from transduct.backends import prompt_hash
from transduct.cli import build_parser, main
from transduct.core import load_dataset
from transduct.prompt import SerializationConfig, build_bundle
from transduct.selection import build_plan

DATA_CSV = """f0,f1,label,split
0.9,0.1,0,val
0.1,0.9,1,val
0.5,0.5,0,val
0.8,0.2,0,val
0.7,0.3,0,test
0.2,0.8,1,test
"""


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text(DATA_CSV)
    return str(p)


class TestGenToy:
    def test_writes_canonical_csv(self, tmp_path, capsys):
        out = tmp_path / "moons.csv"
        rc = main(["gen-toy", "--dataset", "moons", "--n", "200", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == ["f0", "f1", "f2", "label", "split"]
        assert len(body) == 200
        labels = [int(r[-2]) for r in body]
        assert labels.count(0) == labels.count(1) == 100
        splits = [r[-1] for r in body]
        assert splits.count("val") == splits.count("test") == 100
        assert "wrote 200 rows" in capsys.readouterr().out

    def test_seeded_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["gen-toy", "--dataset", "circles", "--n", "60", "--seed", "3", "--out", str(out)])
        assert a.read_text() == b.read_text()

    def test_no_equalize_flag(self, tmp_path):
        out = tmp_path / "flat.csv"
        main(["gen-toy", "--dataset", "moons", "--n", "20", "--no-equalize-norms", "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == "f0,f1,label,split"


    def test_json_out_is_read_back_by_plan_and_evaluate(self, tmp_path, capsys):
        out = tmp_path / "toy.json"
        assert main(["gen-toy", "--dataset", "moons", "--n", "40", "--no-equalize-norms", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["class_count"] == 2
        assert main(["plan", "--data", str(out)]) == 0
        argv = ["evaluate", "--use-case", "accuracy_improvement", "--method", "knn", "--data", str(out)]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err


class TestPlan:
    def test_plan_json(self, data_file, tmp_path):
        out = tmp_path / "plan.json"
        rc = main(["plan", "--data", data_file, "--ratio", "0.5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 2
        assert len(payload["ordered_indices"]) == 2
        assert len(payload["rep_scores"]) == 4

    # rows mirrored about the diagonal score equal up to rounding, so the plan
    # re-sums them; rows repeat, within a class and across the two
    SELF_CONSISTENT = {
        "mirrored-and-repeated": [([0.9, 0.1], 0), ([0.1, 0.9], 1), ([0.9, 0.1], 1), ([0.7, 0.3], 0),
                                  ([0.3, 0.7], 1), ([0.1, 0.9], 0), ([0.2, 0.8], 1), ([0.8, 0.2], 0)],
        "m=2": [([0.2, 0.8], 1), ([0.8, 0.2], 0)],
    }

    @pytest.mark.parametrize("interleave", [False, True])
    @pytest.mark.parametrize("ratio", ["0.5", "1.0"])
    @pytest.mark.parametrize("rows", list(SELF_CONSISTENT))
    def test_plan_json_orders_its_own_scores(self, tmp_path, capsys, rows, ratio, interleave):
        # rep_scores and ordered_indices come from two calls: reversed, the indices are the top k
        # by descending score then ascending index, per class and joined round-robin when interleaved
        reference = self.SELF_CONSISTENT[rows]
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,label,split\n" + "".join(f"{x},{y},{c},val\n" for (x, y), c in reference) + "0.5,0.5,,test\n")
        assert main(["plan", "--data", str(data), "--ratio", ratio, "--interleave" if interleave else "--no-interleave"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rep, labels = payload["rep_scores"], [c for _, c in reference]
        ranked = sorted(range(len(rep)), key=lambda i: (-rep[i], i))
        if interleave:
            per_class = [[i for i in ranked if labels[i] == c] for c in sorted(set(labels))]
            ranked = [ranking[r] for r in range(len(rep)) for ranking in per_class if r < len(ranking)]
        assert payload["k"] == len(payload["ordered_indices"]) == max(1, int(float(ratio) * len(rep)))
        assert payload["ordered_indices"][::-1] == ranked[: payload["k"]]

    def test_plan_to_stdout(self, data_file, capsys):
        rc = main(["plan", "--data", data_file])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 1


class TestPrompt:
    def test_prompt_to_stdout(self, data_file, capsys):
        rc = main(["prompt", "--data", data_file, "--ratio", "0.5", "--test-index", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[-1] == "[0.70, 0.30] is in class"
        assert all(" is in class" in line for line in lines)

    def test_prompt_to_dir(self, data_file, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        rc = main(["prompt", "--data", data_file, "--out-dir", str(out_dir)])
        assert rc == 0
        part1 = (out_dir / "part1.txt").read_text()
        part2 = (out_dir / "part2.txt").read_text()
        assert part1.endswith("\n") and part2.endswith("\n")
        assert part2 == "[0.70, 0.30] is in class\n"

class TestInfer:
    def test_local_backend_jsonl(self, data_file, tmp_path):
        out = tmp_path / "preds.jsonl"
        rc = main(
            ["infer", "--data", data_file, "--backend", "local", "--ratio", "1.0", "--out", str(out)]
        )
        assert rc == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2
        assert [r["label"] for r in records] == [0, 1]
        assert all(r["fallback"] is False for r in records)
        assert all(r["backend_id"] == "local-attention" for r in records)

    def test_mock_default_backend(self, data_file, capsys):
        rc = main(
            ["infer", "--data", data_file, "--backend", "mock", "--mock-default", " 1"]
        )
        assert rc == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["label"] for r in records] == [1, 1]


def infer_records(data_file, tmp_path, *flags):
    out = tmp_path / "preds.jsonl"
    rc = main(["infer", "--data", data_file, "--ratio", "0.5", "--out", str(out), *flags])
    return rc, [json.loads(line) for line in out.read_text().splitlines()]


class TestInferRecords:
    """Each record holds Part 2 and the SHA-256 of Part 1; only the first
    holds the Part 1 text, and records reach --out one by one."""

    @pytest.mark.parametrize(
        "flags", [["--backend", "local"], ["--backend", "mock", "--mock-default", " 1"]],
        ids=["local", "mock"],
    )
    def test_part1_written_once(self, data_file, tmp_path, flags):
        rc, records = infer_records(data_file, tmp_path, *flags)
        assert rc == 0
        ds = load_dataset(data_file)
        plan = build_plan(ds.reference, 0.5, True)
        part1 = records[0]["part1"]
        assert [r["index"] for r in records] == [0, 1]
        for r, f in zip(records, ds.test_features):
            assert part1 + r["part2"] == build_bundle(ds.reference, f, plan, SerializationConfig()).prompt
            assert r["part1_sha256"] == prompt_hash(part1)
            assert set(r) >= {"label", "fallback", "completions", "backend_id", "token_estimate"}
            assert "prompt" not in r
        assert all("part1" not in r for r in records[1:])

    def test_records_before_an_error_stay_in_out(self, data_file, tmp_path, capsys):
        ds = load_dataset(data_file)
        plan = build_plan(ds.reference, 0.5, True)
        first = build_bundle(ds.reference, ds.test_features[0], plan, SerializationConfig()).prompt
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({prompt_hash(first): " 0"}))
        rc, records = infer_records(data_file, tmp_path, "--backend", "mock", "--mock-fixtures", str(fixtures))
        assert rc == 2
        assert "error: no mock fixture" in capsys.readouterr().err
        assert [(r["index"], r["label"]) for r in records] == [(0, 0)]

    @pytest.mark.parametrize("flags, code", [
        (["--backend", "local", "--ratio", "0"], 1),  # a setting refused by the first record's checks
        (["--backend", "mock"], 2),  # no fixture for the first prompt
    ], ids=["local-ratio-0", "mock-no-fixture"])
    def test_a_run_refused_before_its_first_record_leaves_out_as_it_was(self, data_file, tmp_path, capsys, flags, code):
        out = tmp_path / "preds.jsonl"
        out.write_text('{"index": 0, "label": 1}\n')
        assert main(["infer", "--data", data_file, "--out", str(out), *flags]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == '{"index": 0, "label": 1}\n'

class TestEvaluate:
    def test_error_detection_local(self, data_file, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "evaluate", "--data", data_file, "--probability",
                "--use-case", "error_detection", "--backend", "local",
                "--ratio", "1.0", "--report", str(report_path),
            ]
        )
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["use_case"] == "error_detection"
        report = payload["report"]
        assert report["n_test"] == 2
        assert sum(sum(row) for row in report["confusion"]) == 2
        assert 0.0 <= report["balanced_accuracy"] <= 1.0

    def test_accuracy_improvement_includes_base(self, data_file, capsys):
        rc = main(
            [
                "evaluate", "--data", data_file, "--use-case", "accuracy_improvement",
                "--backend", "local", "--ratio", "1.0",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "base_classifier" in payload
        # both test rows have argmax equal to their label
        assert payload["base_classifier"]["balanced_accuracy"] == 1.0

    def test_knn_method(self, data_file, capsys):
        rc = main(
            [
                "evaluate", "--data", data_file, "--use-case", "error_detection",
                "--method", "knn", "--k", "1",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "knn"

    def test_run_config_defaults_are_the_flag_defaults(self):
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        evaluate, cfg = commands["evaluate"], RunConfig()
        assert (cfg.bags, cfg.seed) == (evaluate.get_default("bags"), evaluate.get_default("seed"))
        assert cfg.knn == KnnConfig(evaluate.get_default("k"), evaluate.get_default("metric"))

    def test_determinism(self, data_file, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            main(
                [
                    "evaluate", "--data", data_file, "--use-case", "error_detection",
                    "--backend", "local", "--report", str(path),
                ]
            )
            outs.append(path.read_text())
        assert outs[0] == outs[1]


class TestSeparateSplitFiles:
    def test_val_and_test_files(self, tmp_path, capsys):
        val = tmp_path / "val.csv"
        val.write_text("f0,f1,label\n0.9,0.1,0\n0.1,0.9,1\n")
        test = tmp_path / "test.csv"
        test.write_text("f0,f1,label\n0.8,0.2,0\n")
        rc = main(["plan", "--val", str(val), "--test", str(test), "--ratio", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2

    VAL = "f0,f1,f2,label\n0.7,0.2,0.1,0\n0.2,0.7,0.1,1\n0.6,0.3,0.1,0\n0.1,0.8,0.1,1\n"

    def evaluate(self, tmp_path, test_rows, *extra):
        val, test = tmp_path / "val.csv", tmp_path / "test.csv"
        val.write_text(self.VAL)
        test.write_text("f0,f1,f2,label\n" + test_rows)
        report = tmp_path / "report.json"
        rc = main([
            "evaluate", "--val", str(val), "--test", str(test), "--use-case",
            "accuracy_improvement", "--method", "knn", "--k", "1", "--report", str(report), *extra,
        ])
        return rc, json.loads(report.read_text()) if rc == 0 else None

    def test_class_count_given(self, tmp_path):
        rc, payload = self.evaluate(tmp_path, "0.8,0.1,0.1,0\n0.1,0.8,0.1,1\n", "--class-count", "3")
        assert rc == 0
        assert len(payload["report"]["confusion"]) == 3

    def test_class_count_counts_labels_only_in_the_test_file(self, tmp_path):
        rc, payload = self.evaluate(tmp_path, "0.8,0.1,0.1,0\n0.1,0.2,0.7,2\n")
        assert rc == 0
        assert payload["report"]["confusion"] == [[1, 0, 0], [0, 0, 0], [0, 1, 0]]

    def test_same_report_as_one_file_with_a_split_column(self, tmp_path, data_file):
        rows = DATA_CSV.splitlines()[1:]
        val, test = tmp_path / "val.csv", tmp_path / "test.csv"
        val.write_text("f0,f1,label\n" + "".join(r[: -len(",val")] + "\n" for r in rows if r.endswith("val")))
        test.write_text("f0,f1,label\n" + "".join(r[: -len(",test")] + "\n" for r in rows if r.endswith("test")))
        reports = []
        for data in (["--data", data_file], ["--val", str(val), "--test", str(test)]):
            out = tmp_path / "r.json"
            assert main(["evaluate", *data, "--use-case", "error_detection", "--report", str(out)]) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

class TestConfigAndErrors:
    def test_config_file_defaults(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ratio": 0.5}))
        rc = main(["--config", str(cfg), "plan", "--data", data_file])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["k"] == 2

    def test_explicit_flag_beats_config(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ratio": 0.5}))
        rc = main(["--config", str(cfg), "plan", "--data", data_file, "--ratio", "1.0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["k"] == 4

    @pytest.mark.parametrize("flag", ["--config", "--conf", "--c"])  # argparse takes a prefix of a flag too
    def test_config_file_named_as_a_command(self, data_file, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "infer").write_text(json.dumps({"ratio": 0.5}))
        assert main([flag, "infer", "plan", "--data", data_file]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 2

    def test_a_command_the_scan_misses_is_parsed_by_the_whole_parser(self, data_file, capsys, monkeypatch):
        # main builds the flags of the command it finds in argv; were argparse to choose another, it builds them all
        monkeypatch.setattr(cli, "_named_command", lambda argv: "infer")
        assert main(["plan", "--data", data_file, "--ratio", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 2
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--data", data_file, "--bogus"])
        assert exc.value.code == 2 and capsys.readouterr().err.endswith("error: unrecognized arguments: --bogus\n")

    def test_remote_html_error_page_exit_code(self, data_file, capsys, monkeypatch):
        import requests

        class HtmlPage:
            status_code = 404
            content = b"<html>Not Found</html>"

            def json(self):
                raise requests.JSONDecodeError("Expecting value", "<html>", 0)

        monkeypatch.setattr(requests, "post", lambda *a, **kw: HtmlPage())
        monkeypatch.setenv("TRANSDUCT_TEST_KEY", "sk-test")
        rc = main(
            [
                "infer", "--data", data_file, "--backend", "remote",
                "--endpoint", "https://api.example.test/v1/completions",
                "--api-key-env", "TRANSDUCT_TEST_KEY",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "HTTP status 404" in err and "Traceback" not in err

    def test_config_false_switch_is_the_no_flag_and_flags_still_win(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"interleave": False, "class_count": None}))
        plans = []
        for argv in (["--config", str(cfg), "plan"], ["plan", "--no-interleave"],
                     ["--config", str(cfg), "plan", "--interleave"], ["plan"]):
            assert main([*argv, "--data", data_file, "--ratio", "0.75"]) == 0
            plans.append(json.loads(capsys.readouterr().out)["ordered_indices"])
        assert plans[0] == plans[1] != plans[2] == plans[3]

def test_import_does_not_load_openssl():
    # hashlib loads OpenSSL (about 3.6 MB of RSS); only infer and the mock backend hash
    # prompts. numpy 1.x loads it itself (numpy.random imports secrets), so only what
    # transduct adds over numpy counts.
    code = (
        "import sys, numpy; before = set(sys.modules); import transduct.cli; "
        "print(sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(transduct.__file__).parents[1])}  # this copy of the package
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


class TestOracleCheck:
    def test_every_suite_agrees(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--trials", "50", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        nn, setup, clustering = report["nn_limit"], report["setup_equivalence"], report["clustering"]
        assert nn["agreements"] == nn["trials"] == 50
        assert setup["argmax_agreements"] == setup["trials"] == 50
        assert setup["max_elementwise_diff"] < 1e-9
        assert clustering["separated"] == clustering["trials"]
        assert "-1" not in clustering["converged_at_histogram"]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "transduct" in capsys.readouterr().out


# The CLI's flags, in --help order, with their defaults: the surface a rebuild of the parser keeps.
DATA_FLAGS = [("--data", None), ("--val", None), ("--test", None), ("--probability", False), ("--class-count", None)]
SELECTION_FLAGS = [
    ("--ratio", 0.25), ("--interleave", True), ("--no-interleave", True), ("--decimals", 2), ("--token-budget", 4000),
]
BACKEND_FLAGS = [
    ("--backend", "local"), ("--endpoint", None), ("--model", "text-davinci-003"), ("--api-key-env", "OPENAI_API_KEY"),
    ("--rpm", 60), ("--budget", 500), ("--max-attempts", 3), ("--base-backoff-ms", 500), ("--s", 1e-6),
    ("--mock-fixtures", None), ("--mock-default", None),
]
SURFACE = {
    "plan": DATA_FLAGS + SELECTION_FLAGS + [("--out", "-")],
    "prompt": DATA_FLAGS + SELECTION_FLAGS + [("--test-index", 0), ("--out-dir", None)],
    "infer": DATA_FLAGS + SELECTION_FLAGS + BACKEND_FLAGS + [("--out", "-")],
    "evaluate": DATA_FLAGS + SELECTION_FLAGS + BACKEND_FLAGS + [
        ("--use-case", None), ("--method", "prompt"), ("--positive-class", 1), ("--k", 5), ("--metric", "cosine"),
        ("--bags", 11), ("--seed", 0), ("--report", "-"),
    ],
    "oracle-check": [("--trials", 1000), ("--s", 1e-6), ("--seed", 0), ("--out", "-")],
    "gen-toy": [
        ("--dataset", None), ("--n", 200), ("--noise", 0.05), ("--seed", 0), ("--reference-fraction", 0.5),
        ("--no-equalize-norms", False), ("--out", None),
    ],
}
REQUIRED = {"evaluate": ["--use-case"], "gen-toy": ["--dataset", "--out"]}
SUBCOMMAND_HELP = {
    "plan": "emit the selection plan as JSON",
    "prompt": "render the two-part prompt for one test sample",
    "infer": "classify every test sample, JSONL with audit records",
    "evaluate": "run a use-case pipeline and report metrics",
    "oracle-check": "run the attention property suites",
    "gen-toy": "generate a seeded toy dataset CSV",
}


def help_text(capsys, monkeypatch, columns, *command):
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def listed_flags(text):
    """The flags of the help's option list, in order."""
    return re.findall(r"^  (-h, --help|--[\w-]+)", text, re.MULTILINE)


class TestSurface:
    def test_each_subcommand_takes_its_flags_in_order_with_their_defaults(self):
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(commands) == list(SURFACE)
        for name, sub in commands.items():
            flags = [a for a in sub._actions if a.dest != "help"]
            assert [(a.option_strings[0], a.default) for a in flags] == SURFACE[name], name
            assert [a.option_strings[0] for a in flags if a.required] == REQUIRED.get(name, []), name

    @pytest.mark.parametrize("name", [*SURFACE, "", "bogus"])
    def test_a_parser_built_for_one_command_adds_its_flags_alone(self, name, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        whole, one = build_parser(), build_parser(name)
        assert one.format_help() == whole.format_help()  # every subcommand named, with its help
        (commands,) = [a.choices for a in one._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(commands) == list(SURFACE) == list(cli._COMMANDS)  # the names main looks for in argv
        for command, sub in commands.items():
            flags = [a.option_strings[0] for a in sub._actions]
            assert flags == (["-h"] + [flag for flag, _ in SURFACE[command]] if command == name else []), command

    def test_top_level_help_lists_the_subcommands(self, capsys, monkeypatch):
        text = help_text(capsys, monkeypatch, 80)
        assert text.startswith("usage: transduct [-h] [--version] [--config CONFIG]\n")
        assert "  {plan,prompt,infer,evaluate,oracle-check,gen-toy}\n" in text
        assert re.findall(r"^    ([\w-]+) +(.+)$", text, re.MULTILINE) == list(SUBCOMMAND_HELP.items())
        assert listed_flags(text) == ["-h, --help", "--version", "--config"]

    @pytest.mark.parametrize("name", SURFACE)
    def test_subcommand_help_lists_its_flags_at_the_terminal_width(self, name, capsys, monkeypatch):
        text = help_text(capsys, monkeypatch, 80, name)
        assert text.startswith(f"usage: transduct {name} [-h]")
        assert listed_flags(text) == ["-h, --help"] + [flag for flag, _ in SURFACE[name]]
        assert max(map(len, text.splitlines())) <= 78  # argparse wraps at COLUMNS - 2
        wide = help_text(capsys, monkeypatch, 200, name)
        assert listed_flags(wide) == listed_flags(text) and len(wide.splitlines()) < len(text.splitlines())
