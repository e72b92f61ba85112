"""Command-line behavior: exit codes, file products, output shapes."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crowdseq
from corpus import make_gold
from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    build_model,
    load_annotators,
    load_conll,
    load_crowd,
    load_tokens,
    save_config,
    save_conll,
    sample_init_params,
    save_crowd,
    save_model,
)
from crowdseq import crf, em
from crowdseq.cli import build_parser, main
from crowdseq.crf import load_model


def optimizer_modules_after(argv, cwd):
    """The sorted list of scipy.optimize and scipy.sparse, as printed, that a
    fresh interpreter holds after ``main(argv)`` succeeded in ``cwd``."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(crowdseq.__file__).parents[1])!r})\n"
        "from crowdseq.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def tiny_model(tmp_path):
    """A zero-weight model over a few sentences, and those sentences as a tag file."""
    gold = make_gold(3, seed=2)
    model_path, tokens_path = tmp_path / "model.tsv", tmp_path / "tokens.tsv"
    save_model(build_model(gold.scheme, [inst.tokens for inst in gold.instances]), model_path)
    save_conll(tokens_path, gold)
    return model_path, tokens_path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "gold": root / "gold.tsv",
        "crowd": root / "crowd.tsv",
        "mv": root / "mv.tsv",
        "ds": root / "ds.tsv",
        "saslc": root / "saslc.tsv",
        "model": root / "model.tsv",
        "annotators": root / "annotators.tsv",
        "history": root / "history.txt",
        "decoded": root / "decoded.tsv",
    }
    save_conll(paths["gold"], make_gold(10, seed=5))
    fast = [
        "--max-iters", "2", "--init-max-iter", "10", "--inner-max-iter", "4",
    ]
    assert main([
        "simulate", str(paths["gold"]), "--out", str(paths["crowd"]),
        "--seed", "5", "--annotators", "3",
        "--target-precision", "0.8", "--precision-spread", "0.05",
    ]) == 0
    assert main(["aggregate", str(paths["crowd"]), "--method", "mv", "--out", str(paths["mv"])]) == 0
    assert main(["aggregate", str(paths["crowd"]), "--method", "ds", "--out", str(paths["ds"])]) == 0
    assert main([
        "aggregate", str(paths["crowd"]), "--method", "saslc",
        "--out", str(paths["saslc"]), "--seed", "5", *fast,
    ]) == 0
    assert main([
        "train", str(paths["crowd"]), "--model-out", str(paths["model"]),
        "--annotators-out", str(paths["annotators"]),
        "--history-file", str(paths["history"]), "--seed", "5", *fast,
    ]) == 0
    assert main([
        "decode", str(paths["model"]), str(paths["gold"]), "--out", str(paths["decoded"]),
    ]) == 0
    return paths


class TestExitCodes:
    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "aggregate"])
    def test_an_instance_with_no_possible_path_exits_2(self, pipeline, tmp_path, monkeypatch, capsys, command):
        def never_o_after_a_label(roster, n_labels, seed):
            params = sample_init_params(roster, n_labels, seed)
            params.local[:, :n_labels, :, 0] = 0.0
            params.local /= params.local.sum(axis=3, keepdims=True)
            return params

        monkeypatch.setattr(em, "sample_init_params", never_o_after_a_label)
        outputs = {
            "train": ["--model-out", str(tmp_path / "m"), "--annotators-out", str(tmp_path / "a")],
            "aggregate": ["--method", "saslc", "--out", str(tmp_path / "agg")],
        }
        argv = [command, str(pipeline["crowd"]), *outputs[command], "--seed", "5", "--smoothing", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: instance \d+ has no finite-scoring path\n", err)
        assert not any(tmp_path.iterdir())

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["simulate", "--help"]) == 0
        capsys.readouterr()

    def test_stochastic_commands_demand_a_seed(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        save_conll(gold, make_gold(2, seed=1))
        assert main(["simulate", str(gold), "--out", str(tmp_path / "c.tsv")]) == 1
        assert "--seed is required to simulate annotators" in capsys.readouterr().err

    @pytest.mark.parametrize("spread", ["nan", "inf", "-inf"])
    def test_simulate_rejects_a_non_finite_precision_spread(self, tmp_path, capsys, spread):
        gold = tmp_path / "gold.tsv"
        save_conll(gold, make_gold(2, seed=1))
        argv = ["simulate", str(gold), "--out", str(tmp_path / "c.tsv"), "--seed", "1", f"--precision-spread={spread}"]
        assert main(argv) == 2
        assert "precision_spread must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "c.tsv").exists()

    def test_saslc_demands_a_seed(self, pipeline, capsys):
        code = main([
            "aggregate", str(pipeline["crowd"]), "--method", "saslc",
            "--out", "/tmp/unused.tsv",
        ])
        assert code == 1
        assert "--seed is required for --method saslc" in capsys.readouterr().err

    def test_train_demands_a_seed(self, pipeline, capsys):
        code = main([
            "train", str(pipeline["crowd"]), "--model-out", "/tmp/m.tsv",
            "--annotators-out", "/tmp/a.tsv",
        ])
        assert code == 1
        assert "--seed is required" in capsys.readouterr().err

    def test_train_rejects_a_nan_smoothing(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model.tsv"
        code = main([
            "train", str(pipeline["crowd"]), "--model-out", str(model),
            "--annotators-out", str(tmp_path / "annotators.tsv"), "--seed", "5",
            "--smoothing", "nan",
        ])
        assert code == 2
        assert "smoothing must be finite and nonnegative" in capsys.readouterr().err
        assert not model.exists()

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "no.tsv"), str(tmp_path / "no.tsv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_file_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("Anna\tB-PER\tO\n", encoding="utf-8")
        assert main(["evaluate", str(bad), str(bad)]) == 2
        assert "expected 2 tab-separated fields" in capsys.readouterr().err

    def test_sequence_count_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("x\tO\n", encoding="utf-8")
        b.write_text("x\tO\n\ny\tO\n", encoding="utf-8")
        assert main(["evaluate", str(a), str(b)]) == 2
        assert "sequence count mismatch" in capsys.readouterr().err

    def test_train_accepts_a_long_unanimous_sentence(self, tmp_path, capsys):
        gold = make_gold(4, seed=3)
        roster = ("a0", "a1", "a2")
        n = 1500
        long = CrowdInstance(tuple(f"w{j % 40}" for j in range(n)), {a: (0,) * n for a in roster})
        instances = [CrowdInstance(i.tokens, {a: i.gold for a in roster}) for i in gold.instances]
        crowd = tmp_path / "crowd.tsv"
        save_crowd(crowd, CrowdDataset(gold.scheme, (*instances, long), roster))
        code = main([
            "train", str(crowd), "--model-out", str(tmp_path / "model.tsv"),
            "--annotators-out", str(tmp_path / "annotators.tsv"), "--seed", "3",
            "--max-iters", "1", "--init-max-iter", "3", "--inner-max-iter", "3",
        ])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--normalize-consistency"]], ids=["plain", "normalized"])
    def test_train_accepts_a_single_annotator(self, tmp_path, capsys, flags):
        gold = make_gold(6, seed=4)
        instances = [CrowdInstance(i.tokens, {"solo": i.gold}) for i in gold.instances]
        crowd = tmp_path / "crowd.tsv"
        save_crowd(crowd, CrowdDataset(gold.scheme, tuple(instances), ("solo",)))
        code = main([
            "train", str(crowd), "--model-out", str(tmp_path / "model.tsv"),
            "--annotators-out", str(tmp_path / "annotators.tsv"), "--seed", "4",
            "--max-iters", "1", "--init-max-iter", "3", "--inner-max-iter", "3", *flags,
        ])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "Traceback" not in err

    def test_decode_rejects_a_duplicated_observation(self, tmp_path, capsys):
        model_path, tokens_path = tiny_model(tmp_path)
        lines = model_path.read_text(encoding="utf-8").splitlines()
        m = len(lines[2].split("\t")) - 1  # labels
        first = lines[5].split("\t")[0]
        for i in range(5 + m, 5 + 2 * m):  # the second block takes the first one's name
            lines[i] = first + "\t" + lines[i].split("\t", 1)[1]
        model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["decode", str(model_path), str(tokens_path), "--out", str(tmp_path / "out.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}, line {6 + m}: duplicate observation")
        assert "Traceback" not in err

    def test_decode_never_imports_the_optimizer(self, tmp_path):
        model_path, tokens_path = tiny_model(tmp_path)
        assert optimizer_modules_after(["decode", str(model_path), str(tokens_path), "--out", "out.tsv"], tmp_path) == "[]"
        assert load_tokens(tmp_path / "out.tsv") == load_tokens(tokens_path)

    @pytest.mark.parametrize("command", ["train", "aggregate"])
    def test_training_never_imports_the_optimizer(self, command, pipeline, tmp_path):
        outputs = {
            "train": ["--model-out", "model.tsv", "--annotators-out", "annotators.tsv"],
            "aggregate": ["--method", "saslc", "--out", "aggregated.tsv"],
        }[command]
        fast = ["--seed", "5", "--max-iters", "1", "--init-max-iter", "3", "--inner-max-iter", "2"]
        assert optimizer_modules_after([command, str(pipeline["crowd"]), *outputs, *fast], tmp_path) == "[]"

    def test_training_without_the_lbfgsb_routine_exits_2(self, pipeline, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(crf, "_lbfgsb_location", lambda: str(tmp_path / "missing" / "_lbfgsb.so"))
        monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
        code = main([
            "train", str(pipeline["crowd"]), "--model-out", str(tmp_path / "model.tsv"),
            "--annotators-out", str(tmp_path / "annotators.tsv"), "--seed", "5", "--max-iters", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training needs scipy >= 1.17 for its compiled L-BFGS-B routine")
        assert "Traceback" not in err

    def test_lattice_index_out_of_range(self, pipeline, capsys):
        assert main(["inspect-lattice", str(pipeline["crowd"]), "--instance", "99"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_unknown_report_filters(self, pipeline, capsys):
        assert main(["report-annotators", str(pipeline["annotators"]), "--context", "B-GPE"]) == 2
        assert "unknown context label" in capsys.readouterr().err
        assert main(["report-annotators", str(pipeline["annotators"]), "--truth", "nope"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("module", ["crowdseq", "crowdseq.cli"])
    def test_module_entry_points(self, module, pipeline, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(crowdseq.__file__).parents[1])}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", module, *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )

        proc = run("evaluate", str(pipeline["gold"]), str(pipeline["gold"]))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split("\t")[:3] == ["1.0", "1.0", "1.0"]
        proc = run("evaluate", "missing.tsv", "missing.tsv")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")

    def test_annotator_file_with_only_its_magic_line(self, tmp_path, capsys):
        path = tmp_path / "annotators.txt"
        path.write_text("crowdseq-annotators v1\n", encoding="utf-8")
        assert main(["report-annotators", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: truncated header")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "old, new, why",
        [
            ("0", "abc", "line 6: could not convert string to float: 'abc'"),
            ("0", "-5", "local table has negative entries"),
            ("0", "nan", "local table rows are off the simplex"),
        ],
    )
    def test_annotator_file_with_a_bad_probability(self, pipeline, tmp_path, capsys, old, new, why):
        lines = pipeline["annotators"].read_text(encoding="utf-8").splitlines()
        fields = lines[5].split("\t")
        assert fields[2].startswith(old)
        lines[5] = "\t".join([*fields[:2], new, *fields[3:]])
        path = tmp_path / "annotators.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["report-annotators", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}")
        assert why in captured.err


class TestPipelineProducts:
    def test_saslc_featurizes_the_corpus_once_per_round_plus_once(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def counted(*args, _fn=em.extract_features):
            calls.append(1)
            return _fn(*args)

        monkeypatch.setattr(em, "extract_features", counted)
        assert main([
            "aggregate", str(pipeline["crowd"]), "--method", "saslc",
            "--out", str(tmp_path / "saslc.tsv"), "--seed", "5", "--max-iters", "2",
            "--rel-tol", "0", "--init-max-iter", "10", "--inner-max-iter", "4",
        ]) == 0
        rounds = len(capsys.readouterr().err.splitlines()) - 1
        assert rounds == 2
        assert len(calls) == rounds + 1

    def test_saslc_labels_do_not_depend_on_the_lattice_cap(self, tmp_path, capsys):
        save_conll(tmp_path / "gold.tsv", make_gold(12, seed=6))
        crowd = tmp_path / "crowd.tsv"
        assert main([
            "simulate", str(tmp_path / "gold.tsv"), "--out", str(crowd), "--seed", "6",
            "--target-precision", "0.3",
        ]) == 0
        ds = load_crowd(crowd)
        assert any(em.build_lattice(inst, ds.scheme, 5, em.EmConfig()).n_valid > 1 for inst in ds.instances)
        outputs = []
        for cap in (["--lattice-cap", "1"], []):
            out = tmp_path / f"saslc{len(outputs)}.tsv"
            assert main([
                "aggregate", str(crowd), "--method", "saslc", "--out", str(out), "--seed", "6",
                "--max-iters", "2", "--init-max-iter", "10", "--inner-max-iter", "4", *cap,
            ]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_simulate_reports_per_annotator_scores(self, pipeline, tmp_path, capsys):
        code = main([
            "simulate", str(pipeline["gold"]), "--out", str(tmp_path / "crowd.tsv"),
            "--seed", "5", "--annotators", "3",
            "--target-precision", "0.8", "--precision-spread", "0.05",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "annotator\tprecision\trecall\tf1"
        assert len(lines) == 4
        for row in lines[1:]:
            fields = row.split("\t")
            assert len(fields) == 4
            float(fields[1]), float(fields[2]), float(fields[3])

    def test_crowd_file_loads_with_the_declared_roster(self, pipeline):
        ds = load_crowd(pipeline["crowd"])
        assert ds.roster == ("ann1", "ann2", "ann3")
        assert len(ds.instances) == 10

    @pytest.mark.parametrize("key", ["mv", "ds", "saslc"])
    def test_aggregates_align_with_the_crowd_tokens(self, pipeline, key):
        crowd = load_crowd(pipeline["crowd"])
        out = load_conll(pipeline[key])
        assert len(out.instances) == len(crowd.instances)
        for a, b in zip(out.instances, crowd.instances):
            assert a.tokens == b.tokens
            assert a.gold is not None

    def test_model_and_annotators_files_load(self, pipeline):
        model = load_model(pipeline["model"])
        params, scheme = load_annotators(pipeline["annotators"])
        assert model.scheme.labels == scheme.labels
        assert params.roster == ("ann1", "ann2", "ann3")
        params.validate()

    def test_history_file_holds_one_float_per_round(self, pipeline):
        lines = pipeline["history"].read_text(encoding="utf-8").splitlines()
        values = [float(x) for x in lines]
        assert len(values) == 3  # initial value plus two iterations
        assert values[-1] >= values[0]

    def test_decode_produces_valid_sequences(self, pipeline):
        model = load_model(pipeline["model"])
        out = load_conll(pipeline["decoded"], model.scheme)
        gold = load_conll(pipeline["gold"])
        assert len(out.instances) == len(gold.instances)
        allowed = model.scheme.allowed_transitions
        init = model.scheme.initial_allowed
        for inst, src in zip(out.instances, gold.instances):
            assert inst.tokens == src.tokens
            assert init[inst.gold[0]]
            for a, b in zip(inst.gold, inst.gold[1:]):
                assert allowed[a, b]


class TestEvaluate:
    def test_identical_files_score_one(self, pipeline, capsys):
        assert main(["evaluate", str(pipeline["gold"]), str(pipeline["gold"])]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("precision  1.000000")
        assert out[1].startswith("recall     1.000000")
        assert out[2].startswith("f1         1.000000")
        machine = out[-1].split("\t")
        assert machine[:3] == ["1.0", "1.0", "1.0"]
        assert machine[4] == "0" and machine[5] == "0"

    def test_by_type_adds_a_table(self, pipeline, capsys):
        assert main(["evaluate", str(pipeline["mv"]), str(pipeline["gold"]), "--by-type"]) == 0
        out = capsys.readouterr().out.splitlines()
        header = [l for l in out if l == "type\tprecision\trecall\tf1\ttp\tfp\tfn"]
        assert len(header) == 1
        start = out.index(header[0]) + 1
        rows = [l for l in out[start:-1]]
        assert rows
        for row in rows:
            assert len(row.split("\t")) == 7

    def test_disjoint_label_sets_evaluate_cleanly(self, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        gold = tmp_path / "gold.tsv"
        pred.write_text("Anna\tO\nParis\tO\n", encoding="utf-8")
        gold.write_text("Anna\tB-PER\nParis\tB-LOC\n", encoding="utf-8")
        assert main(["evaluate", str(pred), str(gold)]) == 0
        machine = capsys.readouterr().out.splitlines()[-1].split("\t")
        assert machine[:3] == ["0.0", "0.0", "0.0"]
        assert machine[3:] == ["0", "0", "2"]

    def test_entity_free_pair_evaluates_cleanly(self, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        gold = tmp_path / "gold.tsv"
        pred.write_text("so\tO\nit\tO\ngoes\tO\n", encoding="utf-8")
        gold.write_text("so\tO\nit\tO\ngoes\tO\n", encoding="utf-8")
        assert main(["evaluate", str(pred), str(gold)]) == 0
        machine = capsys.readouterr().out.splitlines()[-1].split("\t")
        assert machine == ["0.0", "0.0", "0.0", "0", "0", "0"]


class TestInspectLattice:
    def test_table_and_footer_shape(self, pipeline, capsys):
        assert main(["inspect-lattice", str(pipeline["crowd"]), "--instance", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "position\ttoken\tcandidates\treachable"
        crowd = load_crowd(pipeline["crowd"])
        n = len(crowd.instances[0].tokens)
        for j in range(n):
            fields = out[1 + j].split("\t")
            assert fields[0] == str(j)
            assert fields[1] == crowd.instances[0].tokens[j]
            assert fields[2] and fields[3]
        footer = out[1 + n:]
        keys = [line.split("\t")[0] for line in footer]
        assert keys == ["unpruned", "valid", "enumerated", "capped", "widened"]
        assert footer[3].split("\t")[1] in ("true", "false")

    def test_cap_of_one_truncates_enumeration(self, pipeline, capsys):
        assert main([
            "inspect-lattice", str(pipeline["crowd"]), "--instance", "0",
            "--consistency-hi", "9", "--consistency-lo", "3", "--cap", "1",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        stats = dict(line.split("\t") for line in out if "\t" in line and not line[0].isdigit()
                     and not line.startswith("position"))
        assert stats["enumerated"] == "1"
        assert stats["capped"] == "true"


class TestReportAnnotators:
    def test_full_dump_covers_every_cell(self, pipeline, capsys):
        assert main(["report-annotators", str(pipeline["annotators"])]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "annotator\tcontext\ttruth\tassigned\tprobability"
        params, scheme = load_annotators(pipeline["annotators"])
        m = scheme.size
        assert len(out) - 1 == len(params.roster) * (m + 1) * m * m
        for row in out[1:]:
            float(row.split("\t")[4])

    def test_filters_narrow_the_rows(self, pipeline, capsys):
        assert main([
            "report-annotators", str(pipeline["annotators"]),
            "--table", "mention", "--annotator", "ann2",
            "--context", "<bos>", "--truth", "O",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        _, scheme = load_annotators(pipeline["annotators"])
        assert len(out) - 1 == scheme.size
        for row in out[1:]:
            fields = row.split("\t")
            assert fields[0] == "ann2"
            assert fields[1] == "<bos>"
            assert fields[2] == "O"

    def test_unknown_annotator_is_a_data_error(self, pipeline, capsys):
        assert main(["report-annotators", str(pipeline["annotators"]), "--annotator", "ann9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown annotator: 'ann9' (roster: ann1, ann2, ann3)" in captured.err


class TestDeterminismAndConfig:
    def test_simulate_is_byte_identical_under_one_seed(self, pipeline, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        for out in (a, b):
            assert main([
                "simulate", str(pipeline["gold"]), "--out", str(out),
                "--seed", "11", "--annotators", "2",
            ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_threads_flag_is_accepted_and_ignored(self, pipeline, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        assert main(["aggregate", str(pipeline["crowd"]), "--method", "mv", "--out", str(a)]) == 0
        assert main(["aggregate", str(pipeline["crowd"]), "--method", "mv",
                     "--out", str(b), "--threads", "8"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_supplies_defaults_and_flags_win(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        save_config(cfg, {"n_annotators": 2, "target_precision": 0.9, "precision_spread": 0.0})
        out = tmp_path / "from_config.tsv"
        assert main([
            "simulate", str(pipeline["gold"]), "--out", str(out),
            "--seed", "3", "--config", str(cfg),
        ]) == 0
        assert load_crowd(out).roster == ("ann1", "ann2")
        out2 = tmp_path / "flag_wins.tsv"
        assert main([
            "simulate", str(pipeline["gold"]), "--out", str(out2),
            "--seed", "3", "--config", str(cfg), "--annotators", "4",
        ]) == 0
        capsys.readouterr()
        assert load_crowd(out2).roster == ("ann1", "ann2", "ann3", "ann4")

    # a value off each EmConfig default, per field but the seed
    EM_VALUES = {
        "max_iters": 3, "rel_tol": 0.5, "consistency_hi": 2.25, "consistency_lo": 0.75,
        "normalize_consistency": True, "lattice_cap": 7, "smoothing": 0.25, "l2_penalty": 2.5,
        "init_max_iter": 9, "inner_max_iter": 4, "opt_tol": 0.001,
    }

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", sorted(EM_VALUES))
    def test_every_em_field_is_set_by_its_flag_and_its_config_key(
        self, pipeline, tmp_path, monkeypatch, capsys, name, source
    ):
        assert set(self.EM_VALUES) == {f.name for f in dataclasses.fields(em.EmConfig)} - {"seed"}
        seen = []

        def spy(ds, cfg, log=None):
            seen.append(cfg)
            raise ValueError("stop before training")

        monkeypatch.setattr(em, "fit", spy)
        value = self.EM_VALUES[name]
        if source == "flag":
            flag = "--l2" if name == "l2_penalty" else "--" + name.replace("_", "-")
            extra = [flag] if value is True else [flag, str(value)]
        else:
            save_config(tmp_path / "run.cfg", {name: value})
            extra = ["--config", str(tmp_path / "run.cfg")]
        argv = [
            "train", str(pipeline["crowd"]), "--model-out", str(tmp_path / "m"),
            "--annotators-out", str(tmp_path / "a"), "--seed", "4", *extra,
        ]
        assert main(argv) == 2
        assert "stop before training" in capsys.readouterr().err
        assert seen == [dataclasses.replace(em.EmConfig(seed=4), **{name: value})]

    def test_inspect_lattice_caps_at_the_em_default(self):
        args = build_parser().parse_args(["inspect-lattice", "crowd.tsv", "--instance", "0"])
        assert args.cap == em.EmConfig().lattice_cap
