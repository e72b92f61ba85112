"""Command-line behavior: exit codes, file products, output shapes."""

import dataclasses
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crowdseq
from corpus import dirichlet_tables, make_gold
from oracles import OLD_MODEL_FILES, TEMPLATES_LINE, model_file_parts, write_model_file
from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    LabelScheme,
    SimConfig,
    build_model,
    load_annotators,
    load_conll,
    load_crowd,
    load_tokens,
    save_config,
    save_conll,
    save_annotators,
    save_crowd,
    save_model,
    simulate,
)
from crowdseq import cli, crf, em
from crowdseq.cli import build_parser, main
from crowdseq.crf import load_model


WATCHED_MODULES = ("decimal", "fractions", "hashlib", "numpy.random", "scipy.optimize", "scipy.sparse", "secrets")


# installed first in a fresh interpreter: every scipy import fails, as where
# scipy is not installed
REFUSE_SCIPY = (
    "class RefuseScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'scipy':\n"
    "            raise ModuleNotFoundError(f'no module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, RefuseScipy())\n"
    "try:\n"
    "    import scipy\n"
    "except ModuleNotFoundError:\n"
    "    pass\n"
    "else:\n"
    "    raise SystemExit('scipy was not refused')\n"
)
NO_SCIPY_PIPELINE = [
    ["simulate", "gold.tsv", "--out", "crowd.tsv", "--seed", "5", "--annotators", "3"],
    ["train", "crowd.tsv", "--model-out", "model.bin", "--annotators-out", "annotators.tsv",
     "--history-file", "history.txt", "--seed", "5", "--max-iters", "2"],
    ["aggregate", "crowd.tsv", "--method", "saslc", "--out", "saslc.tsv", "--seed", "5", "--max-iters", "2"],
    ["aggregate", "crowd.tsv", "--method", "mv", "--out", "mv.tsv"],
    ["aggregate", "crowd.tsv", "--method", "ds", "--out", "ds.tsv"],
    ["decode", "model.bin", "gold.tsv", "--out", "decoded.tsv"],
    ["evaluate", "decoded.tsv", "gold.tsv"],
    ["inspect-lattice", "crowd.tsv", "--instance", "0"],
    ["report-annotators", "annotators.tsv"],
]


def modules_after(argv, cwd) -> set[str]:
    """The ``crowdseq`` modules, and those of ``WATCHED_MODULES``, that a
    fresh interpreter holds after ``main(argv)`` succeeded in ``cwd``."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(crowdseq.__file__).parents[1])!r})\n"
        "from crowdseq.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(*(m for m in sys.modules if m.startswith('crowdseq') or m in {WATCHED_MODULES!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def tiny_model(tmp_path):
    """A zero-weight model over a few sentences, saved, and those sentences
    as a tag file."""
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
        params_from_counts = em.params_from_counts

        # the vote start's tables, the first the fit computes (no M-step runs)
        def never_o_after_a_label(roster, local, mention, smoothing):
            params = params_from_counts(roster, local, mention, smoothing)
            params.local[:, :-1, :, 0] = 0.0
            params.local /= params.local.sum(axis=3, keepdims=True)
            return params

        monkeypatch.setattr(em, "params_from_counts", never_o_after_a_label)
        outputs = {
            "train": ["--model-out", str(tmp_path / "m"), "--annotators-out", str(tmp_path / "a")],
            "aggregate": ["--method", "saslc", "--out", str(tmp_path / "agg")],
        }
        argv = [command, str(pipeline["crowd"]), *outputs[command], "--seed", "5", "--smoothing", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: instance \d+ has no finite-scoring path\n", err)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "method, message",
        [("mv", "no annotations to vote over"), ("ds", "some token has no annotations")],
    )
    def test_a_baseline_names_the_instance_nobody_labeled(self, tmp_path, capsys, method, message):
        gold = make_gold(3, seed=6)
        roster = ("a0", "a1")
        instances = [
            CrowdInstance(inst.tokens, {} if j == 1 else {a: inst.gold for a in roster})
            for j, inst in enumerate(gold.instances)
        ]
        crowd = tmp_path / "crowd.tsv"
        save_crowd(crowd, CrowdDataset(gold.scheme, tuple(instances), roster))
        out = tmp_path / "out.tsv"
        assert main(["aggregate", str(crowd), "--method", method, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: instance 1: {message}\n"
        assert not out.exists()
        # SA-SLC accepts the instance
        saslc = ["aggregate", str(crowd), "--method", "saslc", "--out", str(out), "--seed", "6",
                 "--max-iters", "1", "--init-max-iter", "3", "--inner-max-iter", "3"]
        assert main(saslc) == 0, capsys.readouterr().err
        assert len(load_conll(out).instances) == 3

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

    @pytest.mark.parametrize("swap", ["nan", "inf"])
    def test_simulate_rejects_a_non_finite_mix_weight(self, tmp_path, capsys, swap):
        gold = tmp_path / "gold.tsv"
        save_conll(gold, make_gold(2, seed=1))
        argv = ["simulate", str(gold), "--out", str(tmp_path / "c.tsv"), "--seed", "1", f"--mix-swap={swap}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: mix weights must be finite, got type_swap={swap}\n"
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("spread", ["nan", "inf", "-inf"])
    def test_simulate_rejects_a_non_finite_precision_spread(self, tmp_path, capsys, spread):
        gold = tmp_path / "gold.tsv"
        save_conll(gold, make_gold(2, seed=1))
        argv = ["simulate", str(gold), "--out", str(tmp_path / "c.tsv"), "--seed", "1", f"--precision-spread={spread}"]
        assert main(argv) == 2
        assert "precision_spread must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["simulate", "train", "aggregate"])
    def test_a_negative_seed_is_refused_before_the_input_is_read(self, tmp_path, capsys, command, via):
        # the input does not exist, so only a check made before reading it
        # can give the seed's message
        absent, out = str(tmp_path / "absent.tsv"), tmp_path / "out"
        argv = {
            "simulate": ["simulate", absent, "--out", str(out / "crowd.tsv")],
            "train": ["train", absent, "--model-out", str(out / "m"), "--annotators-out", str(out / "a")],
            "aggregate": ["aggregate", absent, "--method", "saslc", "--out", str(out / "labels.tsv")],
        }[command]
        if via == "flag":
            argv += ["--seed", "-1"]
        else:
            save_config(tmp_path / "run.cfg", {"seed": -1})
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["train", "--model-out", "nodir/m", "--annotators-out", "a", "--history-file", "h"], "nodir/m"),
            (["train", "--model-out", "m", "--annotators-out", "nodir/a", "--history-file", "h"], "nodir/a"),
            (["train", "--model-out", "m", "--annotators-out", "a", "--history-file", "nodir/h"], "nodir/h"),
            (["aggregate", "--method", "saslc", "--out", "nodir/labels.tsv"], "nodir/labels.tsv"),
            (["aggregate", "--method", "mv", "--out", "nodir/labels.tsv"], "nodir/labels.tsv"),
        ],
    )
    def test_a_missing_output_directory_fails_before_the_fit(self, pipeline, tmp_path, monkeypatch, capsys, argv, bad):
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], str(pipeline["crowd"]), *argv[1:], "--seed", "5", "--max-iters", "1"]) == 2
        # the error alone: no EM log line before it
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{bad}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["decode", "simulate"])
    def test_a_missing_output_directory_fails_before_any_input_is_read(
        self, pipeline, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        read = []
        for module, name in [(cli.formats, "load_tokens"), (crf, "load_model"), (cli.formats, "load_conll")]:
            monkeypatch.setattr(module, name, lambda *args, name=name: read.append(name))
        argv = {
            "decode": ["decode", str(pipeline["model"]), str(pipeline["gold"]), "--out", "nodir/out.tsv"],
            "simulate": ["simulate", str(pipeline["gold"]), "--out", "nodir/out.tsv", "--seed", "5"],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'nodir/out.tsv'\n"
        assert read == []
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("fired", ["every row", "edges only"])
    def test_decode_rejects_a_duplicated_observation(self, tmp_path, capsys, fired):
        model_path, tokens_path = tiny_model(tmp_path)
        if fired == "edges only":  # a word of no row: only the BOS/EOS rows are kept, none of the faulty ones
            tokens_path.write_text("qq\n", encoding="utf-8")
        head, names, _, weights = model_file_parts(model_path)
        m = len(head[2].split(b"\t")) - 1  # labels
        names[m : 2 * m] = [names[0]] * m  # the next m names take the first one's name
        write_model_file(model_path, head, names, weights)
        assert main(["decode", str(model_path), str(tokens_path), "--out", str(tmp_path / "out.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}, line {7 + m}: duplicate observation")
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["model", "tokens"])
    def test_decode_names_the_line_of_bytes_that_are_not_utf8(self, tmp_path, capsys, bad):
        model_path, tokens_path = tiny_model(tmp_path)
        path = {"model": model_path, "tokens": tokens_path}[bad]
        lines = path.read_bytes().split(b"\n")
        lines[6] = b"\xff" + lines[6][1:]  # a name line of the model, a token line of the tokens
        path.write_bytes(b"\n".join(lines))
        assert main(["decode", str(model_path), str(tokens_path), "--out", str(tmp_path / "out.tsv")]) == 2
        assert capsys.readouterr().err == f"error: {path}, line 7: not UTF-8 (byte 0xff: invalid start byte)\n"

    @pytest.mark.parametrize(
        "line",
        ["templates\ttoken-identity\tlabel-bigram", TEMPLATES_LINE.removesuffix("\tlabel-bigram"), "templates"],
        ids=["identity only", "no bigram", "none"],
    )
    def test_decode_refuses_another_feature_set(self, pipeline, tmp_path, capsys, line):
        model_path = tmp_path / "model.bin"
        data = pipeline["model"].read_bytes().split(b"\n", 4)
        data[3] = line.encode()
        model_path.write_bytes(b"\n".join(data))
        assert main(["decode", str(model_path), str(pipeline["gold"]), "--out", str(tmp_path / "out.tsv")]) == 2
        assert capsys.readouterr().err == f"error: {model_path}, line 4: expected {TEMPLATES_LINE!r}\n"
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_decode_refuses_a_retired_model_format(self, tmp_path, capsys, version):
        model_path, tokens_path = tiny_model(tmp_path)
        model_path.write_bytes(OLD_MODEL_FILES[version])
        assert main(["decode", str(model_path), str(tokens_path), "--out", str(tmp_path / "out.tsv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {model_path}: crowdseq-crf {version} files are no longer read; retrain the model\n"
        assert not (tmp_path / "out.tsv").exists()

    def test_decode_hashes_only_its_input_observations(self, tmp_path, monkeypatch):
        # ~20k model names; the input fires a handful
        gold = make_gold(3, seed=2)
        words = [[f"name{i}", f"Word{i}x", f"{i}"] for i in range(2000)]
        model = build_model(gold.scheme, [*words, *(inst.tokens for inst in gold.instances)])
        assert model.n_obs > 20_000
        model_path, tokens_path = tmp_path / "model.bin", tmp_path / "tokens.txt"
        save_model(model, model_path)
        tokens_path.write_text("name7\nWord3x\n\n12\nzzz\n", encoding="utf-8")
        fired = crf._InputTable(load_tokens(tokens_path)).number()
        hashed = []
        name_hash = crf._name_hash
        monkeypatch.setattr(crf, "_name_hash", lambda name: hashed.append(name) or name_hash(name))
        assert main(["decode", str(model_path), str(tokens_path), "--out", str(tmp_path / "out.tsv")]) == 0
        assert sorted(hashed) == sorted(name.encode() for name in fired)
        assert len(hashed) < 100

    def test_decode_featurizes_its_input_once(self, tmp_path, monkeypatch):
        model_path, tokens_path = tiny_model(tmp_path)
        n_types = len({tok for tokens in load_tokens(tokens_path) for tok in tokens})
        calls = []
        pieces = crf.FeatureTemplate.pieces

        def spy(tpl, toks):
            calls.append((tpl, len(toks)))
            return pieces(tpl, toks)

        monkeypatch.setattr(crf.FeatureTemplate, "pieces", spy)
        assert main(["decode", str(model_path), str(tokens_path), "--out", str(tmp_path / "out.tsv")]) == 0
        # one call per template, over the token types (and a neighbour template's BOS/EOS token)
        assert sorted(calls, key=repr) == sorted(((tpl, n_types + abs(tpl.offset)) for tpl in crf.TEMPLATES), key=repr)

    def test_decode_imports_only_what_it_runs(self, tmp_path):
        model_path, tokens_path = tiny_model(tmp_path)
        loaded = modules_after(["decode", str(model_path), str(tokens_path), "--out", "out.tsv"], tmp_path)
        assert loaded == {"crowdseq", "crowdseq.cli", "crowdseq.crf", "crowdseq.formats", "crowdseq.types"}
        assert load_tokens(tmp_path / "out.tsv") == load_tokens(tokens_path)

    @pytest.mark.parametrize("command", ["train", "aggregate"])
    def test_training_imports_neither_the_optimizer_nor_the_baselines(self, command, pipeline, tmp_path):
        outputs = {
            "train": ["--model-out", "model.tsv", "--annotators-out", "annotators.tsv"],
            "aggregate": ["--method", "saslc", "--out", "aggregated.tsv"],
        }[command]
        fast = ["--seed", "5", "--max-iters", "1", "--init-max-iter", "3", "--inner-max-iter", "2"]
        loaded = modules_after([command, str(pipeline["crowd"]), *outputs, *fast], tmp_path)
        assert {"crowdseq.em", "crowdseq.lattice"} <= loaded
        # nothing draws a random number, and the lattice compares in integers
        assert not loaded & {"crowdseq.baselines", *WATCHED_MODULES}

    @pytest.mark.parametrize(
        "argv, stderr",
        [
            (["--ds-iters", "0"], "error: ds_iters must be at least 1\n"),
            (["--ds-iters", "-1"], "error: ds_iters must be at least 1\n"),
            (["--ds-tol", "nan"], "error: ds_tol must be nonnegative\n"),
            (["--ds-tol", "-1"], "error: ds_tol must be nonnegative\n"),
        ],
    )
    def test_dawid_skene_rejects_a_bad_option(self, pipeline, tmp_path, capsys, argv, stderr):
        out = tmp_path / "ds.tsv"
        assert main(["aggregate", str(pipeline["crowd"]), "--method", "ds", "--out", str(out), *argv]) == 2
        assert capsys.readouterr().err == stderr
        assert not out.exists()
        save_config(tmp_path / "run.cfg", {argv[0][2:].replace("-", "_"): float(argv[1])})
        config = ["--config", str(tmp_path / "run.cfg")]
        assert main(["aggregate", str(pipeline["crowd"]), "--method", "ds", "--out", str(out), *config]) == 2
        assert capsys.readouterr().err == stderr

    def test_the_pipeline_runs_without_scipy(self, tmp_path):
        runs = []
        for blocked in (False, True):
            cwd = tmp_path / ("blocked" if blocked else "free")
            cwd.mkdir()
            save_conll(cwd / "gold.tsv", make_gold(10, seed=5))
            code = (
                "import sys\n"
                f"sys.path.insert(0, {str(Path(crowdseq.__file__).parents[1])!r})\n"
                + (REFUSE_SCIPY if blocked else "")
                + "from crowdseq.cli import main\n"
                f"for argv in {NO_SCIPY_PIPELINE!r}:\n"
                "    assert main(argv) == 0, argv\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            )
            proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}))
        assert runs[0][0].splitlines()[-1] == "[]"
        assert runs[1] == runs[0]

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

    def test_main_registers_one_exit_hook_however_often_it_runs(self, monkeypatch, capsys):
        class Hooks:
            def __init__(self):
                self.hooks = []

            def register(self, fn):
                self.hooks.append(fn)

            def unregister(self, fn):
                self.hooks = [h for h in self.hooks if h != fn]

        hooks = Hooks()
        monkeypatch.setattr(cli, "atexit", hooks)
        assert main([]) == 1
        assert main(["no-such-command"]) == 1
        capsys.readouterr()
        assert hooks.hooks == [gc.freeze]

    def test_output_and_errors_survive_the_exit_hook(self, tmp_path):
        """Through ``python -m crowdseq`` with stdout piped and buffered, as in
        ``crowdseq report-annotators ... | cat``: every line arrives."""
        roster = tuple(f"ann{k}" for k in range(1, 6))
        scheme = LabelScheme.bio(("PER", "ORG", "LOC"))
        path = tmp_path / "annotators.txt"
        save_annotators(dirichlet_tables(roster, scheme.size, seed=3), scheme, path)
        env = {**os.environ, "PYTHONPATH": str(Path(crowdseq.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "crowdseq", *argv],
                cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
            )

        proc = run("report-annotators", str(path))
        assert (proc.returncode, proc.stderr) == (0, "")
        m = scheme.size
        assert proc.stdout.endswith("\n")
        assert len(proc.stdout.splitlines()) == 1 + len(roster) * (m + 1) * m * m
        proc = run("report-annotators")
        assert proc.returncode == 1
        assert proc.stderr.endswith("crowdseq report-annotators: error: the following arguments are required: params\n")
        proc = run("report-annotators", str(path), "--annotator", "ann9")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: unknown annotator: 'ann9' (roster: ann1, ann2, ann3, ann4, ann5)\n"

    @pytest.mark.parametrize("command", ["aggregate", "report-annotators"])
    def test_a_text_file_that_is_not_utf8_names_its_line(self, pipeline, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        if command == "aggregate":  # a config file with a Latin-1 byte in a comment
            path.write_bytes(b"# caf\xe9\nmax_iters = 1\n")
            argv = ["aggregate", str(pipeline["crowd"]), "--method", "mv", "--out", str(tmp_path / "mv.tsv")]
            argv += ["--config", str(path)]
        else:
            path.write_bytes(b"crowdseq-annotators v1\xe9\n")
            argv = ["report-annotators", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}, line 1: not UTF-8 (byte 0xe9: invalid continuation byte)\n"
        assert captured.out == ""

    def test_annotator_ids_that_splitlines_would_cut_are_reported(self, tmp_path, capsys):
        roster = ("a\x85b", "c\x0b", "\x1c\x1d", "\x1e\x1fd", "e\u2028")
        scheme = LabelScheme(("O", "B-PER", "I-PER"))
        path = tmp_path / "annotators.txt"
        save_annotators(dirichlet_tables(roster, scheme.size, seed=3), scheme, path)
        assert main(["report-annotators", str(path), "--context", "O", "--truth", "O"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.split("\n")[1:-1]]
        assert [row[0] for row in rows] == [ann for ann in roster for _ in scheme.labels]

    def test_annotator_file_with_only_its_magic_line(self, tmp_path, capsys):
        path = tmp_path / "annotators.txt"
        path.write_text("crowdseq-annotators v1\n", encoding="utf-8")
        assert main(["report-annotators", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: truncated header")
        assert "Traceback" not in err

    def test_crowd_file_with_only_its_header(self, tmp_path, capsys):
        path = tmp_path / "crowd.tsv"
        path.write_text("#annotators: a1,a2\n", encoding="utf-8")
        assert main(["aggregate", str(path), "--method", "mv", "--out", str(tmp_path / "mv.tsv")]) == 2
        assert capsys.readouterr().err == f"error: {path}: holds no sentence\n"
        assert not (tmp_path / "mv.tsv").exists()

    def test_decode_of_a_model_with_no_observations(self, tmp_path, capsys):
        # every position is scored by the zero bigram block alone: all O
        model_path, tokens_path = tiny_model(tmp_path)
        save_model(build_model(LabelScheme.bio(("PER",)), []), model_path)
        assert main(["decode", str(model_path), str(tokens_path), "--out", str(tmp_path / "out.tsv")]) == 0
        expected = "\n\n".join("\n".join(f"{tok}\tO" for tok in seq) for seq in load_tokens(tokens_path))
        assert (tmp_path / "out.tsv").read_text(encoding="utf-8") == expected + "\n"


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
        calls = {"extract_features": 0, "number": 0}
        for owner, name in ((em, "extract_features"), (crf._InputTable, "number")):
            def counted(*args, _fn=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, counted)
        assert main([
            "aggregate", str(pipeline["crowd"]), "--method", "saslc",
            "--out", str(tmp_path / "saslc.tsv"), "--seed", "5", "--max-iters", "2",
            "--rel-tol", "0", "--init-max-iter", "10", "--inner-max-iter", "4",
        ]) == 0
        rounds = len(capsys.readouterr().err.splitlines()) - 1
        assert rounds == 2
        # scored once per round plus once; featurized from strings once, by
        # build_model, whose table the seed fit and every round read
        assert calls == {"extract_features": rounds + 1, "number": 1}

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

    def test_the_model_file_names_the_one_feature_set(self, pipeline):
        line = pipeline["model"].read_bytes().split(b"\n")[3].decode()
        assert line == TEMPLATES_LINE
        assert line == "\t".join(["templates", *(tpl.spec_string for tpl in crf.TEMPLATES), "label-bigram"])

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

    @pytest.mark.parametrize("tag", ["O", "B-PER"], ids=["all O", "an entity"])
    @pytest.mark.parametrize(
        "gold_text, why",
        [
            ("so\tO\n\nbob\t{tag}\nsaid\tO\nyes\tO\n", "sequence 1: length 2 != 3"),
            ("so\tO\n\nbob\t{tag}\n", "sequence 1: length 2 != 1"),
            ("so\tO\n\nalice\t{tag}\nsaid\tO\n", "sequence 1, token 0: 'bob' predicted vs 'alice' gold"),
        ],
        ids=["longer", "shorter", "another token"],
    )
    def test_a_pair_of_other_sentences_exits_2(self, tmp_path, capsys, tag, gold_text, why):
        pred, gold = tmp_path / "pred.tsv", tmp_path / "gold.tsv"
        pred.write_text(f"so\tO\n\nbob\t{tag}\nsaid\tO\n", encoding="utf-8")
        gold.write_text(gold_text.format(tag=tag), encoding="utf-8")
        assert main(["evaluate", str(pred), str(gold)]) == 2
        assert capsys.readouterr() == ("", f"error: {why}\n")

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

    @pytest.mark.parametrize(
        "cap, enumerated, capped",
        [("1", "1", "true"), ("47955", "47955", "true"), ("47956", "47956", "false")],
    )
    def test_footer_counts_follow_the_cap(self, pipeline, capsys, cap, enumerated, capped):
        # every label is a candidate at each of the instance's 7 tokens
        assert main([
            "inspect-lattice", str(pipeline["crowd"]), "--instance", "1",
            "--consistency-hi", "9", "--consistency-lo", "3", "--cap", cap,
        ]) == 0
        footer = capsys.readouterr().out.splitlines()[-5:]
        assert footer == [
            "unpruned\t823543", "valid\t47956", f"enumerated\t{enumerated}", f"capped\t{capped}", "widened\t-",
        ]


    def test_counts_past_the_int_to_str_digit_limit_print_in_full(self, tmp_path, capsys):
        # one 12,000-token sentence, its short sentences' crowd labels joined:
        # its unpruned count has more digits than str() converts by default
        short = simulate(make_gold(2400, seed=7), SimConfig(n_annotators=3, target_precision=0.3, seed=7))

        def joined(seqs):
            return tuple(x for seq in seqs for x in seq)[:12000]

        annotations = {a: joined(inst.annotations[a] for inst in short.instances) for a in short.roster}
        long = CrowdInstance(joined(inst.tokens for inst in short.instances), annotations)
        crowd = CrowdDataset(short.scheme, (long,), short.roster)
        save_crowd(tmp_path / "crowd.tsv", crowd)
        assert main(["inspect-lattice", str(tmp_path / "crowd.tsv"), "--instance", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 + 12000 + 5
        stats = dict(line.split("\t") for line in out[-5:])
        lat = em.build_lattice(crowd.instances[0], crowd.scheme, 3, em.EmConfig())
        assert lat.n_unpruned > 10 ** sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit, for this parse alone
        try:
            assert (int(stats["unpruned"]), int(stats["valid"])) == (lat.n_unpruned, lat.n_valid)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_an_infinite_hi_keeps_the_labels_used(self, pipeline, capsys):
        assert main([
            "inspect-lattice", str(pipeline["crowd"]), "--instance", "0", "--consistency-hi", "inf",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "position\ttoken\tcandidates\treachable",
            "0\tdavid\tO,B-PER\tO,B-PER",
            "1\tjones\tO,I-PER\tO,I-PER",
            "2\ttoured\tO\tO",
            "3\toslo\tB-LOC\tB-LOC",
            "4\t,\tO\tO",
            "5\tdavid\tB-LOC,B-PER\tB-LOC,B-PER",
            "6\tjones\tI-LOC,I-PER\tI-LOC,I-PER",
            "7\ttoured\tO,B-PER\tO,B-PER",
            "8\tinitech\tO,B-ORG\tO,B-ORG",
            "unpruned\t64",
            "valid\t24",
            "enumerated\t24",
            "capped\tfalse",
            "widened\t-",
        ]


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

    def test_simulate_defaults_are_the_documented_values(self, pipeline, tmp_path, capsys):
        defaults = {
            "n_annotators": ("--annotators", 5), "target_precision": ("--target-precision", 0.7),
            "precision_spread": ("--precision-spread", 0.1), "mix_type_swap": ("--mix-swap", 0.4),
            "mix_boundary_shift": ("--mix-shift", 0.3), "mix_entity_drop": ("--mix-drop", 0.2),
            "mix_spurious": ("--mix-spurious", 0.1),
        }
        save_config(tmp_path / "run.cfg", {key: value for key, (_, value) in defaults.items()})
        runs = {
            "none": [],
            "flags": [str(x) for flag, value in defaults.values() for x in (flag, value)],
            "config": ["--config", str(tmp_path / "run.cfg")],
        }
        products = {}
        for name, extra in runs.items():
            out = tmp_path / f"{name}.tsv"
            assert main(["simulate", str(pipeline["gold"]), "--out", str(out), "--seed", "12", *extra]) == 0
            products[name] = (out.read_bytes(), capsys.readouterr().out)
        assert products["flags"] == products["none"] == products["config"]

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

    @pytest.mark.parametrize("command", ["simulate", "train", "aggregate"])
    def test_the_config_key_seed_seeds_as_the_flag_does(self, pipeline, tmp_path, capsys, command):
        save_config(tmp_path / "seed.cfg", {"seed": 7})

        def run(name, *extra):
            """The bytes of each file the command writes into a new directory."""
            out = tmp_path / name
            out.mkdir()
            argv = {
                "simulate": ["simulate", pipeline["gold"], "--out", out / "crowd.tsv", "--annotators", "2"],
                "train": [
                    "train", pipeline["crowd"], "--model-out", out / "model.bin",
                    "--annotators-out", out / "annotators.tsv", "--max-iters", "1", "--init-max-iter", "5",
                ],
                "aggregate": [
                    "aggregate", pipeline["crowd"], "--method", "saslc", "--out", out / "labels.tsv",
                    "--max-iters", "1", "--init-max-iter", "5",
                ],
            }[command]
            assert main([*map(str, argv), *extra]) == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        config = ["--config", str(tmp_path / "seed.cfg")]
        flag = run("flag", "--seed", "7")
        assert run("config", *config) == flag
        other = run("other", "--seed", "8")
        assert run("flag wins", *config, "--seed", "8") == other
        if command == "simulate":
            assert other != flag
        else:  # only simulate draws: the seed is accepted and changes nothing
            assert other == flag == run("no seed")
        capsys.readouterr()

    # a value off each EmConfig default, per field
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
        assert set(self.EM_VALUES) == {f.name for f in dataclasses.fields(em.EmConfig)}
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
        assert seen == [dataclasses.replace(em.EmConfig(), **{name: value})]

    def test_inspect_lattice_caps_at_the_em_default(self, pipeline, capsys):
        # the parser leaves the cap unset, and the command reads EmConfig's default
        args = build_parser().parse_args(["inspect-lattice", "crowd.tsv", "--instance", "0"])
        assert args.cap is None
        argv = ["inspect-lattice", str(pipeline["crowd"]), "--instance", "1", "--consistency-hi", "9", "--consistency-lo", "3"]
        assert main(argv) == 0
        footer = capsys.readouterr().out.splitlines()[-4:-1]
        assert footer == ["valid\t47956", f"enumerated\t{em.EmConfig().lattice_cap}", "capped\ttrue"]
