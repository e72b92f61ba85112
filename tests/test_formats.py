"""Strict flat-file parsing, canonical serialization, exact round trips."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    DataError,
    LabelScheme,
    load_config,
    load_conll,
    load_crowd,
    load_tokens,
    parse_config,
    save_config,
    save_conll,
    save_crowd,
    save_tagged,
    serialize_config,
)
from crowdseq.formats import CONFIG_KEYS
from oracles import line_walk_tokens

SCHEME = LabelScheme.bio(("LOC", "PER"))

CONLL_TEXT = "Anna\tB-PER\nleft\tO\n\nParis\tB-LOC\nsang\tO\nAnna\tB-PER\n"

CROWD_TEXT = (
    "#annotators: u,v\n"
    "Anna\tB-PER\t_\n"
    "left\tO\t_\n"
    "\n"
    "Paris\tB-LOC\tB-LOC\n"
    "sang\tO\tO\n"
)


class TestConll:
    def test_load_parses_blocks_and_labels(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_text(CONLL_TEXT, encoding="utf-8")
        ds = load_conll(p, SCHEME)
        assert len(ds.instances) == 2
        assert ds.instances[0].tokens == ("Anna", "left")
        assert ds.instances[0].gold == (SCHEME.index("B-PER"), SCHEME.index("O"))
        assert ds.roster == ()

    def test_scheme_is_inferred_when_omitted(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_text(CONLL_TEXT, encoding="utf-8")
        ds = load_conll(p)
        assert set(ds.scheme.labels) == {"O", "B-PER", "I-PER", "B-LOC", "I-LOC"}

    def test_round_trip_is_byte_exact(self, tmp_path):
        src = tmp_path / "gold.tsv"
        src.write_text(CONLL_TEXT, encoding="utf-8")
        ds = load_conll(src, SCHEME)
        dst = tmp_path / "copy.tsv"
        save_conll(dst, ds)
        assert dst.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty file"),
            ("Anna\tB-PER", "missing trailing newline"),
            ("\nAnna\tB-PER\n", "unexpected blank line"),
            ("Anna\tB-PER\n\n\nleft\tO\n", "unexpected blank line"),
            ("Anna\tB-PER\n\n", "trailing blank line"),
            ("Anna\n", "expected 2 tab-separated fields, got 1"),
            ("Anna\tB-PER\textra\n", "expected 2 tab-separated fields, got 3"),
            ("\tB-PER\n", "empty token"),
            ("Anna\t\n", "empty label"),
            # each at its line, as in the crowd and token tables below
            ("\n\nAnna\tO\n", "line 1: unexpected blank line$"),
            ("Anna\tO\n\nleft\tO\n\n\nParis\tO\n", "line 5: unexpected blank line$"),
            ("Anna\tO\nleft\tO\n\n", "line 3: trailing blank line$"),
            ("Anna\tO\n\tO\n", "line 2: empty token$"),
            ("Anna\tO\n\nleft\tO\tx\n", r"line 3: expected 2 tab-separated fields, got 3: 'left\\tO\\tx'$"),
            ("Anna\tO\n\nleft\t\n", r"line 3: empty label: 'left\\t'$"),
            ("\tO\nAnna\n\n", "line 3: trailing blank line$"),  # structure before content
        ],
    )
    def test_malformed_files_are_rejected(self, tmp_path, text, message):
        p = tmp_path / "bad.tsv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_conll(p, SCHEME)

    def test_unknown_label_under_an_explicit_scheme(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("Anna\tB-GPE\n", encoding="utf-8")
        with pytest.raises(DataError, match="B-GPE"):
            load_conll(p, SCHEME)

    def test_error_carries_location(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("Anna\tB-PER\nleft\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_conll(p, SCHEME)
        assert exc.value.line_no == 2
        assert str(p) in str(exc.value)
        assert "'left'" in str(exc.value)

    def test_save_requires_gold(self, tmp_path):
        ds = CrowdDataset(SCHEME, (CrowdInstance(("x",), {}),), ())
        with pytest.raises(ValueError, match="no gold"):
            save_conll(tmp_path / "x.tsv", ds)

    def test_save_rejects_unserializable_tokens(self, tmp_path):
        ds = CrowdDataset(SCHEME, (CrowdInstance(("a\tb",), {}, (0,)),), ())
        with pytest.raises(ValueError, match="not serializable"):
            save_conll(tmp_path / "x.tsv", ds)

    @pytest.mark.parametrize("token", ["a\tb", "a\nb", "a\rb", "a\r", ""])
    def test_save_tagged_refuses_a_token_that_would_not_reload(self, tmp_path, token):
        # a CR ends a line for the text-mode readers: 'a\rb' would reload as two tokens
        with pytest.raises(ValueError, match=f"^token not serializable: {re.escape(repr(token))}$"):
            save_tagged(tmp_path / "x.tsv", SCHEME, [(token, "c")], [0, 0])
        assert not (tmp_path / "x.tsv").exists()

    def test_save_conll_refuses_a_carriage_return(self, tmp_path):
        ds = CrowdDataset(SCHEME, (CrowdInstance(("a\rb",), {}, (0,)),), ())
        with pytest.raises(ValueError, match=re.escape("token not serializable: 'a\\rb'")):
            save_conll(tmp_path / "x.tsv", ds)


class TestCrowd:
    def test_load_reads_columns_and_absences(self, tmp_path):
        p = tmp_path / "crowd.tsv"
        p.write_text(CROWD_TEXT, encoding="utf-8")
        ds = load_crowd(p, SCHEME)
        assert ds.roster == ("u", "v")
        first, second = ds.instances
        assert set(first.annotations) == {"u"}
        assert first.annotations["u"] == (SCHEME.index("B-PER"), SCHEME.index("O"))
        assert set(second.annotations) == {"u", "v"}
        assert first.gold is None

    def test_scheme_inference_skips_the_absence_marker(self, tmp_path):
        p = tmp_path / "crowd.tsv"
        p.write_text(CROWD_TEXT, encoding="utf-8")
        ds = load_crowd(p)
        assert "_" not in ds.scheme.labels

    def test_round_trip_is_byte_exact(self, tmp_path):
        src = tmp_path / "crowd.tsv"
        src.write_text(CROWD_TEXT, encoding="utf-8")
        ds = load_crowd(src, SCHEME)
        dst = tmp_path / "copy.tsv"
        save_crowd(dst, ds)
        assert dst.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("Anna\tO\n", "missing '#annotators: ' header"),
            ("#annotators: u,,v\nAnna\tO\tO\tO\n", "malformed annotator id"),
            ("#annotators: u, v\nAnna\tO\tO\n", "malformed annotator id"),
            ("#annotators: u,u\nAnna\tO\tO\n", "duplicate annotator id"),
            ("#annotators: u,v\nAnna\tO\n", "expected 3 tab-separated fields, got 2"),
            ("#annotators: u\n\tO\n", "empty token"),
            ("#annotators: u\nAnna\t\n", "empty label"),
            ("#annotators: u\nAnna\tO\n\n", "trailing blank line"),
            ("#annotators: u\n", r"bad\.tsv: holds no sentence$"),
            ("#annotators: u\n\nAnna\tO\n", "line 2: unexpected blank line$"),
            ("#annotators: u\nAnna\tO\n\n\nleft\tO\n", "line 4: unexpected blank line$"),
            ("#annotators: u\nAnna\tO\nleft\tO\n\n", "line 4: trailing blank line$"),
            ("#annotators: u\nAnna\tO\n\n\tO\n", "line 4: empty token$"),
            ("#annotators: u,v\nAnna\tO\tO\n\nleft\tO\n", r"line 4: expected 3 tab-separated fields, got 2: 'left\\tO'$"),
            ("#annotators: u,v\nAnna\tO\tO\n\nleft\tO\t\n", r"line 4: empty label: 'left\\tO\\t'$"),
            ("#annotators: u\n\tO\nAnna\tO\n\n", "line 4: trailing blank line$"),  # structure before content
        ],
    )
    def test_malformed_files_are_rejected(self, tmp_path, text, message):
        p = tmp_path / "bad.tsv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_crowd(p, SCHEME)

    def test_partial_absence_column_is_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#annotators: u,v\nAnna\tB-PER\t_\nleft\tO\tO\n", encoding="utf-8")
        with pytest.raises(DataError, match="annotator 'v' labeled only part of the sequence"):
            load_crowd(p, SCHEME)

    def test_save_requires_a_roster(self, tmp_path):
        ds = CrowdDataset(SCHEME, (CrowdInstance(("x",), {}),), ())
        with pytest.raises(ValueError, match="roster"):
            save_crowd(tmp_path / "x.tsv", ds)

    def test_save_rejects_bad_annotator_ids(self, tmp_path):
        for bad in ("a,b", "a\tb", " a", ""):
            ds = CrowdDataset(SCHEME, (CrowdInstance(("x",), {}),), (bad,))
            with pytest.raises(ValueError, match="annotator id"):
                save_crowd(tmp_path / "x.tsv", ds)

    @pytest.mark.parametrize("what", ["token", "annotator id"])
    def test_save_refuses_a_carriage_return(self, tmp_path, what):
        token, annotator = ("a\rb", "u") if what == "token" else ("x", "a\rb")
        ds = CrowdDataset(SCHEME, (CrowdInstance((token,), {annotator: (0,)}),), (annotator,))
        with pytest.raises(ValueError, match=re.escape(f"{what} not serializable: 'a\\rb'")):
            save_crowd(tmp_path / "x.tsv", ds)
        assert not (tmp_path / "x.tsv").exists()


class TestTokens:
    def test_reads_the_first_field(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_text(CONLL_TEXT, encoding="utf-8")
        assert load_tokens(p) == [("Anna", "left"), ("Paris", "sang", "Anna")]

    def test_reads_bare_token_lines(self, tmp_path):
        p = tmp_path / "tokens.txt"
        p.write_text("Anna\nleft\n\nParis\n", encoding="utf-8")
        assert load_tokens(p) == [("Anna", "left"), ("Paris",)]

    def test_empty_token_is_rejected(self, tmp_path):
        p = tmp_path / "tokens.txt"
        p.write_text("Anna\n\tO\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty token"):
            load_tokens(p)


class TestNotUtf8:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("load", [load_tokens, load_conll, load_crowd])
    def test_names_the_file_and_the_line(self, tmp_path, load, newline):
        # text mode ends a line at \r\n or \r too, and the line number counts them so
        lines = (CROWD_TEXT if load is load_crowd else CONLL_TEXT).encode().split(b"\n")
        lines[4] = lines[4][:3] + b"\xff" + lines[4][3:]
        p = tmp_path / "bad.tsv"
        p.write_bytes(newline.encode().join(lines))
        why = "not UTF-8 (byte 0xff: invalid start byte)"
        with pytest.raises(DataError, match=f"^{re.escape(f'{p}, line 5: {why}')}$"):
            load(p)


def outcome(read, path):
    try:
        return read(path)
    except DataError as e:
        return str(e), e.line_no


class TestTokensParity:
    @pytest.mark.parametrize(
        "text, line_no",
        [
            (CONLL_TEXT, None),
            ("Anna\nleft\n\nParis\n", None),
            ("x\tO\textra\n\ny\n\nz\tO\n", None),
            ("", None),  # empty file
            ("Anna\tB-PER\nleft\tO", None),  # missing final newline
            ("\nAnna\n", 1),  # leading blank line
            ("\n\nAnna\n", 1),
            ("Anna\n\n\nleft\n", 3),  # doubled blank line
            ("Anna\n\nleft\n\n\n\nParis\n", 5),
            ("Anna\nleft\n\n", 3),  # trailing blank line
            ("Anna\n\n", 2),
            ("\n", 1),
            ("Anna\n\tO\n", 2),  # empty token
            ("\tO\nAnna\n", 1),
            ("Anna\n\t\n\nleft\n", 2),
            ("Anna\n\tO\n\n\nleft\n", 4),  # a blank line error is found before an empty token
            ("\tO\nAnna\n\n", 3),
            ("\n\nAnna\tO\n", 1),  # the rows of the tag and crowd tables, as token files
            ("Anna\tO\n\nleft\tO\n\n\nParis\tO\n", 5),
            ("Anna\tO\nleft\tO\n\n", 3),
            ("Anna\tO\n\tO\n", 2),
            ("#annotators: u\n", None),  # one sentence of one token
            ("Anna\tO\n\nleft\tO\tx\n", None),  # any number of fields
        ],
    )
    def test_matches_the_block_reader(self, tmp_path, text, line_no):
        p = tmp_path / "tokens.txt"
        p.write_text(text, encoding="utf-8")
        got = outcome(load_tokens, p)
        assert got == outcome(line_walk_tokens, p)
        if line_no is not None:
            assert got[1] == line_no

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b\tO", "\tO", "", "\t", "c\tB-X\ty"]), max_size=8), st.booleans())
    def test_matches_the_block_reader_on_any_lines(self, tmp_path_factory, lines, newline):
        p = tmp_path_factory.getbasetemp() / "any_lines.txt"
        p.write_text("\n".join(lines) + ("\n" if newline else ""), encoding="utf-8")
        assert outcome(load_tokens, p) == outcome(line_walk_tokens, p)


class TestConfig:
    def test_parse_types_and_comments(self):
        text = (
            "# experiment knobs\n"
            "seed = 7\n"
            "\n"
            "target_precision = 0.75\n"
            "normalize_consistency = true\n"
            "  # indented comment\n"
            "lattice_cap = 200\n"
        )
        cfg = parse_config(text)
        assert cfg == {
            "seed": 7,
            "target_precision": 0.75,
            "normalize_consistency": True,
            "lattice_cap": 200,
        }
        assert isinstance(cfg["seed"], int)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("seed 7\n", "expected 'key = value'"),
            ("mystery = 1\n", "unknown config key 'mystery'"),
            ("seed = 1\nseed = 2\n", "duplicate config key 'seed'"),
            ("seed = x\n", "bad value for 'seed'"),
            ("normalize_consistency = yes\n", "bad value for 'normalize_consistency'"),
            ("rel_tol = unset\n", "bad value for 'rel_tol'"),
        ],
    )
    def test_malformed_configs_are_rejected(self, text, message):
        with pytest.raises(DataError, match=message):
            parse_config(text)

    def test_serialize_is_sorted_and_canonical(self):
        text = serialize_config({"threads": 4, "seed": 1, "normalize_consistency": False})
        assert text == "normalize_consistency = false\nseed = 1\nthreads = 4\n"

    def test_serialize_casts_to_the_declared_type(self):
        assert serialize_config({"smoothing": 1}) == "smoothing = 1.0\n"

    def test_serialize_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config key"):
            serialize_config({"mystery": 1})

    def test_parse_of_serialize_is_identity(self):
        cfg = {"seed": 3, "rel_tol": 1e-4, "normalize_consistency": True, "ds_iters": 50}
        assert parse_config(serialize_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        save_config(p, {"seed": 9, "opt_tol": 1e-5})
        assert load_config(p) == {"seed": 9, "opt_tol": 1e-5}

    @given(
        st.dictionaries(
            st.sampled_from(sorted(CONFIG_KEYS)),
            st.integers(-10**6, 10**6),
            max_size=8,
        ).map(
            lambda d: {
                k: (
                    v
                    if CONFIG_KEYS[k] is int
                    else bool(v % 2) if CONFIG_KEYS[k] is bool else v / 7.0
                )
                for k, v in d.items()
            }
        )
    )
    @settings(max_examples=100)
    def test_round_trip_property(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg
