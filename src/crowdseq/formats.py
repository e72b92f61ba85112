"""Flat-file formats: tag files, crowd annotation files, run configs.

A tag file holds ``token<TAB>label`` lines with exactly one blank line
between sequences and a trailing newline.  A crowd file starts with an
``#annotators: id1,id2,...`` header and carries one label column per
annotator, where ``_`` marks an annotator who skipped the whole sequence.
A token file is a tag file of which only the first fields are read; one
that starts with a crowd file's header is refused.

All three go through one block splitter, ``_sentences``, which checks the
whole text for a blank line first or after another, a trailing blank
line, and no sentence at all (a crowd file holding only its header is
``<path>: holds no sentence``) before any line's content is looked at.
The tag and crowd readers then check each line's field count, token and
labels with one row parser, ``_fields``.  Loading is strict: anything
malformed raises :class:`DataError` naming the file, line, and offending
content (bytes that are not UTF-8 by their line alone), and well-formed
files round-trip byte-exactly through load and save.

Run configs are ``key = value`` lines over a fixed key set; parsing then
serializing is canonicalizing (sorted keys) and stable.  A key that was
removed (``RETIRED``) is refused by name, with why it went, as the command
line refuses its flag.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, filterfalse, islice
from pathlib import Path
from typing import Iterator, Sequence

from .types import CrowdDataset, CrowdInstance, LabelScheme

ABSENT = "_"
CROWD_HEADER = "#annotators: "  # a crowd file's first line: this, then the annotator ids


class DataError(ValueError):
    """A malformed input file."""

    def __init__(self, path, line_no: int | None, message: str, content: str | None = None):
        where = f"{path}" if line_no is None else f"{path}, line {line_no}"
        detail = f"{where}: {message}"
        if content is not None:
            detail += f": {content!r}"
        super().__init__(detail)
        self.path = str(path)
        self.line_no = line_no

    @classmethod
    def not_utf8(cls, path, data: bytes, first_line: int = 1) -> DataError:
        """The error naming the line of ``data``, the bytes of ``path`` from
        the start of line ``first_line``, that holds their first bytes that
        are not UTF-8, counting lines as text mode does: ended by ``\\n``,
        ``\\r\\n`` or ``\\r``.  ``data`` must hold such bytes."""
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            head = data[: e.start]
            line = first_line + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            return cls(path, line, f"not UTF-8 (byte {data[e.start]:#04x}: {e.reason})")
        raise ValueError("the bytes are UTF-8")


def read_utf8(path) -> str:
    """The text of the file at ``path``, line ends read as text mode reads
    them; bytes that are not UTF-8 raise ``DataError.not_utf8``, naming
    their line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataError.not_utf8(path, Path(path).read_bytes()) from None


def _read_text(path) -> str:
    text = read_utf8(path)
    if not text:
        raise DataError(path, None, "empty file")
    if not text.endswith("\n"):
        raise DataError(path, None, "missing trailing newline")
    return text


def _check_blocks(path, text: str, first_line: int = 1) -> None:
    """Refuses ``text``, the file's lines from line ``first_line`` on, unless
    it holds blocks separated by exactly one blank line: a blank line first
    or after another, a trailing blank line, and a text with no block at all
    are errors, all found before any line's content is looked at."""
    if not text:
        raise DataError(path, None, "holds no sentence")
    blank = ("\n\n" + text).find("\n\n\n")  # where a blank line first or after another starts
    if blank >= 0:
        raise DataError(path, first_line + text.count("\n", 0, blank), "unexpected blank line")
    if text.endswith("\n\n"):
        raise DataError(path, first_line - 1 + text.count("\n"), "trailing blank line")


def _sentences(path, text: str, first_line: int = 1) -> Iterator[tuple[int, list[str]]]:
    """The blocks of ``text``, the file's lines from line ``first_line`` on,
    each with the number of its first line, once ``_check_blocks`` passed."""
    _check_blocks(path, text, first_line)
    blocks = [block.split("\n") for block in text[:-1].split("\n\n")]
    return zip(accumulate((len(lines) + 1 for lines in blocks), initial=first_line), blocks)


def _fields(path, first_line: int, lines: list[str], width: int) -> list[list[str]]:
    """The ``width`` tab-separated fields of each line of a block: a token,
    then labels, none of them empty."""
    rows = [line.split("\t") for line in lines]
    for n, (line, parts) in enumerate(zip(lines, rows), first_line):
        if len(parts) != width:
            raise DataError(path, n, f"expected {width} tab-separated fields, got {len(parts)}", line)
        if not parts[0]:
            raise DataError(path, n, "empty token")
        if "" in parts:
            raise DataError(path, n, "empty label", line)
    return rows


def read_tag_file(path) -> list[tuple[tuple[str, ...], list[str]]]:
    """Token and tag strings per sequence, with no label-scheme commitment."""
    raw = []
    for first_line, lines in _sentences(path, _read_text(path)):
        tokens, tags = zip(*_fields(path, first_line, lines, 2))
        raw.append((tokens, list(tags)))
    return raw


def load_conll(path, scheme: LabelScheme | None = None) -> CrowdDataset:
    """Tag file to a dataset with gold labels and no annotators.

    With ``scheme`` omitted it is inferred from the tags seen.
    """
    raw = read_tag_file(path)
    if scheme is None:
        scheme = LabelScheme.infer(tag for _, tags in raw for tag in tags)
    instances = []
    for tokens, tags in raw:
        try:
            gold = tuple(scheme.index(t) for t in tags)
        except KeyError as e:
            raise DataError(path, None, str(e)) from None
        instances.append(CrowdInstance(tokens, {}, gold))
    return CrowdDataset(scheme, tuple(instances), ())


def _serializable(field: str) -> bool:
    """Whether a nonempty field can be written to a text file that is read
    back in text mode: no tab, and nothing that ends a line there."""
    return bool(field) and not ("\t" in field or "\n" in field or "\r" in field)


def save_tagged(path, scheme: LabelScheme, token_seqs: Sequence[Sequence[str]], labels: Sequence[int]) -> None:
    """Write token sequences in canonical tag-file form, each token with its
    label id, ``labels`` holding one per token, the sequences laid end to end.

    The tokens are checked in one scan of their joined text, and only if it
    finds a token that would not reload is each looked at, to name the first
    such in the file.  The file is one join of each token and its label's
    tail, a tab, the label and a newline, with one more newline after a
    sequence that another follows.  A sequence with no token would be a
    blank line out of place, and is refused."""
    tokens = list(chain.from_iterable(token_seqs))
    if len(tokens) != len(labels):
        raise ValueError(f"{len(labels)} labels for {len(tokens)} tokens")
    empty = next((i for i, seq in enumerate(token_seqs) if not seq), None)
    if empty is not None:
        raise ValueError(f"sequence {empty} holds no token")
    joined = "\n".join(tokens)
    if "" in tokens or "\t" in joined or "\r" in joined or joined.count("\n") != max(len(tokens) - 1, 0):
        raise ValueError(f"token not serializable: {next(filterfalse(_serializable, tokens))!r}")
    tails = ["\t" + label + "\n" for label in scheme.labels]
    parts = [""] * (2 * len(tokens))
    parts[::2], parts[1::2] = tokens, map(tails.__getitem__, labels)
    for end in islice(accumulate(map(len, token_seqs)), max(len(token_seqs) - 1, 0)):
        parts[2 * end - 1] += "\n"
    Path(path).write_text("".join(parts) or "\n", encoding="utf-8")  # no sequence: a lone newline


def save_conll(path, ds: CrowdDataset) -> None:
    """Write each instance's gold labels in canonical tag-file form."""
    for i, inst in enumerate(ds.instances):
        if inst.gold is None:
            raise ValueError(f"instance {i} has no gold labels")
    tokens = [inst.tokens for inst in ds.instances]
    save_tagged(path, ds.scheme, tokens, list(chain.from_iterable(inst.gold for inst in ds.instances)))


def load_crowd(path, scheme: LabelScheme | None = None) -> CrowdDataset:
    """Crowd file to a dataset with annotations and no gold."""
    header, _, body = _read_text(path).partition("\n")
    if not header.startswith(CROWD_HEADER):
        raise DataError(path, 1, f"missing {CROWD_HEADER!r} header", header)
    roster = tuple(header[len(CROWD_HEADER) :].split(","))
    if any(not r or r != r.strip() for r in roster):
        raise DataError(path, 1, "malformed annotator id in header", header)
    if len(set(roster)) != len(roster):
        raise DataError(path, 1, "duplicate annotator id in header", header)
    raw = []
    for first_line, lines in _sentences(path, body, 2):
        tokens, *columns = zip(*_fields(path, first_line, lines, 1 + len(roster)))
        for ki, col in enumerate(columns):
            if col.count(ABSENT) not in (0, len(col)):
                raise DataError(
                    path,
                    first_line,
                    f"annotator {roster[ki]!r} labeled only part of the sequence",
                )
        raw.append((tokens, columns, first_line))
    if scheme is None:
        scheme = LabelScheme.infer(
            tag for _, columns, _ in raw for col in columns for tag in col if tag != ABSENT
        )
    instances = []
    for tokens, columns, first_line in raw:
        annotations = {}
        for ki, col in enumerate(columns):
            if col[0] == ABSENT:
                continue
            try:
                annotations[roster[ki]] = tuple(scheme.index(t) for t in col)
            except KeyError as e:
                raise DataError(path, first_line, str(e)) from None
        instances.append(CrowdInstance(tokens, annotations, None))
    return CrowdDataset(scheme, tuple(instances), roster)


def save_crowd(path, ds: CrowdDataset) -> None:
    """Write annotations in canonical crowd-file form."""
    if not ds.roster:
        raise ValueError("dataset has no annotator roster")
    for r in ds.roster:
        if not _serializable(r) or r != r.strip() or "," in r:
            raise ValueError(f"annotator id not serializable: {r!r}")
    blocks = []
    for inst in ds.instances:
        lines = []
        for j, tok in enumerate(inst.tokens):
            if not _serializable(tok):
                raise ValueError(f"token not serializable: {tok!r}")
            cols = [tok]
            for ann_id in ds.roster:
                labels = inst.annotations.get(ann_id)
                cols.append(ABSENT if labels is None else ds.scheme.labels[labels[j]])
            lines.append("\t".join(cols))
        blocks.append("\n".join(lines))
    header = CROWD_HEADER + ",".join(ds.roster)
    Path(path).write_text(header + "\n" + "\n\n".join(blocks) + "\n", encoding="utf-8")


def load_tokens(path) -> list[tuple[str, ...]]:
    """Token sequences from a tag file or a bare one-token-per-line file:
    the first field of each line, which must not be empty.  A crowd file,
    whose header would pass for a token, is refused by its first line.

    Once the blocks pass ``_check_blocks`` and no line starts with a tab,
    one regular-expression pass cuts every line's fields after its token,
    and the text is split into blocks and lines: no line is looked at
    alone."""
    text = _read_text(path)
    if text.startswith(CROWD_HEADER):
        raise DataError(path, 1, "a crowd file, not a token or tag file", text[: text.find("\n")])
    _check_blocks(path, text)
    tab = ("\n" + text).find("\n\t")  # where a line whose token is empty starts
    if tab >= 0:
        raise DataError(path, text.count("\n", 0, tab) + 1, "empty token")
    text = _PAST_TOKEN.sub("", text)
    return [tuple(block.split("\n")) for block in text[:-1].split("\n\n")]


_PAST_TOKEN = re.compile("\t.*")  # a line's fields after its token: "." stops at "\n" alone


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


CONFIG_KEYS: dict[str, type] = {
    "seed": int,
    "n_annotators": int,
    "target_precision": float,
    "precision_spread": float,
    "mix_type_swap": float,
    "mix_boundary_shift": float,
    "mix_entity_drop": float,
    "mix_spurious": float,
    "consistency_hi": float,
    "consistency_lo": float,
    "normalize_consistency": bool,
    "lattice_cap": int,
    "smoothing": float,
    "l2_penalty": float,
    "max_iters": int,
    "rel_tol": float,
    "init_max_iter": int,
    "inner_max_iter": int,
    "opt_tol": float,
    "ds_iters": int,
    "ds_tol": float,
}


# keys, and the flags of the same name, that were removed, and why
RETIRED: dict[str, str] = {
    "threads": "crowdseq starts no threads of its own, and no output ever depended on it",
}


def parse_config(text: str, path="<config>") -> dict:
    """``key = value`` lines into a typed dict; unknown keys are errors."""
    out: dict = {}
    for n, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise DataError(path, n, "expected 'key = value'", line)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in RETIRED:
            raise DataError(path, n, f"config key {key!r} was removed: {RETIRED[key]}", line)
        if key not in CONFIG_KEYS:
            raise DataError(path, n, f"unknown config key {key!r}", line)
        if key in out:
            raise DataError(path, n, f"duplicate config key {key!r}", line)
        caster = _parse_bool if CONFIG_KEYS[key] is bool else CONFIG_KEYS[key]
        try:
            out[key] = caster(value)
        except ValueError as e:
            raise DataError(path, n, f"bad value for {key!r} ({e})", line) from None
    return out


def serialize_config(cfg: dict) -> str:
    """Canonical form: sorted keys, one 'key = value' line each."""
    lines = []
    for key in sorted(cfg):
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        value = cfg[key]
        if CONFIG_KEYS[key] is bool:
            text = "true" if value else "false"
        else:
            text = repr(CONFIG_KEYS[key](value))
        lines.append(f"{key} = {text}")
    return "".join(line + "\n" for line in lines)


def load_config(path) -> dict:
    return parse_config(read_utf8(path), path)


def save_config(path, cfg: dict) -> None:
    Path(path).write_text(serialize_config(cfg), encoding="utf-8")
