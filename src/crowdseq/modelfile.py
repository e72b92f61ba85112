"""The model file, format v4, and its reader.

``crf.save_model`` writes format v4: six UTF-8 header lines (the magic
line, ``kind``, ``labels``, ``templates``, ``observations`` and ``names``;
the ``templates`` line names ``TEMPLATES`` and the label bigram, and
``crf.load_model`` refuses any other; ``names`` holds the name block's byte
size and one crc32 over the name block and then the index), the name
block, one line per observation holding its name, in id order, the name
index, and the weight vector as raw little-endian float64, with nothing
after it.  The index is n uint32, the crc32 of each name's UTF-8 bytes
(``crf._name_hash``), ascending, then the n uint32 ids in that order, equal
hashes in id order, all little-endian.  The writer's constants stay in
``crf`` with ``save_model``, so a command that trains never loads this
module; ``crf.load_model`` imports it when it is first called.

``read`` checks the file's size against the header first, reads the index
and refuses one that is not sorted so or whose ids are not a permutation,
then streams the names ``_NAME_BYTES`` at a time, each slice cut after its
last line: a line ends at ``\\n`` alone, and a name holding a tab or a CR,
or bytes that are not UTF-8, is refused by its line, as is a block of
another line count; the checksum then covers the names and the index.
Loaded whole, every name is interned (a repeat is refused by its line) and
hashed again against the index; the weights go straight into one
preallocated array with ``readinto``.  Files of the formats before v4 are
refused by name: the model must be retrained.

``crf.decode_file`` featurizes the token sequences to decode once: its
input table numbers the observations ``TEMPLATES`` fire on their token
types, and the BOS/EOS ones, by first use, template by template
(``_InputTable.number``).  The identity and neighbour templates fire a
distinct observation on each type, so each takes a block of numbers; the
others number each distinct piece, so no observation is built twice.
``read`` hashes each of those once and finds its rows through the index
(``_NameBlock.find``): one ``searchsorted`` per chunk of sorted hashes,
then, as the names stream past, a byte comparison of each row found with
the input's name, so a name of another hash is never hashed or looked up.
Names of one hash sit together in the index, so the duplicate check
compares just those.  Each row found goes to its number in one (rows, M)
weight table, read a chunk of rows at a time, a zero row standing for an
observation the file lacks, so decode's memory grows with its input's
vocabulary, not the model's.  The table's numbers, read after the weights
are in, index those rows: ``crf.extract_features`` scores each type once
and adds each position's neighbour rows, so each position sums the same
weight rows in the same order as under the whole model (a zero row adds
+0.0 as the id -1 does), and ``crf.viterbi`` runs one packed pass over
that one (P, M) table, its labels coming back as one flat column, the
sequences laid end to end.
"""

from __future__ import annotations

import io
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import Iterable

import numpy as np

from . import crf
from .features import _InputTable
from .formats import DataError
from .types import LabelScheme

_RETIRED_MAGICS = tuple(f"crowdseq-crf v{i}".encode() for i in (1, 2, 3))  # refused by name: retrain
_HEADER_LINES = 6

_CHUNK_LINES = 4096  # weight rows read at once
_NAME_BYTES = 1 << 16  # bytes of observation names read at once


class _Numbering(Mapping):
    """Names numbered 0, 1, ... in list order, as a read-only mapping that
    takes its length and order from the list: ``load_model`` gives a model
    the observations an input table numbers this way, since decode never
    looks one up, and builds the dict a look-up needs at the first."""

    def __init__(self, names: list[str]):
        self.names = names

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __getitem__(self, name: str) -> int:
        return self._numbers[name]

    @cached_property
    def _numbers(self) -> dict[str, int]:
        return dict(zip(self.names, range(len(self.names))))


@dataclass
class _NameBlock:
    """The name block of an open v4 file and its index: ``keys`` and
    ``ids``, read and checked by ``open``.  ``read`` streams the names,
    ``intern`` and ``find`` use it."""

    fh: io.BufferedReader
    path: str
    size: int  # bytes of the names
    checksum: int  # crc32 of the names and then the index
    index: np.ndarray  # the hashes, ascending, then the ids, as little-endian uint32

    @property
    def keys(self) -> np.ndarray:
        return self.index[: self.index.size // 2]

    @property
    def ids(self) -> np.ndarray:
        return self.index[self.index.size // 2 :]

    def bad(self, row: int, why: str) -> ValueError:
        return ValueError(f"{self.path}, line {_HEADER_LINES + 1 + row}: {why}")

    @classmethod
    def open(cls, fh, path, n_obs: int, size: int, checksum: int) -> _NameBlock:
        """Reads the index that follows the ``size`` bytes of names at the
        file position, and refuses one whose hashes do not ascend, with
        equal hashes in id order, or whose ids are not a permutation of the
        rows.  Leaves ``fh`` at the first name."""
        start = fh.tell()
        block = cls(fh, str(path), size, checksum, np.empty(2 * n_obs, dtype="<u4"))
        fh.seek(start + size)
        fh.readinto(block.index)
        fh.seek(start)
        keys, ids = block.keys, block.ids
        if ((keys[1:] < keys[:-1]) | ((keys[1:] == keys[:-1]) & (ids[1:] <= ids[:-1]))).any():
            raise ValueError(f"{path}: the name index is not sorted by hash and id")
        seen = np.zeros(n_obs, dtype=bool)
        if n_obs and ids.max() < n_obs:
            for lo in range(0, n_obs, _CHUNK_LINES):  # ids index as intp: a chunk at a time
                seen[ids[lo : lo + _CHUNK_LINES]] = True
        if not seen.all():
            raise ValueError(f"{path}: the name index ids are not a permutation of the names")
        return block

    def read(self, visit) -> None:
        """Reads the names ``_NAME_BYTES`` at a time, each slice cut after
        its last ``\\n``, and calls ``visit(first, raw, ends, text)`` on
        each slice, of rows ``first``, ``first + 1``, ...: its bytes, the
        offset of each line's ``\\n`` and its text.  Lines end at ``\\n``
        alone; names the first that holds a tab or a CR or is not UTF-8, and
        refuses a block of other than one whole line per id, or whose
        checksum with the index is wrong.  Leaves ``fh`` at the weights."""
        n_obs = self.index.size // 2
        crc, rest, row, left = 0, b"", 0, self.size
        while left > 0 and (data := self.fh.read(min(_NAME_BYTES, left))):
            left -= len(data)
            crc = zlib.crc32(data, crc)
            raw = rest + data
            ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
            end = int(ends[-1]) + 1 if ends.size else 0
            raw, rest = raw[:end], raw[end:]
            cut = min((at for at in (raw.find(b"\t"), raw.find(b"\r")) if at >= 0), default=end)
            try:
                text = raw[:cut].decode("utf-8")  # UTF-8 never holds a tab or CR byte inside a character
            except UnicodeDecodeError:
                raise DataError.not_utf8(self.path, raw, _HEADER_LINES + 1 + row) from None
            if cut < end:
                raise self.bad(row + raw.count(b"\n", 0, cut), f"observation name holds {chr(raw[cut])!r}")
            if ends.size and row + ends.size <= n_obs:
                visit(row, raw, ends, text)
            row += ends.size
        if rest:
            raise self.bad(row, "the name block ends inside this line")
        if row != n_obs:
            raise ValueError(f"{self.path}: expected {n_obs} observation names, found {row}")
        self.fh.seek(self.index.nbytes, io.SEEK_CUR)
        if zlib.crc32(self.index, crc) != self.checksum:
            raise ValueError(f"{self.path}: the names or their index do not match the header's checksum")

    def intern(self) -> dict[str, int]:
        """Every name, numbered from 0 in file order; a repeated name, and
        one whose hash is not the index's, raise, naming its line."""
        obs_index: dict[str, int] = {}
        hashes = np.empty(self.index.size // 2, dtype=np.uint32)

        def visit(first, raw, ends, text):
            names = text.split("\n")  # not splitlines, which also ends a line at \x1c, \x85, \u2028, ...
            names.pop()  # the empty string after the last newline
            obs_index.update(zip(names, range(first, first + len(names))))
            if len(obs_index) < first + len(names):  # a repeated name: find its line
                known = set(islice(obs_index, first))  # an update keeps a key's place
                for i, name in enumerate(names, first):
                    if name in known:
                        raise self.bad(i, f"duplicate observation {name!r}")
                    known.add(name)
            hashes[first : first + len(names)] = np.fromiter(map(crf._name_hash, raw.split(b"\n")), np.uint32, len(names))

        self.read(visit)
        wrong = self.ids[hashes[self.ids] != self.keys]
        if wrong.size:
            raise self.bad(int(wrong.min()), "the name index holds another hash for this name")
        return obs_index

    def find(self, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The file rows, ascending, of ``names``, an input table's
        observations in number order (``_InputTable.number``), and their
        numbers.

        The names are encoded once, ``_CHUNK_LINES`` at a time, and each
        one's bytes hashed, measured and kept end to end.  A chunk's hashes,
        sorted, meet the index in one ``searchsorted``, and each run of equal
        hashes there gives (row, number) pairs, whose bytes ``read`` compares
        as it streams the rows.  Names of one hash sit next to each other in
        the index, so the duplicate check compares only those, naming the
        later line."""
        keys, ids, n_obs, n_q = self.keys, self.ids, self.keys.size, len(names)
        offsets = np.zeros(n_q + 1, dtype=np.intp)  # of each name's bytes in encoded
        encoded = []  # the names' bytes end to end, a chunk at a time
        pairs = [np.zeros(0, np.int64)]  # row * n_q + number
        for lo in range(0, n_q, _CHUNK_LINES):
            # each name encoded once; its bytes live only while their chunk is hashed, measured
            # and joined: many small objects alive at once would leave the heap larger for the
            # rest of decode
            chunk = list(_utf8(names[lo : lo + _CHUNK_LINES]))
            encoded.append(b"".join(chunk))
            offsets[lo + 1 : lo + 1 + len(chunk)] = np.fromiter(map(len, chunk), np.intp, len(chunk))
            hashes = np.fromiter(map(crf._name_hash, chunk), np.uint32, len(chunk))
            order = np.argsort(hashes)
            hashes = hashes[order]
            at = np.searchsorted(keys, hashes)
            live = np.flatnonzero(at < n_obs)
            while live.size:  # walk each run of equal hashes
                live = live[keys[at[live]] == hashes[live]]
                pairs.append(ids[at[live]].astype(np.int64) * n_q + order[live] + lo)
                at[live] += 1
                live = live[at[live] < n_obs]
        np.cumsum(offsets, out=offsets)
        encoded = b"".join(encoded)
        pairs = np.concatenate(pairs)
        pairs.sort()
        matched = np.zeros(pairs.size, dtype=bool)
        runs = np.flatnonzero(keys[1:] == keys[:-1]).tolist()  # each index entry whose hash the next shares
        twins = ids[sorted({*runs, *(i + 1 for i in runs)})].tolist()  # index order: each run's rows ascend
        looked = np.array(sorted(twins), dtype=np.intp)
        named = {}

        def visit(first, raw, ends, text):
            a, b = np.searchsorted(pairs, (first * n_q, (first + ends.size) * n_q))
            c, d = np.searchsorted(looked, (first, first + ends.size))
            starts = np.concatenate(([0], ends[:-1] + 1))
            for row in looked[c:d].tolist():
                named[row] = raw[starts[row - first] : ends[row - first]]
            rows, picks = np.divmod(pairs[a:b], n_q)
            lo, hi = starts[rows - first], ends[rows - first]
            name_lo, name_hi = offsets[picks], offsets[picks + 1]
            same = np.array_equal(hi - lo, name_hi - name_lo)
            if same and _gather(raw, lo, hi) == _gather(encoded, name_lo, name_hi):
                matched[a:b] = True
            else:  # a name of the input shares a hash with another name of the file
                spans = zip(lo.tolist(), hi.tolist(), name_lo.tolist(), name_hi.tolist())
                matched[a:b] = [raw[i:j] == encoded[k:n] for i, j, k, n in spans]

        self.read(visit)
        seen, repeats = set(), []
        for row in twins:
            if named[row] in seen:
                repeats.append(row)
            seen.add(named[row])
        if repeats:
            row = min(repeats)
            raise self.bad(row, f"duplicate observation {named[row].decode()!r}")
        return np.divmod(pairs[matched], n_q)


def _utf8(names: Iterable[str]):
    """Each name's bytes, one at a time; a lone surrogate gives bytes that
    are not UTF-8, so never those of a name in a file."""
    return map(str.encode, names, repeat("utf-8"), repeat("surrogatepass"))


def _gather(data, starts: np.ndarray, stops: np.ndarray) -> bytes:
    """The bytes ``data[start:stop]`` of each start and stop, end to end."""
    sizes = stops - starts
    at = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    return np.frombuffer(data, dtype=np.uint8)[at].tobytes()


def _read_weights(fh, n_obs: int, m: int, weights: np.ndarray, picks) -> None:
    """Reads the raw little-endian float64 weights that end the file, the
    (n_obs, M) unary block and then the (M, M) bigram block, into
    ``weights``, an input table's (rows, M) weights and then the bigram's:
    the unary block is read ``_CHUNK_LINES`` rows at a time, and the rows
    ``picks`` holds, file rows (ascending) and their numbers, go to their
    numbers."""
    rows, numbers = picks
    unary = weights[: weights.size - m * m].reshape(-1, m)
    buf = np.empty((min(_CHUNK_LINES, n_obs), m), dtype="<f8")
    bounds = [*np.searchsorted(rows, range(0, n_obs, _CHUNK_LINES)).tolist(), rows.size]
    for lo, a, b in zip(range(0, n_obs, _CHUNK_LINES), bounds, bounds[1:]):
        block = buf[: min(_CHUNK_LINES, n_obs - lo)]
        fh.readinto(block)
        unary[numbers[a:b]] = block[rows[a:b] - lo]
    fh.readinto(weights[unary.size :])


def read(path, inputs: _InputTable | None = None) -> crf.CrfModel:
    """``crf.load_model``: this module is its body, imported on the first call."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != crf.MODEL_MAGIC.encode():
            if magic in _RETIRED_MAGICS:
                raise ValueError(f"{path}: {magic.decode()} files are no longer read; retrain the model")
            raise ValueError(f"{path}: not a {crf.MODEL_MAGIC} file")
        lines = [fh.readline() for _ in range(_HEADER_LINES - 1)]
        try:
            header = [crf.MODEL_MAGIC, *(line.decode("utf-8").rstrip("\n") for line in lines)]
        except UnicodeDecodeError:
            raise DataError.not_utf8(path, b"".join(lines), 2) from None

        def fields(i, tag, n=None):
            parts = header[i].split("\t")
            if parts[0] != tag or (n is not None and len(parts) != n):
                raise ValueError(f"{path}, line {i + 1}: expected {tag!r}")
            return parts[1:]

        def count(i, text, what):
            if not text.isdecimal():
                raise ValueError(f"{path}, line {i + 1}: {what} {text!r} is not a nonnegative integer")
            return int(text)

        kind = fields(1, "kind", 2)[0]
        labels = tuple(fields(2, "labels"))
        if header[3] != crf._TEMPLATES_LINE:
            raise ValueError(f"{path}, line 4: expected {crf._TEMPLATES_LINE!r}")
        n_obs = count(4, fields(4, "observations", 2)[0], "observation count")
        size, checksum = (count(5, text, what) for text, what in zip(fields(5, "names", 3), ("name bytes", "checksum")))
        scheme = LabelScheme(labels, kind)
        model = crf.CrfModel(scheme, {}, np.zeros(0))
        m = scheme.size
        start = fh.tell()
        found = fh.seek(0, io.SEEK_END) - start - size - 8 * n_obs
        expected = (n_obs + m) * m * 8
        if found < 0:
            raise ValueError(f"{path}: the file ends inside its names or their index")
        if found != expected:
            raise ValueError(f"{path}: expected {expected} bytes of weights, found {found}")
        fh.seek(start)
        names = _NameBlock.open(fh, path, n_obs, size, checksum)
        if inputs is None:
            model.obs_index = names.intern()
            model.weights = np.empty((n_obs + m) * m, dtype="<f8")
            fh.readinto(model.weights)
        else:
            model.obs_index = _Numbering(inputs.number())
            picks = names.find(model.obs_index.names)
            model.weights = np.zeros((len(model.obs_index) + m) * m, dtype="<f8")
            _read_weights(fh, n_obs, m, model.weights, picks)
    return model
