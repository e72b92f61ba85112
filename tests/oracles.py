"""Brute-force reference implementations the fast code must match."""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from crowdseq import DataError, LabelScheme, crf
from crowdseq.annotators import resolve_mentions
from crowdseq.baselines import logsumexp as own_logsumexp
from crowdseq.crf import BOS_TOKEN, EOS_TOKEN, TEMPLATES, BatchPotentials, extract_features
from crowdseq.formats import read_utf8
from crowdseq.scoring import EntitySpan


@dataclass
class Chain:
    """The log-potentials of one sequence, as the references here take
    them: its (L, M) unary table and the (M, M) pairwise table of every
    step.  ``batch`` lays chains end to end for ``crowdseq.crf``."""

    unary: np.ndarray
    pairwise: np.ndarray

    @property
    def length(self) -> int:
        return self.unary.shape[0]

    @property
    def n_labels(self) -> int:
        return self.unary.shape[1]


def batch(*pots: Chain) -> BatchPotentials:
    """The chains laid end to end as one batch, under the first one's
    pairwise table."""
    return BatchPotentials(np.concatenate([pot.unary for pot in pots]), pots[0].pairwise, [pot.length for pot in pots])


def chain(model, tokens) -> Chain:
    """One sentence's potentials: ``extract_features`` on a batch of one."""
    pot = extract_features(model, [tokens])
    return Chain(pot.unary, pot.pairwise)


def paths(pots: BatchPotentials) -> list[tuple[int, ...]]:
    """``crf.viterbi``'s flat label column cut into one path per sequence."""
    labels = crf.viterbi(pots).tolist()
    ends = np.cumsum(pots.lengths, dtype=int).tolist()
    return [tuple(labels[end - n : end]) for n, end in zip(pots.lengths, ends)]


def marginals(pot: Chain) -> tuple[np.ndarray, np.ndarray]:
    """The label marginals (L, M) and pair marginals (L-1, M, M) of one
    sequence, from the factors ``crf._forward_backward`` gives a batch of
    one: each pair marginal is ``e * before[:, None] * after[None, :]``."""
    unary, pairwise, pk = crf._pack(batch(pot))
    _, uni, before, after, e = crf._forward_backward(unary, pairwise, pk)
    return uni, e * before[:, :, None] * after[:, None, :]


def sequence_score(pot: Chain, labels) -> float:
    """Unnormalized log-score of one label sequence."""
    z = np.asarray(labels, dtype=np.intp)
    if z.size != pot.length:
        raise ValueError("label/position length mismatch")
    s = float(pot.unary[np.arange(z.size), z].sum())
    if z.size > 1:
        s += float(pot.pairwise[z[:-1], z[1:]].sum())
    return s


def annotation_contexts(assigned, links, n_labels: int) -> list[int]:
    """Per position of one annotation, its context: the label the annotator
    gave the linked position (from ``resolve_mentions``), else their previous
    label, else the beginning-of-sequence slot ``n_labels``."""
    contexts = []
    for j, link in enumerate(links):
        if link is not None:
            contexts.append(assigned[link])
        else:
            contexts.append(n_labels if j == 0 else assigned[j - 1])
    return contexts


def factor_matrix(params, annotator: str, assigned, links) -> np.ndarray:
    """(L, M) table of log p(assigned_j | truth = m, context_j) for the named
    annotator, one table row per position."""
    k = params.annotator_index(annotator)
    contexts = annotation_contexts(assigned, links, params.n_labels)
    rows = [
        (params.local if link is None else params.mention)[k, c, :, y]
        for y, c, link in zip(assigned, contexts, links)
    ]
    with np.errstate(divide="ignore"):
        return np.log(np.array(rows).reshape(len(rows), params.n_labels))


def loop_annotation_entries(ds) -> list[tuple[int, int, int, int, bool]]:
    """(row, roster index, assigned, context, is_mention) of every labeled
    position of the corpus laid end to end, one annotation at a time, sorted
    row-major."""
    entries = []
    start = 0
    for inst in ds.instances:
        links = resolve_mentions(inst.tokens)
        for k, annotator in enumerate(ds.roster):
            if annotator in inst.annotations:
                assigned = inst.annotations[annotator]
                contexts = annotation_contexts(assigned, links, ds.scheme.size)
                for j, (y, c, link) in enumerate(zip(assigned, contexts, links)):
                    entries.append((start + j, k, y, c, link is not None))
        start += len(inst.tokens)
    return sorted(entries)


def annotation_loglik(params, annotator: str, assigned, truth, links) -> float:
    """Log-probability of one annotator's labels given a candidate truth sequence."""
    if len(assigned) != len(truth):
        raise ValueError("assigned/truth length mismatch")
    phi = factor_matrix(params, annotator, assigned, links)
    z = np.asarray(truth, dtype=np.intp)
    return float(phi[np.arange(z.size), z].sum())


def template_observations(tpl, toks) -> list[str | None]:
    """The observation ``tpl`` fires reading each of ``toks``, or None: its
    ``head`` and then the token's piece."""
    return [None if piece is None else tpl.head + piece for piece in tpl.pieces(toks)]


def position_observation(tpl, tokens, t: int) -> str | None:
    """The observation ``tpl`` fires at position t of ``tokens``, or None:
    the token it reads there, BOS/EOS past an edge, on its own."""
    i = t + tpl.offset
    tok = tokens[i] if 0 <= i < len(tokens) else BOS_TOKEN if i < 0 else EOS_TOKEN
    return template_observations(tpl, (tok,))[0]


def loop_observation_rows(model, tokens) -> list[np.ndarray]:
    """Per position, the interned ids of the observations firing there, in
    template order, one ``position_observation`` call per position and
    template."""
    rows = []
    for t in range(len(tokens)):
        obs = (position_observation(tpl, tokens, t) for tpl in TEMPLATES)
        rows.append(np.array([model.obs_index[o] for o in obs if o in model.obs_index], dtype=np.intp))
    return rows


def loop_obs_index(token_seqs, templates=TEMPLATES) -> dict[str, int]:
    """Observation ids in order of first appearance, interned by one
    ``position_observation`` call per position and template."""
    obs_index: dict[str, int] = {}
    for tokens in token_seqs:
        for t in range(len(tokens)):
            for tpl in templates:
                obs = position_observation(tpl, tokens, t)
                if obs is not None and obs not in obs_index:
                    obs_index[obs] = len(obs_index)
    return obs_index


def string_obs_index(token_seqs) -> dict[str, int]:
    """Observation ids in order of first appearance, interned from strings
    as ``build_model`` once did: each template's observation strings built
    once per token type (and the BOS/EOS token after them), spread over the
    positions as one (P, T) object array, and interned row-major by
    ``dict.fromkeys``."""
    table = crf._InputTable(list(token_seqs))
    columns = []
    for tpl in TEMPLATES:
        reads = table.types + ([BOS_TOKEN if tpl.offset < 0 else EOS_TOKEN] if tpl.offset else [])
        fired = np.empty(len(reads), dtype=object)
        fired[:] = template_observations(tpl, reads)
        columns.append(fired[table._reads(tpl.offset)])
    seen = dict.fromkeys(np.stack(columns, axis=1).ravel().tolist())
    seen.pop(None, None)  # a template that fires nothing
    return dict(zip(seen, range(len(seen))))


def all_sequences(pot: Chain):
    return itertools.product(range(pot.n_labels), repeat=pot.length)


def brute_log_partition(pot: Chain) -> float:
    return float(logsumexp([sequence_score(pot, z) for z in all_sequences(pot)]))


def brute_marginals(pot: Chain) -> tuple[np.ndarray, np.ndarray]:
    L, M = pot.length, pot.n_labels
    logZ = brute_log_partition(pot)
    unary = np.zeros((L, M))
    pairwise = np.zeros((max(L - 1, 0), M, M))
    for z in all_sequences(pot):
        p = np.exp(sequence_score(pot, z) - logZ)
        for t, lab in enumerate(z):
            unary[t, lab] += p
            if t > 0:
                pairwise[t - 1, z[t - 1], lab] += p
    return unary, pairwise


def brute_viterbi(pot: Chain) -> tuple[int, ...]:
    # ties resolve to the lexicographically smallest sequence
    best, best_z = -np.inf, None
    for z in all_sequences(pot):
        s = sequence_score(pot, z)
        if s > best + 1e-12:
            best, best_z = s, z
    return best_z


def brute_viterbi_last_first(pot: Chain) -> tuple[int, ...]:
    """The path ``viterbi`` picks among exact ties: of the sequences of the
    highest score, the first when compared from the last label back to the
    first."""
    scores = {z: sequence_score(pot, z) for z in all_sequences(pot)}
    best = max(scores.values())
    return min((z for z, s in scores.items() if s == best), key=lambda z: z[::-1])


def fired_observations(token_seqs) -> set[str]:
    """The observations ``TEMPLATES`` fire reading each token type of the
    input, or reading past a sentence edge: the per-position loop on each
    type alone and twice over, and the neighbour templates on one token."""
    types = {tok for tokens in token_seqs for tok in tokens}
    seqs = [seq for tok in types for seq in ((tok,), (tok, tok))]
    edges = loop_obs_index([("",)], [tpl for tpl in TEMPLATES if tpl.offset])
    return set(loop_obs_index(seqs)) | set(edges)


# line 4 of every model file: the one feature set
TEMPLATES_LINE = (
    "templates\ttoken-identity\ttoken-lowercase\tprefix-2\tprefix-3\tsuffix-2\tsuffix-3"
    "\tis-capitalized\tis-digit\tprevious-token\tnext-token\tlabel-bigram"
)

# Model files in the formats before v4, each one observation over three
# labels; load_model refuses them by their format.
_OLD_HEAD = "kind\tBIO\nlabels\tO\tB-X\tI-X\ntemplates\ttoken-identity\nobservations\t1\n"
OLD_MODEL_FILES = {
    "v1": f"crowdseq-crf v1\n{_OLD_HEAD}w=a\tO\t0.5\nw=a\tB-X\t-0.25\nw=a\tI-X\t0.0\n".encode(),
    "v2": f"crowdseq-crf v2\n{_OLD_HEAD}w=a\t0.5\t-0.25\t0.0\n".encode(),
    "v3": f"crowdseq-crf v3\n{_OLD_HEAD}w=a\n".encode() + np.array([0.5, -0.25, 0.0], dtype="<f8").tobytes(),
}


def name_index(names: list[bytes], name_hash=zlib.crc32) -> np.ndarray:
    """The format-v4 name index of the UTF-8 ``names`` in id order: each
    name's hash, ascending, equal hashes in id order, then the ids in that
    order, as little-endian uint32."""
    keys = [name_hash(name) for name in names]
    ids = sorted(range(len(names)), key=lambda i: (keys[i], i))
    return np.array([keys[i] for i in ids] + ids, dtype="<u4")


def model_file_parts(path) -> tuple[list[bytes], list[bytes], np.ndarray, bytes]:
    """A format-v4 model file in parts: its first five header lines, its
    name lines, its name index and its weight bytes."""
    *head, rest = Path(path).read_bytes().split(b"\n", 6)
    n_obs, size = int(head[4].split(b"\t")[1]), int(head[5].split(b"\t")[1])
    index = np.frombuffer(rest[size : size + 8 * n_obs], dtype="<u4")
    return head[:5], rest[:size].split(b"\n")[:-1], index, rest[size + 8 * n_obs :]


def write_model_file(path, head, names, weights: bytes, index=None, checksum=None) -> None:
    """The format-v4 writer over parts: the five header lines ``head``, the
    ``names`` line (the name block's size and the crc32 of the block and
    then the index), the name lines, the index (``name_index`` of the names
    unless given) and the weight bytes.  ``checksum`` replaces the crc32."""
    block = b"".join(name + b"\n" for name in names)
    index = name_index(names) if index is None else np.asarray(index, dtype="<u4")
    crc = zlib.crc32(index.tobytes(), zlib.crc32(block)) if checksum is None else checksum
    header = b"".join(line + b"\n" for line in head) + f"names\t{len(block)}\t{crc}\n".encode()
    Path(path).write_bytes(header + block + index.tobytes() + weights)


def brute_valid(candidates, scheme: LabelScheme) -> list[tuple[int, ...]]:
    out = []
    for z in itertools.product(*candidates):
        if not scheme.initial_allowed[z[0]]:
            continue
        if all(scheme.allowed_transitions[a, b] for a, b in zip(z, z[1:])):
            out.append(z)
    return out


@dataclass(frozen=True)
class PositionConsistency:
    """Vote summary for one position."""

    labels: tuple[int, ...]  # distinct labels used, ascending
    counts: tuple[int, ...]  # votes per label, aligned with ``labels``
    consistency: Fraction  # plurality count over distinct-label count

    @property
    def top_labels(self) -> tuple[int, ...]:
        top = max(self.counts)
        return tuple(l for l, c in zip(self.labels, self.counts) if c == top)


def label_consistency(instance, j: int) -> PositionConsistency:
    """Vote summary at position j, from a vote dict."""
    votes: dict[int, int] = {}
    for labels in instance.annotations.values():
        votes[labels[j]] = votes.get(labels[j], 0) + 1
    if not votes:
        raise ValueError(f"no annotations at position {j}")
    labs = tuple(sorted(votes))
    counts = tuple(votes[l] for l in labs)
    return PositionConsistency(labs, counts, Fraction(max(counts), len(labs)))


def candidate_labels(entry: PositionConsistency, scheme: LabelScheme, hi, lo) -> tuple[int, ...]:
    """Candidate truth labels from one position's vote summary: the
    plurality labels at or above ``hi``, the labels used strictly between
    the thresholds, every label at or below ``lo``."""
    if not hi > lo >= 0:
        raise ValueError("thresholds must satisfy hi > lo >= 0")
    if entry.consistency >= hi:
        return entry.top_labels
    if entry.consistency > lo:
        return entry.labels
    return tuple(range(scheme.size))


def loop_candidate_sets(instance, scheme: LabelScheme, hi, lo, normalize_by=None):
    """``lattice.candidate_sets`` one position at a time."""
    full = tuple(range(scheme.size))
    if not instance.annotations:
        return tuple(full for _ in instance.tokens)
    sets = []
    for j in range(len(instance.tokens)):
        entry = label_consistency(instance, j)
        if normalize_by:
            entry = PositionConsistency(entry.labels, entry.counts, entry.consistency / normalize_by)
        sets.append(candidate_labels(entry, scheme, hi, lo))
    return tuple(sets)


def loop_prefix_counts(cand, scheme: LabelScheme) -> list[dict[int, int]]:
    """Per position, the number of constraint-respecting prefix paths that
    end in each label; a label no such prefix reaches is left out, so an
    empty entry marks the first position where every path is blocked."""
    allowed = scheme.allowed_transitions
    init = scheme.initial_allowed
    counts = [{s: 1 for s in cand[0] if init[s]}]
    for j in range(1, len(cand)):
        prev = counts[-1]
        nxt: dict[int, int] = {}
        for s in cand[j]:
            total = sum(c for sp, c in prev.items() if allowed[sp, s])
            if total:
                nxt[s] = total
        counts.append(nxt)
    return counts


def loop_lattice(candidates, scheme: LabelScheme):
    """(final_candidates, states, n_valid, widened) of
    ``lattice.enumerate_valid`` from a dict forward pass rerun after each
    widening and a set backward pass."""
    cand = [tuple(c) for c in candidates]
    full = tuple(range(scheme.size))
    widened: list[int] = []
    while True:
        fwd = loop_prefix_counts(cand, scheme)
        blocked = next((j for j, f in enumerate(fwd) if not f), None)
        if blocked is None:
            break
        if blocked in widened:
            raise ValueError(f"constraints eliminate every candidate at position {blocked}")
        widened.append(blocked)
        cand[blocked] = full
    bwd = [set(fwd[-1])]
    for j in range(len(cand) - 2, -1, -1):
        bwd.insert(0, {s for s in fwd[j] if any(scheme.allowed_transitions[s, n] for n in bwd[0])})
    states = tuple(tuple(sorted(b)) for b in bwd)
    return tuple(cand), states, sum(fwd[-1].values()), tuple(widened)


def random_potentials(rng, L: int, M: int) -> Chain:
    pairwise = rng.normal(size=(M, M))
    return Chain(unary=rng.normal(size=(L, M)), pairwise=pairwise)


def brute_weighted_nll(model, data, l2: float) -> tuple[float, np.ndarray]:
    """Weighted CRF objective and gradient by enumerating every label sequence.

    Each sequence's feature counts are laid out like the weight vector, so the
    gradient is sum_i w_i (E[counts] - counts(z_i)) + l2 * theta.
    """
    m = model.scheme.size
    nu = model.n_obs * m
    theta = model.weights

    def counts(rows, z):
        phi = np.zeros(model.dim)
        for t, lab in enumerate(z):
            np.add.at(phi, rows[t] * m + lab, 1.0)
            if t > 0:
                phi[nu + z[t - 1] * m + lab] += 1.0
        return phi

    value = 0.5 * l2 * float(theta @ theta)
    grad = l2 * theta.copy()
    for tokens, labels, w in data:
        rows = loop_observation_rows(model, tokens)
        phis = np.array([counts(rows, z) for z in itertools.product(range(m), repeat=len(tokens))])
        scores = phis @ theta
        logz = float(logsumexp(scores))
        p = np.exp(scores - logz)
        observed = counts(rows, labels)
        value += w * (logz - float(observed @ theta))
        grad += w * (p @ phis - observed)
    return value, grad


def sorted_objective(model, data, l2: float):
    """``value_and_grad`` of the weighted objective as it was built from
    soft-count examples ``(tokens, (unary, pair), weight)`` before EM packed
    its corpus once per fit: the examples of positive weight sorted longest
    first, packed in that order and featurized from their strings, their
    weighted label counts laid end to end in that order and gathered into
    packed order, and their weighted pair counts summed in that order, from
    zero, by Python's ``sum``."""
    m = model.scheme.size
    kept = [(tokens, w * uni, w * pair, w) for tokens, (uni, pair), w in data if w > 0]
    kept.sort(key=lambda e: -len(e[0]))
    pk = crf._Packing([len(tokens) for tokens, _, _, _ in kept])
    seq_w = np.array([w for _, _, _, w in kept])
    row_w = seq_w[pk.row_seq, None]
    ids = crf._InputTable([tokens for tokens, _, _, _ in kept]).look_up(model).ids()[pk.from_concat]
    entry_rows, tpl = np.nonzero(ids >= 0)
    bins = (ids[entry_rows, tpl][:, None] * m + np.arange(m)).ravel()

    def scatter(table):
        return np.bincount(bins, table.take(entry_rows, axis=0).ravel(), minlength=model.n_obs * m).reshape(-1, m)

    emp_u = scatter(np.concatenate([uni for _, uni, _, _ in kept])[pk.from_concat])
    emp_b = sum((pair for _, _, pair, _ in kept), np.zeros((m, m)))

    def value_and_grad(theta):
        nu = model.n_obs * m
        wu, wb = theta[:nu].reshape(model.n_obs, m), theta[nu:].reshape(m, m)
        logz, uni, before, after, e = crf._forward_backward(crf._unary_table(wu, ids), wb, pk)
        value = float(seq_w @ logz) - float((wu * emp_u).sum()) - float((wb * emp_b).sum())
        pair = e * ((before * row_w[pk.later]).T @ after)
        grad = np.concatenate([(scatter(row_w * uni) - emp_u).ravel(), (pair - emp_b).ravel()])
        return value + 0.5 * l2 * float(theta @ theta), grad + l2 * theta

    return value_and_grad


def log_space_messages(pot: Chain) -> tuple[np.ndarray, np.ndarray]:
    """The log-space forward and backward messages (L, M) of one sequence:
    alpha[t, j], the log-sum of the scores of the prefixes ending in label j
    at t, and beta[t, j], of the suffixes following it."""
    unary, pairwise = pot.unary, pot.pairwise
    alpha = unary.copy()
    for t in range(1, len(unary)):
        alpha[t] += own_logsumexp(alpha[t - 1, :, None] + pairwise, axis=0)
    beta = np.zeros_like(unary)
    for t in range(len(unary) - 2, -1, -1):
        beta[t] = own_logsumexp(pairwise + (unary[t + 1] + beta[t + 1])[None, :], axis=1)
    return alpha, beta


def range_gap(pot: Chain) -> float:
    """The largest of the log-ratios that the scaled kernel in
    ``crowdseq.crf`` must hold within the float64 range, from the log-space
    messages.  Per position t: log-sum alpha_t + log-sum beta_t - log Z
    (prefixes and suffixes that no whole path joins).  Per step t >= 1, with
    S = log-sum alpha_{t-1} + the largest pairwise score + position
    t's largest unary score: S - log-sum alpha_t (the forward mass the step
    loses) and S + log-sum beta_t - log Z (the same for whole paths).  The
    kernel may refuse a sequence only where this exceeds ~708 nats."""
    alpha, beta = log_space_messages(pot)
    fwd, bwd = own_logsumexp(alpha, axis=1), own_logsumexp(beta, axis=1)
    logz = float(own_logsumexp(alpha[-1]))
    gaps = [fwd + bwd - logz]
    if len(alpha) > 1:
        peak = pot.pairwise.max()
        best = pot.unary.max(axis=1)
        step = fwd[:-1] + np.where(np.isfinite(peak), peak, 0.0) + np.where(np.isfinite(best), best, 0.0)[1:]
        gaps += [step - fwd[1:], step + bwd[1:] - logz]
    return float(max(g.max() for g in gaps))


def log_space_inference(pot: Chain) -> tuple[float, np.ndarray, np.ndarray]:
    """log Z, unary marginals (L, M) and pair marginals (L-1, M, M) of one
    sequence by the log-space forward-backward recursion with max-shift
    stabilization that ``crowdseq.crf`` ran before its scaled kernel, each
    marginal renormalized to sum to 1 as it did; -inf potentials rule labels
    and transitions out, and a sequence with no finite-scoring path gives
    log Z = -inf (its marginals are then NaN)."""
    unary, pairwise = pot.unary, pot.pairwise
    alpha, beta = log_space_messages(pot)
    logz = float(own_logsumexp(alpha[-1]))
    with np.errstate(invalid="ignore"):
        uni = np.exp(alpha + beta - logz)
        uni /= uni.sum(axis=1, keepdims=True)
        pair = np.array(
            [
                np.exp(alpha[t - 1, :, None] + pairwise + (unary[t] + beta[t])[None, :] - logz)
                for t in range(1, len(unary))
            ]
        ).reshape(-1, *uni.shape[1:] * 2)
        pair /= pair.sum(axis=(1, 2), keepdims=True)
    return logz, uni, pair


def log_space_weighted_nll(model, data, l2: float) -> tuple[float, np.ndarray]:
    """The weighted CRF objective and gradient from ``log_space_inference``,
    one example at a time: sum_i w_i (log Z_i - score(z_i)) + (l2/2)||theta||^2
    and its gradient, each label sequence counted one-hot."""
    m = model.scheme.size
    nu = model.n_obs * m
    grad = l2 * model.weights.copy()
    value = 0.5 * l2 * float(model.weights @ model.weights)
    for tokens, labels, w in data:
        pot = chain(model, tokens)
        logz, uni, pair = log_space_inference(pot)
        value += w * (logz - sequence_score(pot, labels))
        observed = np.eye(m)[list(labels)]
        for t, rows in enumerate(loop_observation_rows(model, tokens)):
            for r in rows:
                grad[r * m : (r + 1) * m] += w * (uni[t] - observed[t])
        bigram = w * pair.sum(axis=0)
        np.add.at(bigram, (list(labels[:-1]), list(labels[1:])), -w)
        grad[nu:] += bigram.ravel()
    return value, grad


def loop_feasible_shifts(span: EntitySpan, spans, length: int) -> list[EntitySpan]:
    """The one-position boundary shifts of ``span`` that stay in the
    sentence, keep a token and overlap none of the other ``spans``, each
    candidate checked against every span."""
    out = []
    for ds_, de in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        a, b = span.start + ds_, span.end + de
        if a < 0 or b > length or a >= b:
            continue
        if any(s != span and a < s.end and s.start < b for s in spans):
            continue
        out.append(EntitySpan(a, b, span.entity_type))
    return out


def mv_token(instance) -> tuple[int, ...]:
    """Per-position plurality label, the lowest of tied labels, counted one
    position at a time."""
    if not instance.annotations:
        raise ValueError("no annotations to vote over")
    out = []
    for column in zip(*instance.annotations.values()):
        counts = {label: column.count(label) for label in column}
        out.append(min(counts, key=lambda label: (-counts[label], label)))
    return tuple(out)


def loop_ds_fit(ds, iters: int = 100, tol: float = 1e-8, smoothing: float = 1.0):
    """Dawid-Skene's confusion tables, prior, history and per-token
    posteriors (T, M) as ``baselines.ds_fit`` estimates them, with the labels
    laid out position by position and every count, sum and log factor taken
    one annotator at a time."""
    m, k = ds.scheme.size, len(ds.roster)
    a = np.array(
        [
            [inst.annotations[r][j] if r in inst.annotations else -1 for r in ds.roster]
            for inst in ds.instances
            for j in range(len(inst.tokens))
        ],
        dtype=np.intp,
    ).reshape(-1, k)
    post = np.zeros((len(a), m))
    for ki in range(k):
        mask = a[:, ki] >= 0
        post[mask, a[mask, ki]] += 1.0
    post /= post.sum(axis=1, keepdims=True)
    history = []
    confusion = np.zeros((k, m, m))
    for _ in range(max(1, iters)):
        prior = (post.sum(axis=0) + smoothing) / (len(a) + smoothing * m)
        for ki in range(k):
            mask = a[:, ki] >= 0
            counts = np.zeros((m, m))
            np.add.at(counts.T, a[mask, ki], post[mask])
            total = post[mask].sum(axis=0)[:, None] + smoothing * m
            safe = np.where(total > 0, total, 1.0)
            confusion[ki] = np.where(total > 0, (counts + smoothing) / safe, 1.0 / m)  # no mass: uniform
        with np.errstate(divide="ignore"):
            logpost = np.tile(np.log(prior), (len(a), 1))
            for ki in range(k):
                mask = a[:, ki] >= 0
                logpost[mask] += np.log(confusion[ki][:, a[mask, ki]]).T
        norm = own_logsumexp(logpost, axis=1)
        value = float(norm.sum())
        if smoothing > 0:
            value += smoothing * float(np.log(prior).sum() + np.log(confusion).sum())
        history.append(value)
        post = np.exp(logpost - norm[:, None])
        if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
            break
    return confusion, prior, history, post


def line_walk_tokens(path) -> list[tuple[str, ...]]:
    """Token sequences of a tag or token file by a walk over its numbered
    lines, with the errors and line numbers ``formats.load_tokens`` must
    give: a blank line first or after another, a trailing blank line, then
    the first empty token."""
    text = read_utf8(path)
    if not text:
        raise DataError(path, None, "empty file")
    if not text.endswith("\n"):
        raise DataError(path, None, "missing trailing newline")
    lines = text.split("\n")[:-1]
    blocks: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    for n, line in enumerate(lines, start=1):
        if line == "":
            if not current:
                raise DataError(path, n, "unexpected blank line")
            blocks.append(current)
            current = []
        else:
            current.append((n, line))
    if not current:
        raise DataError(path, len(lines), "trailing blank line")
    blocks.append(current)
    out = []
    for block in blocks:
        tokens = []
        for n, line in block:
            token = line.split("\t")[0]
            if not token:
                raise DataError(path, n, "empty token")
            tokens.append(token)
        out.append(tuple(tokens))
    return out
