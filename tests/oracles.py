"""Independent reference implementations used to validate the package.

Everything here is written for clarity over speed (plain Python loops,
exact rationals) and deliberately avoids reusing the package's own
vectorized code paths, so agreement between the two is meaningful.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from ehrlich.errors import ParseError


def enumerate_sequences(vocab_size: int, length: int) -> np.ndarray:
    """All vocab_size**length sequences as an (N, L) array, lexicographic."""
    grids = np.meshgrid(*([np.arange(vocab_size)] * length), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)


def feasible_by_scan(tokens, mask) -> bool:
    """Adjacent-transition check as a plain Python scan."""
    seq = [int(t) for t in tokens]
    for a, b in zip(seq, seq[1:]):
        if not bool(mask[a, b]):
            return False
    return True


def best_window_matches(tokens, motif, offsets) -> int:
    """Max match count over every window start; out-of-range = mismatch."""
    length = len(tokens)
    best = 0
    for start in range(length):
        matched = 0
        for token, offset in zip(motif, offsets):
            pos = start + int(offset)
            if pos < length and int(tokens[pos]) == int(token):
                matched += 1
        best = max(best, matched)
    return best


def exact_motif_value(tokens, motif, offsets, q: int, a=0) -> Fraction:
    k = len(motif)
    h = Fraction(best_window_matches(tokens, motif, offsets) // (k // q), q)
    return a * h**3 - a * h**2 + h


def exact_product(tokens, motifs, offsets, q: int, a=0) -> Fraction:
    value = Fraction(1)
    for motif, offs in zip(motifs, offsets):
        value *= exact_motif_value(tokens, motif, offs, q, a)
    return value


def score_batch_by_loops(tokens, mask, motifs, offsets, divisor, q, a):
    """``kernels.score_batch`` as per-row loops, in float64.

    The reference for the kernel's float-operation order: each feasible
    row is 1.0 times g(h) per motif, in motif order, with g computed by
    the same expression, so the kernel must agree bit for bit.
    """
    num_seqs, length = tokens.shape
    num_motifs, motif_len = motifs.shape
    out = np.empty(num_seqs, dtype=np.float64)
    for n in range(num_seqs):
        # the feasibility rule of ``feasible_rows``, inlined
        feasible = True
        for pos in range(1, length):
            if not mask[tokens[n, pos - 1], tokens[n, pos]]:
                feasible = False
                break
        if not feasible:
            out[n] = -np.inf
            continue
        value = 1.0
        for i in range(num_motifs):
            best = 0
            for start in range(length):
                matched = 0
                for j in range(motif_len):
                    pos = start + offsets[i, j]
                    if pos < length and tokens[n, pos] == motifs[i, j]:
                        matched += 1
                if matched > best:
                    best = matched
            h = (best // divisor) / q
            value *= a * h * h * h - a * h * h + h
        out[n] = value
    return out


def hamming_fraction(x, y) -> Fraction:
    assert len(x) == len(y)
    mismatches = sum(int(a) != int(b) for a, b in zip(x, y))
    return Fraction(mismatches, len(x))


def all_pairs_dataset(sequences, scores, delta_x, k_n):
    """Quadratic-time reference for nearest-neighbor dataset formatting.

    For each anchor, ranks every other sequence by (fractional Hamming
    distance, token tuple) ascending, keeps the first k_n, and emits
    (anchor, neighbor) for in-range neighbors that strictly improve the
    score, plus (anchor, winner, loser) triples against in-range
    non-improving neighbors. Winner and loser must both lie within
    delta_x of the anchor. -inf never improves anything.
    """
    n = len(sequences)
    pairs = []
    triples = []
    for i in range(n):
        ranked = sorted(
            (j for j in range(n) if j != i),
            key=lambda j: (
                hamming_fraction(sequences[i], sequences[j]),
                tuple(int(t) for t in sequences[j]),
            ),
        )[:k_n]
        improving = [
            j
            for j in ranked
            if hamming_fraction(sequences[i], sequences[j]) <= delta_x
            and scores[j] > scores[i]
        ]
        non_improving = [
            j
            for j in ranked
            if hamming_fraction(sequences[i], sequences[j]) <= delta_x
            and scores[i] >= scores[j]
        ]
        for j in improving:
            pairs.append((i, j))
            for k in non_improving:
                triples.append((i, j, k))
    return pairs, triples


def hamming_matrix(tokens, block=256):
    """Pairwise Hamming distances (token counts) as an (N, N) matrix."""
    n = tokens.shape[0]
    out = np.empty((n, n), dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        out[start:stop] = (
            tokens[start:stop, None, :] != tokens[None, :, :]
        ).sum(axis=2)
    return out


def format_dataset_indices(tokens, values, mode, delta_x, k_n):
    """Per-element reference for ``llome.format_dataset``: (pairs, triples).

    Builds the full (N, N) distance and key matrices, selects each
    anchor's k_n nearest by (distance, lexicographic rank), then walks
    every anchor's neighbor list in Python. Returns the (anchor, target)
    and (anchor, winner, loser) row indices in emission order.
    """
    n, length = tokens.shape
    pairs, triples = [], []
    if n < 2:
        return pairs, triples
    distances = hamming_matrix(tokens)
    order = np.lexsort(tokens[:, ::-1].T)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    keys = distances * np.int64(n) + ranks[None, :]
    np.fill_diagonal(keys, np.iinfo(np.int64).max)
    kk = min(k_n, n - 1)
    neighbor_ids = np.argpartition(keys, kk - 1, axis=1)[:, :kk]
    row_keys = np.take_along_axis(keys, neighbor_ids, axis=1)
    neighbor_ids = np.take_along_axis(neighbor_ids, np.argsort(row_keys, axis=1), axis=1)
    max_dist = delta_x * length
    for i in range(n):
        improving = []
        non_improving = []
        for j in neighbor_ids[i]:
            if distances[i, j] > max_dist:
                continue
            if values[j] > values[i]:
                improving.append(int(j))
            elif values[i] >= values[j]:
                non_improving.append(int(j))
        for j in improving:
            pairs.append((i, j))
            if mode == "triples":
                for k in non_improving:
                    triples.append((i, j, k))
    return pairs, triples


def dedupe_proposals(batches, seed_values):
    """Dictionary reference for refinement deduplication.

    ``batches`` are the (proposals (S, C, L), logliks (S, C)) pairs a
    generator returned, in call order. The first occurrence of a token
    row fixes its position; a later occurrence with a strictly higher
    log-likelihood replaces its log-likelihood and seed. Returns
    (tokens, logliks, seed_indices, seed_values) as lists.
    """
    index_of = {}
    tokens, logliks, seed_idx, seed_val = [], [], [], []
    for proposals, lls in batches:
        for s in range(proposals.shape[0]):
            for c in range(proposals.shape[1]):
                key = tuple(int(t) for t in proposals[s, c])
                ll = float(lls[s, c])
                at = index_of.get(key)
                if at is None:
                    index_of[key] = len(tokens)
                    tokens.append(key)
                    logliks.append(ll)
                    seed_idx.append(s)
                    seed_val.append(float(seed_values[s]))
                elif ll > logliks[at]:
                    logliks[at] = ll
                    seed_idx[at] = s
                    seed_val[at] = float(seed_values[s])
    return tokens, logliks, seed_idx, seed_val


def dedupe_by_void_sort(rows, logliks):
    """Reference for ``llome._dedupe``: one stable sort over a void view.

    Each row is viewed as one opaque byte string, so equal rows sort
    together whatever their width, and the stable sort keeps each group
    in arrival order. Returns (first, winner): per distinct row, in
    first-seen order, the index of its first occurrence and of its
    earliest occurrence at the group's maximum log-likelihood.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    is_start = np.r_[True, ranked[1:] != ranked[:-1]]
    starts = np.flatnonzero(is_start)
    group = np.cumsum(is_start) - 1
    ranked_logliks = logliks[order]
    at_max = np.flatnonzero(
        ranked_logliks == np.maximum.reduceat(ranked_logliks, starts)[group])
    leads = at_max[np.r_[True, group[at_max][1:] != group[at_max][:-1]]]
    first, winner = order[starts], order[leads]
    by_arrival = np.argsort(first)
    return first[by_arrival], winner[by_arrival]


def central_difference_gradient(func, x, step=1e-5):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[i] += step
        backward[i] -= step
        grad[i] = (func(forward) - func(backward)) / (2 * step)
    return grad


def exhaustive_max_value(values, feasible) -> float:
    """Max objective over feasible entries of an exhaustive enumeration."""
    kept = [v for v, ok in zip(values, feasible) if ok]
    return max(kept) if kept else float("-inf")


def brute_force_count_windows(length, offsets):
    """Number of window starts whose positions all stay in range."""
    return sum(
        1 for start in range(length) if all(start + int(o) < length for o in offsets)
    )


def all_sequences_as_tuples(vocab_size, length):
    return list(product(range(vocab_size), repeat=length))


def regret_at_marks(values, marks) -> list[float]:
    """Each mark's regret: 1 minus the best of the first min(mark, n)
    values, or +inf when none of them is feasible."""
    out = []
    for mark in marks:
        best = max(float(v) for v in values[:min(mark, len(values))])
        out.append(float("inf") if best == float("-inf") else 1.0 - best)
    return out


# Reference table writers: one hand-written line per row, as each table
# was written before the package routed them all through one formatter.

def curve_csv(values) -> str:
    """A run's regret curve: its best-so-far regret at the first evaluation,
    at each evaluation where that regret changes, and at the last."""
    lines = ["# regret-curve v1", "evals_used,min_regret"]
    best = float("-inf")
    for i, value in enumerate(values, start=1):
        before = float("inf") if best == float("-inf") else 1.0 - best
        best = max(best, float(value))
        regret = float("inf") if best == float("-inf") else 1.0 - best
        if i == 1 or regret != before or i == len(values):
            lines.append(f"{i},{regret!r}")
    return "\n".join(lines) + "\n"


def pareto_csv(labels, budgets, regrets) -> str:
    lines = ["# pareto-report v1", "label,budget,min_regret"]
    for label, budget, regret in zip(labels, budgets, regrets):
        lines.append(f"{label},{float(budget)!r},{float(regret)!r}")
    return "\n".join(lines) + "\n"


def round_report_csv(rows) -> str:
    """``rows`` are (run_id, RoundSummary) pairs."""
    lines = [
        "# round-report v1",
        "run_id,round,num_evals,unique_pct,feasible_pct,"
        "mean_margin_reward,max_margin_reward,min_regret",
    ]
    for run_id, s in rows:
        lines.append(
            f"{run_id},{s.round_index},{s.num_evals},{s.unique_pct!r},"
            f"{s.feasible_pct!r},{s.mean_margin_reward!r},"
            f"{s.max_margin_reward!r},{s.min_regret!r}"
        )
    return "\n".join(lines) + "\n"


def sweep_table_csv(axis, base_name, instance_seed, budget, seeds, marks, medians) -> str:
    """``medians`` maps each axis value to its median regret at each mark."""
    header = ["evals_used"] + [f"{axis}={value}" for value in medians]
    lines = [
        "# sweep-table v1",
        f"# axis={axis}",
        f"# base={base_name}",
        f"# instance_seed={instance_seed}",
        f"# budget={budget}",
        f"# seeds={','.join(str(s) for s in seeds)}",
        ",".join(header),
    ]
    for row, mark in enumerate(marks):
        cells = [str(mark)] + [repr(float(column[row])) for column in medians.values()]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# Reference sequence-file reader and writer: the per-line, per-token loops
# the package used before it parsed with np.loadtxt and wrote through the
# table writer. The reader takes Python's int() and float() as its grammar,
# which is wider than the package's (it reads "1_0", non-ASCII digits and
# NBSP-padded fields), and it raises a raw OverflowError for a token
# beyond int64 when no vocab_size is given.

def parse_sequences(text, length, vocab_size=None):
    rows, scores = [], []
    have_scores = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) == length:
            with_score = False
        elif len(fields) == length + 1:
            with_score = True
        else:
            raise ParseError(
                f"line {line_no}: expected {length} tokens (plus optional score), "
                f"got {len(fields)} fields"
            )
        if have_scores is None:
            have_scores = with_score
        elif have_scores != with_score:
            raise ParseError(
                f"line {line_no}: inconsistent column count (score column must be "
                "present on every line or on none)"
            )
        row = []
        for col, fieldtext in enumerate(fields[:length], start=1):
            try:
                token = int(fieldtext.strip())
            except ValueError:
                raise ParseError(
                    f"line {line_no}, column {col}: malformed token {fieldtext.strip()!r}"
                ) from None
            if token < 0 or (vocab_size is not None and token >= vocab_size):
                raise ParseError(
                    f"line {line_no}, column {col}: token {token} out of range "
                    f"[0, {vocab_size})"
                )
            row.append(token)
        if with_score:
            col = length + 1
            try:
                scores.append(float(fields[length].strip()))
            except ValueError:
                raise ParseError(
                    f"line {line_no}, column {col}: malformed score "
                    f"{fields[length].strip()!r}"
                ) from None
        rows.append(row)
    tokens = np.asarray(rows, dtype=np.int64).reshape(len(rows), length)
    return tokens, (np.asarray(scores, dtype=np.float64) if have_scores else None)


def format_sequences(tokens, scores=None) -> str:
    tokens = np.asarray(tokens, dtype=np.int64)
    lines = []
    for i, row in enumerate(tokens):
        line = ",".join(str(t) for t in row)
        if scores is not None:
            line += f",{float(scores[i])!r}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")
