"""Bilevel optimization loop driven by a proposal generator.

Round structure: train the generator on nearest-neighbor improvement
data from the last labeled batch, refine seeds into a candidate pool
without touching the objective, filter the pool by likelihood and
structural feasibility, then spend oracle calls only on the filtered
selection. A genetic-algorithm presolver supplies the first labeled
batch; its evaluations count toward the total budget.

The inner loop never queries the objective: feasibility inside the
filter uses the transition-mask check only, and candidate likelihoods
come from the generator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import GeneratorCollapseError, require
from .function import ScoredSequence, regret_of_value, require_tokens_in_range
from .ga import GAConfig, run_ga
from .kernels import feasible_rows
from .losses import margin_reward
from .records import EvalLedger


@dataclass(frozen=True)
class ScoredSet:
    """Token batch with objective values (-inf marks infeasible)."""

    tokens: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        tokens = np.asarray(self.tokens, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "values", values)
        require(tokens.ndim == 2, f"tokens must be (N, L), got shape {tokens.shape}")
        require(values.shape == (tokens.shape[0],),
                f"values shape {values.shape} must be ({tokens.shape[0]},)")

    def __len__(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True)
class RefinementDataset:
    """Improvement pairs (and optional preference triples) for training.

    Every pair (x, y) satisfies fractional Hamming distance <= the
    threshold and f(y) > f(x); triples add a non-improving neighbor
    with f(x) >= f(loser).
    """

    pair_inputs: np.ndarray
    pair_targets: np.ndarray
    triple_inputs: np.ndarray
    triple_winners: np.ndarray
    triple_losers: np.ndarray
    distance_threshold: float = 0.25
    num_neighbors: int = 30

    @property
    def num_pairs(self) -> int:
        return self.pair_inputs.shape[0]

    @property
    def num_triples(self) -> int:
        return self.triple_inputs.shape[0]


@dataclass(frozen=True)
class LoopConfig:
    rounds: int = 10
    evals_per_round: int = 2000
    presolver_rounds: int = 10
    seeds_per_round: int = 200
    refine_iters: int = 10
    samples_per_iter: int = 10
    base_temperatures: tuple = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
    likelihood_floor: float | None = None  # None: exp(-2 * length)
    max_infeasible_fraction: float = 0.25
    dataset_mode: str = "pairs"
    distance_threshold: float = 0.25
    num_neighbors: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rounds", "evals_per_round", "presolver_rounds",
                     "seeds_per_round", "refine_iters", "samples_per_iter",
                     "num_neighbors"):
            require(getattr(self, name) >= 1, f"{name} must be >= 1")
        require(len(self.base_temperatures) >= 1, "base_temperatures must be nonempty")
        require(all(t >= 0 for t in self.base_temperatures),
                "base_temperatures must be nonnegative")
        if self.likelihood_floor is not None:
            require(0.0 < self.likelihood_floor < 1.0,
                    f"likelihood_floor must be in (0, 1), got {self.likelihood_floor}")
        require(0.0 <= self.max_infeasible_fraction < 1.0,
                f"max_infeasible_fraction must be in [0, 1), got {self.max_infeasible_fraction}")
        require(self.dataset_mode in ("pairs", "triples"),
                f"dataset_mode must be 'pairs' or 'triples', got {self.dataset_mode!r}")
        require(0.0 <= self.distance_threshold <= 1.0,
                f"distance_threshold must be in [0, 1], got {self.distance_threshold}")
        require(0 <= int(self.seed) <= 2**64 - 1,
                f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def log_likelihood_floor(self, length: int) -> float:
        if self.likelihood_floor is None:
            return -2.0 * length
        return math.log(self.likelihood_floor)


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated refinement output, in first-seen order.

    ``seed_indices``/``seed_values`` point back to the refinement seed
    whose chain produced each candidate (the candidate's only labeled
    ancestor), which is what round diagnostics compare against.
    ``num_generated`` counts proposals before deduplication and
    ``mean_edit_fraction`` is the average fractional Hamming distance
    between chain inputs and their proposals (drives temperature
    adjustment next round).
    """

    tokens: np.ndarray
    logliks: np.ndarray
    seed_indices: np.ndarray
    seed_values: np.ndarray
    num_generated: int = 0
    mean_edit_fraction: float = 0.0

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def take(self, indices: np.ndarray) -> "CandidateSet":
        return CandidateSet(
            tokens=self.tokens[indices],
            logliks=self.logliks[indices],
            seed_indices=self.seed_indices[indices],
            seed_values=self.seed_values[indices],
            num_generated=self.num_generated,
            mean_edit_fraction=self.mean_edit_fraction,
        )


@dataclass(frozen=True)
class PresolverData:
    """Everything the evolution presolver scored, in evaluation order."""

    scored: ScoredSet
    incumbent: ScoredSequence
    evals_used: int

    @property
    def min_regret(self) -> float:
        return regret_of_value(self.incumbent.value)


@dataclass(frozen=True)
class RoundStats:
    round_index: int
    oracle_calls: int
    num_generated: int
    num_candidates: int
    num_selected: int
    unique_fraction: float
    feasible_fraction: float
    min_regret: float
    mean_regret: float
    min_regret_so_far: float
    mean_margin_reward: float
    max_margin_reward: float
    mean_edit_fraction: float
    temperatures: tuple


@dataclass(frozen=True)
class LlomeResult:
    best: ScoredSequence
    rounds: tuple
    evals_used: int
    presolver_evals: int
    presolver_min_regret: float

    @property
    def min_regret(self) -> float:
        return regret_of_value(self.best.value)


# (anchor, labeled row) keys format_dataset holds at once, in row blocks;
# each is one float32 (or float64) key.
_BLOCK_ELEMENTS = 1 << 21
# Integers below this are exact in float32; k-NN keys stay below (L+1)*n.
_FLOAT32_EXACT = 1 << 24


def _position_one_hot(tokens: np.ndarray, dtype) -> np.ndarray:
    """(N, W) indicator of each row's (position, token) pairs.

    W counts the distinct pairs present, so any int64 token values work,
    and the dot product of two rows is their number of matching positions.
    """
    n, length = tokens.shape
    distinct, codes = np.unique(tokens, return_inverse=True)
    cells = codes.reshape(n, length) + np.arange(length) * distinct.size
    distinct, cells = np.unique(cells, return_inverse=True)
    one_hot = np.zeros((n, distinct.size), dtype=dtype)
    np.put_along_axis(one_hot, cells.reshape(n, length), 1, axis=1)
    return one_hot


def format_dataset(scored: ScoredSet, mode: str = "pairs",
                   delta_x: float = 0.25, k_n: int = 30) -> RefinementDataset:
    """Nearest-neighbor improvement pairs (PropEn-style matching).

    For each anchor, ranks the k_n nearest other sequences by fractional
    Hamming distance (ties broken by ascending lexicographic order for
    determinism) and emits (anchor, neighbor) for in-threshold neighbors
    with strictly better score. Triples mode crosses each improving
    neighbor with every in-threshold non-improving one; winner and loser
    must both lie within delta_x of the anchor. Since infeasible entries
    carry f = -inf, they never appear as improvements. An empty result
    is legal.

    Anchors are processed in row blocks, so memory is O(block * N), not
    O(N^2). Each neighbor's key, n * (L - matches) + its lexicographic
    rank, comes out of one BLAS product of position one-hot rows. Every
    key is an integer below (L+1) * n, so the product is exact in
    float32 while (L+1) * n < 2**24, and runs in float64 beyond that.
    """
    require(mode in ("pairs", "triples"), f"mode must be 'pairs' or 'triples', got {mode!r}")
    require(len(scored) >= 1, "scored set must be nonempty")
    tokens, values = scored.tokens, scored.values
    n, length = tokens.shape
    pairs: list[tuple[np.ndarray, ...]] = []
    triples: list[tuple[np.ndarray, ...]] = []
    if n >= 2:
        key_dtype = np.float32 if (length + 1) * n < _FLOAT32_EXACT else np.float64
        one_hot = _position_one_hot(tokens, key_dtype)
        # lexsort uses its last key as primary, so feed columns reversed.
        by_rank = np.lexsort(tokens[:, ::-1].T)
        ranks = np.empty(n, dtype=np.int64)
        ranks[by_rank] = np.arange(n)
        # -n per matching position, plus a column of ones against L*n + rank:
        # the product is the whole key, distance first, rank second.
        anchor_side = np.hstack([one_hot * key_dtype(-n), np.ones((n, 1), key_dtype)])
        labeled_side = np.hstack([one_hot, (length * n + ranks)[:, None].astype(key_dtype)])
        del one_hot
        kk = min(k_n, n - 1)
        max_dist = delta_x * length
        block = max(1, _BLOCK_ELEMENTS // n)
        for start in range(0, n, block):
            anchors = np.arange(start, min(start + block, n))
            keys = anchor_side[start:start + block] @ labeled_side.T
            keys[anchors - start, anchors] = np.inf
            keys.partition(kk - 1, axis=1)
            # Keys are distinct, so sorting the kept ones orders each
            # neighbor list; the quotient by n is the distance and the
            # remainder the rank, which names the neighbor.
            distance, rank = np.divmod(np.sort(keys[:, :kk], axis=1).astype(np.float64), n)
            del keys
            neighbor_ids = by_rank[rank.astype(np.intp)]
            in_range = distance <= max_dist
            anchor_values = values[anchors, None]
            neighbor_values = values[neighbor_ids]
            improving = in_range & (neighbor_values > anchor_values)
            non_improving = in_range & (anchor_values >= neighbor_values)
            # np.nonzero walks row-major: anchor, then neighbor order.
            row, col = np.nonzero(improving)
            pairs.append((anchors[row], neighbor_ids[row, col]))
            if mode == "triples":
                row, win, lose = np.nonzero(improving[:, :, None] & non_improving[:, None, :])
                triples.append((anchors[row], neighbor_ids[row, win], neighbor_ids[row, lose]))

    def rows(parts: list, column: int) -> np.ndarray:
        if not parts:
            return np.empty((0, length), dtype=np.int64)
        return tokens[np.concatenate([part[column] for part in parts])]

    return RefinementDataset(
        pair_inputs=rows(pairs, 0),
        pair_targets=rows(pairs, 1),
        triple_inputs=rows(triples, 0),
        triple_winners=rows(triples, 1),
        triple_losers=rows(triples, 2),
        distance_threshold=delta_x,
        num_neighbors=k_n,
    )


def adjust_temperatures(base, prev_mean_hamming: float) -> tuple:
    """Raise sampling temperatures when the previous round barely edited.

    Mean fractional edit distance below 0.075 adds 0.6; [0.075, 0.1)
    adds 0.4; [0.1, 0.125) adds 0.2; anything higher keeps the base.
    """
    require(0.0 <= prev_mean_hamming <= 1.0,
            f"prev_mean_hamming must be in [0, 1], got {prev_mean_hamming}")
    if prev_mean_hamming < 0.075:
        bump = 0.6
    elif prev_mean_hamming < 0.1:
        bump = 0.4
    elif prev_mean_hamming < 0.125:
        bump = 0.2
    else:
        bump = 0.0
    return tuple(t + bump for t in base)


def _narrow_dtype(tokens: np.ndarray) -> np.dtype:
    """Smallest integer dtype holding every value of ``tokens`` exactly."""
    lo, hi = (int(tokens.min()), int(tokens.max())) if tokens.size else (0, 0)
    for dtype in (np.uint8, np.int8, np.uint16, np.int16, np.int32):
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _dedupe(rows: np.ndarray, logliks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in first-seen order, each with its winning proposal.

    Returns (first, winner): indices of each distinct row's first
    occurrence and of its earliest occurrence at the row's maximum
    log-likelihood -- what "first seen wins; a strictly higher
    log-likelihood replaces" leaves behind.
    """
    n, length = rows.shape
    lo, hi = (int(rows.min()), int(rows.max())) if rows.size else (0, 0)
    width = (hi - lo).bit_length()
    arrival_bits = (n - 1).bit_length()
    if length * width + arrival_bits <= 64:
        # Each row, less the minimum, packs into one word; with the arrival
        # index in the low bits, a plain sort gathers equal rows and keeps
        # each group in arrival order. Subtracting in the row dtype may
        # wrap, but read as unsigned the difference is exact: it is below
        # 2**width, and width fits the dtype.
        offsets = (rows - rows.dtype.type(lo)).view(f"u{rows.dtype.itemsize}")
        key = offsets[:, 0].astype(np.uint64)
        for column in range(1, length):
            key <<= np.uint64(width)
            key |= offsets[:, column]
        key <<= np.uint64(arrival_bits)
        key |= np.arange(n, dtype=np.uint64)
        ranked = np.sort(key)
        order = (ranked & np.uint64((1 << arrival_bits) - 1)).astype(np.intp)
        ranked >>= np.uint64(arrival_bits)
    else:
        rows = np.ascontiguousarray(rows)
        keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * length))).ravel()
        # A stable sort gathers equal rows and keeps each group in arrival order.
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


def iterative_refinement(generator, scored: ScoredSet, config: LoopConfig,
                         temperatures=None, seed: rng.SeedLike = 0) -> CandidateSet:
    """Expand the top-scored seeds into a deduplicated candidate pool.

    Each seed runs one greedy chain (temperature 0, single proposal per
    step) plus, per temperature, a chain whose next input is the
    highest-likelihood sample of the previous step. No oracle calls are
    made. Duplicate token vectors keep their maximum log-likelihood.
    """
    require(len(scored) >= 1, "scored set must be nonempty")
    if temperatures is None:
        temperatures = config.base_temperatures
    order = np.argsort(-scored.values, kind="stable")[: config.seeds_per_round]
    seeds = scored.tokens[order]
    seed_values = scored.values[order]
    num_seeds = seeds.shape[0]

    batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    generated = 0
    edit_sum = 0.0

    def absorb(proposals: np.ndarray, logliks: np.ndarray, chain_inputs: np.ndarray) -> None:
        # proposals: (S, C, L); logliks: (S, C); chain_inputs: (S, L)
        nonlocal generated, edit_sum
        count = proposals.shape[0] * proposals.shape[1]
        generated += count
        edit_sum += float(
            (proposals != chain_inputs[:, None, :]).mean(axis=2).sum()
        )
        flat = proposals.reshape(count, proposals.shape[2])
        flat_logliks = np.array(logliks, dtype=np.float64).reshape(count)
        require(not np.isnan(flat_logliks).any(), "generator returned a NaN log-likelihood")
        batches.append((
            flat.astype(_narrow_dtype(flat)),
            flat_logliks,
            np.repeat(np.arange(proposals.shape[0]), proposals.shape[1]),
        ))

    # Chain 0 is greedy (temperature 0, one proposal per step); chain
    # 1 + i samples at temperatures[i]. All seeds advance together, each
    # from its highest-likelihood proposal of the previous step.
    chains = [(0.0, 1)] + [(float(t), config.samples_per_iter) for t in temperatures]
    for chain, (temperature, count) in enumerate(chains):
        inputs = seeds.copy()
        for step in range(config.refine_iters):
            proposals, logliks = generator.propose(
                inputs, temperature, count, seed=rng.seed_path(seed, chain, step)
            )
            if proposals.shape[1] == 0:
                break  # generator returned nothing; chain cannot advance
            absorb(proposals, logliks, inputs)
            picks = np.argmax(logliks, axis=1)
            inputs = proposals[np.arange(num_seeds), picks, :]

    length = scored.tokens.shape[1]
    if not batches:
        empty = np.empty((0, length), dtype=np.int64)
        return CandidateSet(empty, np.empty(0), np.empty(0, np.int64),
                            np.empty(0), num_generated=generated,
                            mean_edit_fraction=0.0)
    rows, logliks, seed_idx = (np.concatenate(parts) for parts in zip(*batches))
    first, winner = _dedupe(rows, logliks)
    return CandidateSet(
        tokens=rows[first].astype(np.int64),
        logliks=logliks[winner],
        seed_indices=seed_idx[winner],
        seed_values=seed_values[seed_idx[winner]],
        num_generated=generated,
        mean_edit_fraction=edit_sum / generated if generated else 0.0,
    )


def filter_candidates(candidates: CandidateSet, mask: np.ndarray, j: int,
                      log_p_min: float, p_max_infeas: float,
                      seed: rng.SeedLike = 0) -> CandidateSet:
    """Likelihood floor, infeasibility cap, and uniform downsample to j.

    Keeps candidates with log-likelihood strictly above the floor, caps
    the infeasible count at floor(feasible * p/(1-p)) by seeded uniform
    subsampling, then uniformly subsamples to at most j. Output
    preserves the candidate order (ascending original index). Raises
    ``InvalidParamsError`` when a candidate token lies outside [0, v),
    v being the mask's size.
    """
    require(j >= 1, f"j must be >= 1, got {j}")
    require_tokens_in_range(candidates.tokens, mask.shape[0])
    keep = np.flatnonzero(candidates.logliks > log_p_min)
    if keep.size == 0:
        return candidates.take(keep)

    feasible = feasible_rows(candidates.tokens[keep], mask)
    feasible_ids = keep[feasible]
    infeasible_ids = keep[~feasible]
    cap = int(math.floor(feasible_ids.size * p_max_infeas / (1.0 - p_max_infeas)))
    if infeasible_ids.size > cap:
        gen = rng.substream(seed, 0)
        chosen = gen.choice(infeasible_ids.size, size=cap, replace=False)
        infeasible_ids = infeasible_ids[np.sort(chosen)]
    kept = np.sort(np.concatenate([feasible_ids, infeasible_ids]))

    if kept.size > j:
        gen = rng.substream(seed, 1)
        chosen = gen.choice(kept.size, size=j, replace=False)
        kept = kept[np.sort(chosen)]
    return candidates.take(kept)


def run_presolver(function, ga_config: GAConfig, presolver_rounds: int) -> PresolverData:
    """Run the evolution presolver on a budget of presolver_rounds batches.

    The budget is presolver_rounds * num_particles evaluations total,
    including the initial-solution evaluation, so the first batch plus
    (presolver_rounds - 1) full steps are scored. Everything scored is
    returned as labeled data.
    """
    require(presolver_rounds >= 1, f"presolver_rounds must be >= 1, got {presolver_rounds}")
    ledger = EvalLedger(function)
    state = run_ga(ledger, ga_config,
                   budget=presolver_rounds * ga_config.num_particles,
                   stop_on_optimum=False)
    return PresolverData(
        scored=ScoredSet(tokens=ledger.tokens(), values=ledger.values()),
        incumbent=state.incumbent,
        evals_used=state.evals_used,
    )


def run_llome(function, generator, config: LoopConfig,
              presolver: PresolverData) -> LlomeResult:
    """The full bilevel loop over a fixed number of rounds.

    Per round: train on the last labeled batch, refine without oracle
    access, filter to at most evals_per_round candidates, then label
    exactly the selection. Aborts with GeneratorCollapseError when the
    loop cannot continue (no feasible seed, no candidates, or an empty
    selection).
    """
    length = function.params.length
    mask = function.transition.mask
    log_floor = config.log_likelihood_floor(length)

    labeled = presolver.scored
    best = presolver.incumbent
    evals_used = presolver.evals_used
    prev_edit_fraction: float | None = None
    rounds: list[RoundStats] = []

    for round_index in range(1, config.rounds + 1):
        if not (labeled.values > -np.inf).any():
            raise GeneratorCollapseError(
                f"round {round_index}: no feasible seed in the labeled set"
            )
        dataset = format_dataset(
            labeled, config.dataset_mode, config.distance_threshold, config.num_neighbors
        )
        generator = generator.train(dataset)
        if prev_edit_fraction is None:
            temperatures = tuple(config.base_temperatures)
        else:
            temperatures = adjust_temperatures(config.base_temperatures, prev_edit_fraction)

        candidates = iterative_refinement(
            generator, labeled, config, temperatures,
            seed=(config.seed, rng.DOMAIN_LLOME, round_index, 0),
        )
        if len(candidates) == 0:
            raise GeneratorCollapseError(
                f"round {round_index}: refinement produced no candidates"
            )
        selected = filter_candidates(
            candidates, mask, config.evals_per_round, log_floor,
            config.max_infeasible_fraction,
            seed=(config.seed, rng.DOMAIN_LLOME, round_index, 1),
        )
        if len(selected) == 0:
            raise GeneratorCollapseError(
                f"round {round_index}: filtering removed every candidate"
            )

        values = function.evaluate_batch(selected.tokens)
        evals_used += values.shape[0]
        top = int(np.argmax(values))
        if values[top] > best.value:
            best = ScoredSequence(tokens=selected.tokens[top].copy(),
                                  value=float(values[top]))

        feasible = values > -np.inf
        rewards = margin_reward(selected.seed_values, values)
        min_regret = float(1.0 - values[feasible].max()) if feasible.any() else math.inf
        mean_regret = float(1.0 - values[feasible].mean()) if feasible.any() else math.inf
        rounds.append(RoundStats(
            round_index=round_index,
            oracle_calls=int(values.shape[0]),
            num_generated=candidates.num_generated,
            num_candidates=len(candidates),
            num_selected=len(selected),
            unique_fraction=len(candidates) / candidates.num_generated,
            feasible_fraction=float(feasible.mean()),
            min_regret=min_regret,
            mean_regret=mean_regret,
            min_regret_so_far=regret_of_value(best.value),
            mean_margin_reward=float(rewards.mean()),
            max_margin_reward=float(rewards.max()),
            mean_edit_fraction=candidates.mean_edit_fraction,
            temperatures=temperatures,
        ))
        labeled = ScoredSet(tokens=selected.tokens, values=values)
        prev_edit_fraction = candidates.mean_edit_fraction

    return LlomeResult(
        best=best,
        rounds=tuple(rounds),
        evals_used=evals_used,
        presolver_evals=presolver.evals_used,
        presolver_min_regret=presolver.min_regret,
    )
