"""Set functions over player subsets, indexed by bitmask.

A coalition of players {0, ..., n-1} is a bitmask: bit i set means player i
is in the coalition.  A payoff function is stored dense, one value per
bitmask, with the empty coalition pinned at zero.  Proper nonempty
coalitions (everything except the empty set and the grand coalition) form
the "restricted" m-vector view, m = 2^n - 2, in ascending bitmask order:
coalition S sits at index S - 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import index

import numpy as np

MAX_PLAYERS = 20

DEFAULT_STRICT_TOL = 1e-9


class SetFunctionError(ValueError):
    """Malformed set function or incompatible operands."""


def grand_mask(n: int) -> int:
    return (1 << n) - 1


def num_restricted(n: int) -> int:
    """Number of proper nonempty coalitions."""
    return (1 << n) - 2


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_PLAYERS:
        raise SetFunctionError(f"player count must be in [1, {MAX_PLAYERS}], got {n}")


def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_fits_in_memory(nbytes: int, what: str, error: type[Exception]) -> None:
    """Raise ``error`` when ``what``, ``nbytes`` of arrays, would not fit
    in physical memory; called before anything is allocated."""
    physical = physical_memory()
    if nbytes > physical:
        raise error(
            f"{what} would take {nbytes} bytes, more than the {physical} "
            "bytes of physical memory"
        )


@dataclass(frozen=True)
class SetFunction:
    """Dense payoff function over all coalitions of n players.

    ``values[mask]`` is the payoff of the coalition encoded by ``mask``.
    ``values[0]`` is always zero.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        vals = np.array(self.values, dtype=float)
        if vals.shape != ((1 << self.n),):
            raise SetFunctionError(
                f"expected {1 << self.n} values for n={self.n}, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise SetFunctionError("payoff values must be finite")
        if vals[0] != 0.0:
            raise SetFunctionError("empty-coalition payoff must be exactly 0")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grand_value(self) -> float:
        return float(self.values[-1])

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.grand_value - 1.0) <= tol

    def restricted(self) -> np.ndarray:
        """Values on proper nonempty coalitions, ascending bitmask order."""
        return self.values[1:-1].copy()

    @staticmethod
    def from_restricted(n: int, restricted: np.ndarray, grand: float = 1.0) -> "SetFunction":
        restricted = np.asarray(restricted, dtype=float)
        if restricted.shape != (num_restricted(n),):
            raise SetFunctionError(
                f"expected {num_restricted(n)} restricted values for n={n}"
            )
        vals = np.concatenate([[0.0], restricted, [float(grand)]])
        return SetFunction(n, vals)

    def __call__(self, mask: int) -> float:
        return float(self.values[mask])


# the bytes a sampler round's candidates take, their values and their
# normal rows together; no stream draws a larger block (always at least one
# candidate).  harness bounds its blocks of derived trace columns by it too
GATHER_CHUNK_BYTES = 1 << 20


def round_candidates(n: int) -> int:
    """The most candidates a sampler round draws across streams: their
    values and their normal rows fit one GATHER_CHUNK_BYTES.  The gap
    kernel's two temporaries for them hold a quarter of their values each."""
    return max(1, GATHER_CHUNK_BYTES // (16 << n))


def _supermodular_columns(block: np.ndarray, n: int, floor: float) -> np.ndarray:
    """Per column of a (2^n, k) block of payoff vectors: does every
    incremental gap f(S+i+j) + f(S) - f(S+i) - f(S+j) reach ``floor``?

    For each pair i < j the block is viewed with player j's and player i's
    bits as axes of their own, so the four coalition families are strided
    views of it; the temporaries are two arrays of 2^(n-2) k values, the
    pair's gaps and their running minimum.
    """
    k = block.shape[1]
    lowest = np.full((1 << max(n - 2, 0), k), np.inf)
    gaps = np.empty_like(lowest)
    # summed in the order of ((f(S+i+j) + f(S)) - f(S+i)) - f(S+j); a nan
    # gap is kept by the minimum and fails its column.  Candidates near the
    # float range overflow here without a numpy warning, since the sampler
    # refuses nonfinite candidates itself
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in combinations(range(n), 2):
            shape = (1 << n - 1 - j, 1 << j - i - 1, 1 << i, k)
            cube = block.reshape(shape[0], 2, shape[1], 2, shape[2], k)  # [.., j, .., i, ..]
            pair = gaps.reshape(shape)
            np.add(cube[:, 1, :, 1], cube[:, 0, :, 0], out=pair)
            pair -= cube[:, 0, :, 1]
            pair -= cube[:, 1, :, 0]
            np.minimum(lowest, gaps, out=lowest)
        return lowest.min(axis=0) >= floor


def is_supermodular(
    f: SetFunction, strict: bool = False, tol: float = DEFAULT_STRICT_TOL
) -> bool:
    """Decide (strict) supermodularity of a payoff function.

    Checks the incremental form f(S+i+j) + f(S) >= f(S+i) + f(S+j) over
    all pairs i != j and all S avoiding both, O(n^2 2^n).  It is equivalent
    to f(X|Y) + f(X&Y) >= f(X) + f(Y) over all coalition pairs, with
    strictness on every incremental triple matching strictness on
    incomparable X, Y.
    """
    if tol < 0:
        raise SetFunctionError("tolerance must be nonnegative")
    return bool(_supermodular_columns(f.values[:, None], f.n, tol if strict else -tol)[0])


def weighted_average(fs: list[SetFunction], weights) -> SetFunction:
    """Convex combination of payoff functions sharing the same n.

    Preserves the zero empty-coalition payoff and supermodularity
    (the supermodular functions form a convex cone).
    """
    if not fs:
        raise SetFunctionError("need at least one set function")
    n = fs[0].n
    if any(f.n != n for f in fs):
        raise SetFunctionError("set functions disagree on player count")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(fs),):
        raise SetFunctionError("one weight per set function required")
    if np.any(w < 0):
        raise SetFunctionError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise SetFunctionError(f"weights sum to {w.sum()!r}, expected 1")
    stack = np.stack([f.values for f in fs])
    vals = w @ stack
    vals[0] = 0.0
    return SetFunction(n, vals)


@dataclass(frozen=True)
class GroundTruthSpec:
    """Ground-truth payoff function plus the noise level of every opinion."""

    truth: SetFunction
    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:  # also false for nan
            raise SetFunctionError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if not is_supermodular(self.truth, strict=True):
            raise SetFunctionError("ground truth must be strictly supermodular")


# numpy's SeedSequence, O'Neill's seed_seq hash, whose words numpy's stream
# compatibility policy (NEP 19) keeps fixed: four 32-bit pool words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for every column
    of a (words, keys) uint32 entropy array at once, as (keys, 4) uint64.

    Each step is numpy's on one word per key; the hash constants follow the
    step count alone, so they are shared by all keys.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    def mix(x, y):
        result = x * _MIX_MULT_L
        result -= y * _MIX_MULT_R
        result ^= result >> 16
        return result

    words, keys = entropy.shape
    zero = np.zeros(keys, np.uint32)  # the pool words past the entropy
    pool = [hashmix(entropy[i] if i < words else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = _INIT_B
    state = np.empty((keys, 2 * _POOL_SIZE), np.uint32)
    for i in range(2 * _POOL_SIZE):
        data = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        data *= hash_const
        data ^= data >> 16
        state[:, i] = data
    # pairs of words are little-endian 64-bit words, as numpy reads them
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords:
    """The seed sequence of one derived stream: it hands PCG64 the state
    words ``keyed_generators`` computed for it.  It is registered as a
    numpy ISeedSequence on first use, so importing the package does not
    import numpy.random."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {self.words.size} {self.words.dtype} words only")
        return self.words


def _word_count(value: int) -> int:
    """32-bit words numpy splits a nonnegative int into; 0 is one word."""
    return max(1, -(-value.bit_length() // 32))


def keyed_generators(prefix, keys) -> list[np.random.Generator]:
    """One generator per key of ``keys``, each numpy's
    ``default_rng([*prefix, key])`` stream bit for bit, derived together.

    Every int of the entropy is split into 32-bit words, least significant
    first, as numpy splits it; keys of one word count are hashed in one
    vectorized SeedSequence pass, and each PCG64 is built from its own
    state words.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    prefix, keys = [index(v) for v in prefix], [index(k) for k in keys]  # numpy ints too
    if min([*prefix, *keys], default=0) < 0:
        raise ValueError("seed entropy must be nonnegative integers")
    head = [v >> 32 * j & _MASK32 for v in prefix for j in range(_word_count(v))]
    widths = [_word_count(k) for k in keys]
    rngs = [None] * len(keys)
    for width in set(widths):
        where = [i for i, w in enumerate(widths) if w == width]
        group = np.array([keys[i] for i in where], dtype=object)
        entropy = np.empty((len(head) + width, len(where)), np.uint32)
        entropy[: len(head)] = np.array(head, np.uint32)[:, None]
        for j in range(width):
            entropy[len(head) + j] = group >> 32 * j & _MASK32
        for i, words in zip(where, _seed_states(entropy)):
            rngs[i] = np.random.Generator(np.random.PCG64(_StateWords(words)))
    return rngs


SAMPLER_ATTEMPTS = 100_000  # rejections one opinion may take by default


def sample_opinion_streams(
    spec: GroundTruthSpec,
    rngs: list[np.random.Generator],
    count: int,
    perturb_grand: bool = True,
    max_attempts: int = SAMPLER_ATTEMPTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` private opinions from each generator of ``rngs``: truth
    plus i.i.d. normal noise, rejected until supermodular.

    Returns a (streams, count, 2^n) stack of opinion values and the mask of
    the streams that exhausted their budget, whose rows are NaN.

    Rejection realizes a normal distribution truncated to the supermodular
    cone exactly.  Noise hits every proper nonempty coalition; the grand
    coalition is perturbed too when ``perturb_grand`` (the empty coalition
    never is).  With sigma 0 every opinion is the truth and nothing is
    drawn.  A stream is exhausted once one of its opinions has been rejected
    ``max_attempts`` times, which signals a noise level too large for the
    truth's strictness margin.

    Each stream draws its candidates in blocks, one normal row each: as many
    rows as it still needs opinions, or as its waiting opinion has missed if
    that is more, capped by that opinion's remaining budget and by
    ``round_candidates``.  A round draws the next block of as many live
    streams, in order, as fit ``round_candidates`` (at least one) and checks
    them with one gap kernel.  Each stream takes its accepted candidates in
    draw order, so its opinions, and its exhaustion, are those of drawing
    one candidate at a time from it, whatever streams share its rounds; rows
    past its last opinion are dropped.  A nonfinite candidate among those a
    stream would have drawn one at a time raises SetFunctionError.
    """
    truth = spec.truth
    size = truth.values.size
    exhausted = np.zeros(len(rngs), dtype=bool)
    if spec.sigma == 0.0:
        return np.tile(truth.values, (len(rngs), count, 1)), exhausted
    width = num_restricted(truth.n) + (1 if perturb_grand else 0)
    cap = round_candidates(truth.n)
    # the truth on the noisy coalitions, plus the 0.0 that numpy's normal
    # adds to sigma z: x + 0.0 is x except at -0.0, so the sums are those of
    # truth + normal(0, sigma)
    noisy = truth.values[1 : 1 + width] + 0.0
    taken = [0] * len(rngs)  # opinions each stream has
    misses = [0] * len(rngs)  # rejected candidates of its waiting opinion
    live = list(range(len(rngs))) if count else []
    # the opinions each round takes, as (streams, slots, values): the stack
    # is built after the last round, so a round holds only its own block
    # besides the opinions already taken
    taken_by_round = []
    block = None
    while live:
        batch, total = [], 0  # (stream, block rows) of this round
        for s in live:
            if misses[s] >= max_attempts:
                exhausted[s] = True
                continue
            k = min(max(count - taken[s], misses[s]), max_attempts - misses[s], cap)
            if batch and total + k > cap:
                break
            batch.append((s, k))
            total += k
        if not batch:  # every live stream is exhausted
            break
        # one candidate per row of its stream's draw, drawn straight into
        # the round's rows; each is summed there before the block holds it
        # as a column, since a transposed copy takes no ufunc buffer
        ends = np.cumsum([0] + [k for _, k in batch]).tolist()
        drawn = np.empty((total, width))
        for (s, k), lo in zip(batch, ends):
            rngs[s].standard_normal(out=drawn[lo : lo + k])
        with np.errstate(over="ignore"):  # noise beyond the float range is refused below
            drawn *= spec.sigma
            drawn += noisy
        # the last round's block is freed only once this round's rows are
        # drawn, so the new block takes its place; freed before them, its
        # pages went back to the system and were faulted in again each round
        del block
        block = np.empty((size, total))
        block[0] = truth.values[0]
        block[1 + width :] = truth.values[1 + width :, None]
        block[1 : 1 + width] = drawn.T
        del drawn  # freed before the gap temporaries are made
        finite = np.isfinite(block).all()
        hits = _supermodular_columns(block, truth.n, -DEFAULT_STRICT_TOL).nonzero()[0]
        # each stream's hits, as positions in the round
        cuts = np.searchsorted(hits, ends).tolist()
        hits = hits.tolist()
        rows, slots, columns = [], [], []
        for (s, k), lo, first, last in zip(batch, ends, cuts, cuts[1:]):
            needed = count - taken[s]
            mine = hits[first : min(last, first + needed)]
            # drawing one at a time would build every candidate up to the
            # last one taken as a SetFunction, so a nonfinite one among them
            # raises; a round that is finite throughout needs no second look
            used = mine[-1] + 1 - lo if len(mine) == needed else k
            if not (finite or np.isfinite(block[:, lo : lo + used]).all()):
                raise SetFunctionError("payoff values must be finite")
            rows += [s] * len(mine)
            slots += range(taken[s], taken[s] + len(mine))
            columns += mine
            taken[s] += len(mine)
            # a block never outruns the waiting opinion's budget, so only the
            # misses after the last hit can exhaust it
            misses[s] = used - 1 - (mine[-1] - lo) if mine else misses[s] + k
        taken_by_round.append((rows, slots, block[:, columns].T))
        live = [s for s in live if taken[s] < count and not exhausted[s]]
    del block  # freed before the stack is made
    stack = np.empty((len(rngs), count, size))
    for rows, slots, values in taken_by_round:
        stack[rows, slots] = values
    stack[exhausted] = np.nan
    return stack, exhausted


def random_supermodular(
    n: int, rng: np.random.Generator, normalized: bool = True
) -> SetFunction:
    """Random strictly supermodular payoff function: the one-generator
    case of ``random_supermodular_profile``."""
    (f,) = random_supermodular_profile(n, [rng], normalized)
    return f


def random_supermodular_profile(
    n: int, rngs: list[np.random.Generator], normalized: bool = True
) -> tuple[SetFunction, ...]:
    """One random strictly supermodular payoff function per generator.

    Built from positive Harsanyi dividends: every coalition of size >= 2
    gets a positive dividend, singletons get a nonnegative one, and
    f(C) is the dividend sum over subsets of C.  Positive pair dividends
    make every incremental inequality strict.  Each function draws its
    dividends from its own generator, in order; the (len(rngs), 2^n) stack
    of them takes one zeta transform, and each row's bits are those of
    transforming it alone.
    """
    _check_n(n)
    counts = np.bitwise_count(np.arange(1 << n))
    single, big = counts == 1, counts >= 2
    dividends = np.zeros((len(rngs), 1 << n))
    for row, rng in zip(dividends, rngs):
        row[single] = rng.uniform(0.0, 1.0, size=n)
        row[big] = rng.uniform(0.2, 1.0, size=int(big.sum()))
    vals = subset_sums(dividends, n)
    if normalized:
        vals = vals / vals[:, -1:]
    vals[:, 0] = 0.0
    return tuple(SetFunction(n, row) for row in vals)


def subset_sums(weights: np.ndarray, n: int) -> np.ndarray:
    """Zeta transform: out[C] = sum of weights[T] over T subseteq C.

    ``weights`` may be a stack (..., 2^n), each row transformed on its own.
    """
    out = np.asarray(weights, dtype=float).copy()
    for i in range(n):
        # blocks of 2^(i+1) values never straddle two rows of a stack;
        # [:, 1] are the coalitions holding player i
        half = out.reshape(-1, 2, 1 << i)
        half[:, 1] += half[:, 0]
    return out


@lru_cache(maxsize=64)
def membership_matrix(n: int) -> np.ndarray:
    """Boolean (2^n, n) matrix: row C, column i is player i's membership.

    Built once per n and read-only.
    """
    masks = np.arange(1 << n)
    members = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    members.setflags(write=False)
    return members


# --- text serialization -----------------------------------------------------
#
# Header line "n=<count>", then one "bitmask value" line per coalition in
# ascending bitmask order.  Values use repr for lossless round-trips.


def dump_setfn(f: SetFunction) -> str:
    lines = [f"n={f.n}"]
    lines.extend(f"{mask} {float(v)!r}" for mask, v in enumerate(f.values))
    return "\n".join(lines) + "\n"


def parse_setfn(text: str) -> SetFunction:
    # the non-blank lines, each with its line number in the file
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("n="):
        raise SetFunctionError("set-function file must start with a 'n=<count>' header")
    header = lines[0][1]
    try:
        n = int(header[2:])
    except ValueError as exc:
        raise SetFunctionError(f"bad player count in header: {header!r}") from exc
    _check_n(n)
    body = lines[1:]
    if len(body) != (1 << n):
        raise SetFunctionError(f"expected {1 << n} value lines for n={n}, got {len(body)}")
    vals = np.empty(1 << n)
    for expected, (no, line) in enumerate(body):
        try:  # two fields, an integer bitmask and a number
            mask_text, value_text = line.split()
            mask, value = int(mask_text), float(value_text)
        except ValueError:
            raise SetFunctionError(f"malformed line {no}: {line!r}") from None
        if mask != expected:
            raise SetFunctionError(f"line {no}: expected bitmask {expected}, got {mask}")
        vals[mask] = value
    return SetFunction(n, vals)


def read_text(path, error: type[Exception]) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 raises ``error``
    naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_setfn(path) -> SetFunction:
    return parse_setfn(read_text(path, SetFunctionError))
