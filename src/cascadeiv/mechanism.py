"""Ranked-queue admission with lottery tie-breaking, and the slot oracle.

Programs fill fixed capacities from ranked queues with strict priority
(merit bracket, then an independent per-program lottery draw). Every
applicant takes one seat at most. Clearing is computed as the minimal
market-clearing cutoff vector, raised round by round from below; this
yields the applicant-optimal stable matching, identical to
applicant-proposing deferred acceptance under the same strict priorities.
Cutoffs only rise (Azevedo & Leshno 2016), so a raise takes seats only
from the holders of the program raised. The sweep keeps each program's
holders as an index array with their priorities: a round partitions the
holders of the over-capacity programs and walks only the rejected down
their lists, so it costs time in those holders and the applicants who
move, not in N. The sweep returns only the matching; a clearing reads
its cutoffs and lottery margins from it.

A program's pivotal group is the set of applicants who reached it in the
proposal order and whose merit equals the cutoff bracket; among them,
admission is decided purely by the lottery. Their normalized lottery ranks
are the instruments. The slot oracle re-runs the cutoff sweep on each
replication's baseline draws with one extra slot at each program in turn:
the brute-force measurement of the slot-expansion effect the 2SLS
coefficients are supposed to equal. Since cutoffs only fall as seats are
added, the cutoffs c+ with one extra seat at every program measured lie
below those of the baseline and of each one-program expansion. So the
oracle sweeps each of its draws from -inf once, to c+, and starts the
baseline sweep and every expansion's sweep there, from a copy of its
cutoffs, seats and holder arrays; each ends at the same matching as a
start from -inf. An expansion's total outcome recomputes only the
applicants whose seat changed. Every replication takes one path: its
lottery, one baseline sweep (from c+ for a draw the oracle measures, from
-inf otherwise) and the margins read from that matching. One builder
turns them into pivotal records, and those records are what
``simulate_run`` and ``simulate_and_oracles`` return (``SimulationOutput``):
the rows are stacked into a Dataset only when a caller reads them, and a
fit reads the records' moment object, which the records' one row writer
fills a cluster at a time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _mapped, _Moments
from .estimator import _sandwich
from .errors import (
    DataError,
    NoPivotalProgramWarning,
    NoPivotalVariation,
    UnresolvedPriorityTie,
)
from .seeds import derive_seed

__all__ = [
    "Population",
    "MechanismConfig",
    "AllocationResult",
    "SimulationOutput",
    "OracleResult",
    "BalanceResult",
    "run_clearing",
    "luck_variable",
    "simulate_run",
    "slot_expansion_oracle",
    "slot_expansion_oracles",
    "simulate_and_oracles",
    "balance_check",
    "find_blocking_pairs",
    "realized_outcomes",
]


class _PrefLists:
    """``Population.prefs``: set to the preference lists or to the padded
    array; read as a list of int tuples, built from ``pref_array`` on the
    first read (nothing in the package reads them)."""

    def __get__(self, pop, owner=None):
        if pop is None:
            raise AttributeError("prefs")  # a field without a default
        prefs = vars(pop)["prefs"]
        if prefs is None:
            rows = pop.pref_array().tolist()
            prefs = [tuple(row[:m]) for row, m in zip(rows, pop.pref_lengths().tolist())]
            vars(pop)["prefs"] = prefs
        return prefs

    def __set__(self, pop, value):
        vars(pop)["prefs"] = value


@dataclass(frozen=True)
class Population:
    """Applicants with merit brackets, ranked preferences, potential outcomes.

    ``prefs[i]`` lists program ids (1..K) in descending preference; the
    outside option is implicit last. It may be given as a list of
    sequences or as an (N, L) integer array, each row a list followed by
    0s. ``po[i, 0]`` is the untreated outcome and ``po[i, j]`` the outcome
    under program j.
    """

    merit: np.ndarray
    prefs: list = _PrefLists()
    po: np.ndarray
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        merit = np.asarray(self.merit)
        po = np.asarray(self.po, dtype=float)
        object.__setattr__(self, "merit", merit)
        object.__setattr__(self, "po", po)
        n = merit.shape[0]
        if merit.ndim != 1 or merit.dtype.kind not in "iu":
            raise DataError("merit must be a vector of integer brackets")
        if po.ndim != 2 or po.shape[0] != n or po.shape[1] < 2:
            raise DataError("po must be (N, K+1) with K >= 1")
        if not np.all(np.isfinite(po)):
            raise DataError("potential outcomes must be finite")
        prefs = vars(self)["prefs"]
        if len(prefs) != n:
            raise DataError("prefs must have one list per applicant")
        k = po.shape[1] - 1
        if isinstance(prefs, np.ndarray):
            if prefs.ndim != 2 or prefs.dtype.kind not in "iu":
                raise DataError("a preference array must be (N, L) integers")
            pref_arr = (np.ascontiguousarray(prefs, dtype=np.int64) if prefs.shape[1]
                        else np.zeros((n, 1), dtype=np.int64))
            # a list runs to its last nonzero entry
            width = pref_arr.shape[1]
            nonzero = (pref_arr != 0)[:, ::-1]
            lengths = np.where(nonzero.any(axis=1), width - nonzero.argmax(axis=1), 0)
            listed = np.arange(width) < lengths[:, None]
        else:
            lengths = np.fromiter(map(len, prefs), dtype=np.int64, count=n)
            flat = np.fromiter(
                itertools.chain.from_iterable(prefs),
                dtype=np.int64,
                count=int(lengths.sum()),
            )
            width = max(1, int(lengths.max(initial=0)))
            listed = np.arange(width) < lengths[:, None]
            pref_arr = np.zeros((n, width), dtype=np.int64)
            pref_arr[listed] = flat  # row-major order is list order
        invalid = listed & ((pref_arr < 1) | (pref_arr > k))
        invalid_rows = invalid.any(axis=1)
        # a column at a time, with no (N, L) index arrays: a valid id whose
        # slot is already set is a repeat
        slots = np.full((k, n), width, dtype=np.min_scalar_type(width))
        repeat_rows = np.zeros(n, dtype=bool)
        for col in range(width):
            rows = (listed[:, col] & ~invalid[:, col]).nonzero()[0]
            ids = pref_arr[rows, col] - 1
            repeat_rows[rows[slots[ids, rows] != width]] = True
            slots[ids, rows] = col
        # a row that lists an id outside 1..K (an interior zero, say) may
        # repeat it: its sorted list, padding last, shows every repeat
        odd = invalid_rows.nonzero()[0]
        if odd.size:
            ranked = np.sort(np.where(listed[odd], pref_arr[odd], np.iinfo(np.int64).max), axis=1)
            repeat_rows[odd] |= ((ranked[:, 1:] == ranked[:, :-1]) & listed[odd, 1:]).any(axis=1)
        # the first applicant who repeats a program or lists one outside
        # 1..K; a repeat is reported first when both are the same applicant
        first_repeat = int(repeat_rows.argmax()) if repeat_rows.any() else n
        first_invalid = int(invalid_rows.argmax()) if invalid_rows.any() else n
        if first_repeat < n and first_repeat <= first_invalid:
            raise DataError(f"applicant {first_repeat} ranks a program twice")
        if first_invalid < n:
            bad = pref_arr[first_invalid][invalid[first_invalid]]
            raise DataError(
                f"applicant {first_invalid} ranks invalid program {bad[0]} (K={k})"
            )
        for name, arr in self.labels.items():
            if np.asarray(arr).shape != (n,):
                raise DataError(f"label {name!r} must have length N")
        object.__setattr__(self, "prefs", None)  # tuples are built on first read
        pref_arr = pref_arr.view()  # read-only, the caller's array left as it is
        pref_arr.flags.writeable = False
        object.__setattr__(self, "_pref_array", pref_arr)
        object.__setattr__(self, "_pref_lengths", lengths)
        object.__setattr__(self, "_pref_slots", slots)

    @property
    def n(self) -> int:
        return self.merit.shape[0]

    @property
    def n_programs(self) -> int:
        return self.po.shape[1] - 1

    def pref_array(self) -> np.ndarray:
        """(N, L) padded preference matrix; 0 marks unused slots."""
        return self._pref_array

    def pref_lengths(self) -> np.ndarray:
        """Length of each applicant's preference list (its listed slots)."""
        return self._pref_lengths

    def pref_slots(self) -> np.ndarray:
        """(K, N) position of each program in each applicant's list, the
        list width (``pref_array().shape[1]``) where it is not listed."""
        return self._pref_slots


def _seat_count(c) -> int:
    """``c`` as an int; a bool or a number that is not whole is refused."""
    try:
        if not isinstance(c, (bool, np.bool_)) and c == int(c):
            return int(c)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DataError(f"capacities must be whole seat counts, got {c!r}")


@dataclass(frozen=True)
class MechanismConfig:
    capacities: tuple
    lottery_seed: int

    def __post_init__(self):
        caps = tuple(map(_seat_count, self.capacities))
        if any(c < 1 for c in caps):
            raise DataError("capacities must all be >= 1")
        object.__setattr__(self, "capacities", caps)


# One record per applicant whose program changed between cutoff sweeps,
# numbered by the sweep that sees the move; fields in sorted order.
CLEARING_EVENT_DTYPE = np.dtype(
    [(name, np.int64) for name in ("applicant", "program_from", "program_to", "round")]
)
SIMULATION_EVENT_DTYPE = np.dtype(
    [
        (name, np.int64)
        for name in ("applicant", "program_from", "program_to", "replication", "round")
    ]
)


@dataclass(frozen=True)
class AllocationResult:
    """One clearing outcome.

    ``assignment[i]`` is the assigned program (0 = outside option).
    ``cutoffs[k]`` is (merit bracket, lottery draw) of the last admit for
    programs that admitted anyone. ``pivotal_groups[k]`` lists the members
    of program k's lottery margin and ``luck[k]`` their normalized ranks.
    ``events`` is the sweep log, a ``CLEARING_EVENT_DTYPE`` array (empty
    unless ``log_events``). ``admitted``, the (N, K) admission indicator
    matrix, is derived from ``assignment`` on its first read.
    """

    assignment: np.ndarray
    cutoffs: dict
    pivotal_groups: dict
    luck: dict
    oversubscribed: np.ndarray
    draws: np.ndarray
    events: np.ndarray

    @functools.cached_property
    def admitted(self) -> np.ndarray:
        """One-hot on admitted rows: ``admitted[i, k-1]`` iff i holds k."""
        return self.assignment[:, None] == np.arange(1, self.draws.shape[1] + 1)


def luck_variable(draws: np.ndarray) -> np.ndarray:
    """Normalized lottery ranks L = 1 - rank/(1+n), rank 1 = best draw.

    Within a group of size n the values are exactly {i/(n+1): i=1..n} and
    average to 1/2.
    """
    draws = np.asarray(draws, dtype=float)
    n = draws.shape[0]
    if n < 1:
        raise DataError("luck_variable needs a nonempty group")
    order = np.argsort(-draws, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    # computed as (n+1-rank)/(n+1) so the multiset is exactly {i/(n+1)}
    return (n + 1 - ranks) / (n + 1.0)


def _slot_priorities(pop: Population, draws: np.ndarray) -> np.ndarray:
    """The priority (merit bracket plus draw) at each listed slot of the
    (N, L) preference matrix, -inf at padding. The draw of each slot is
    gathered through one flat index array and the merit added in place, so
    no (N, K) priority matrix is made; each priority is still one rounding
    of merit plus draw."""
    prefs = pop.pref_array()
    slot = np.maximum(prefs - 1, 0)
    slot += np.arange(0, draws.size, draws.shape[1])[:, None]  # row i starts at i K
    out = np.take(draws, slot)
    del slot
    out += pop.merit[:, None]
    out[prefs == 0] = -np.inf
    return out


@dataclass(frozen=True)
class _Sweep:
    """The state a cutoff sweep ends in.

    ``cutoffs`` (-inf where a program was never over capacity), each
    applicant's program (``assignment``, 0 = outside option) and the
    preference position where their scan stopped (``pos``: the last listed
    one if they hold no seat, 0 for an empty list). ``holders[k]`` lists
    the applicants holding program k+1, in no particular order, and
    ``held[k]`` their priorities there. That is the whole matching: a later
    sweep reads it as its ``start`` and a clearing reads its margins from
    it; nothing in it is written after the sweep returns.
    """

    cutoffs: np.ndarray
    assignment: np.ndarray
    pos: np.ndarray
    holders: tuple
    held: tuple


def _sweep(
    prefs: np.ndarray,
    lengths: np.ndarray,
    pr_slot: np.ndarray,
    caps: np.ndarray,
    events: list | None = None,
    start: _Sweep | None = None,
) -> _Sweep:
    """Minimal market-clearing cutoffs, raised from below.

    ``prefs`` and ``lengths`` are the population's padded preference matrix
    and list lengths (``Population.pref_array`` and ``pref_lengths``), and
    ``pr_slot`` the priority at each listed slot.

    Each program keeps its holders as an index array and a priority array.
    A round raises the cutoff of each over-capacity program to the priority
    that leaves exactly its capacity at or above it: it partitions only
    that program's holders and rejects those below. Cutoffs only rise, so
    nobody else loses a seat; the rejected walk on down their lists, from
    the next listed program, and join the holders of the first whose
    cutoff they clear. A round costs time in the holders of the
    over-capacity programs and the slots the rejected walk past, not in N.
    Every round must reject someone: a round that rejects nobody while a
    program is over capacity would repeat forever, which happens only when
    tied priorities straddle the cutoff, and raises
    ``UnresolvedPriorityTie``. So there are at most as many rounds as
    listed slots.

    The cutoffs start at -inf, with every applicant at their first choice.
    ``start``, the result of a sweep on the same priorities at capacities
    at least ``caps`` everywhere, starts them instead at its state: its
    cutoffs, seats, stop positions and holder arrays, copied as they are.
    Minimal clearing cutoffs fall weakly as capacities rise, so that start
    lies at or below the target and the sweep ends at the same result as
    the start from -inf (holders aside, in another order), in fewer rounds.

    ``events``, when a list, receives one ``CLEARING_EVENT_DTYPE`` array
    per round with a record for each applicant who moved, in applicant
    order.
    """
    n, width = prefs.shape
    k, seats = caps.shape[0], caps.tolist()
    prog_at, pr_at = prefs.ravel(), pr_slot.ravel()
    last = prog_at.size - 1
    # cutoffs by program id; id 0, the outside option, admits everyone
    cut = np.full(k + 1, -np.inf)
    cutoffs = cut[1:]
    if start is None:
        assignment = prefs[:, 0].copy()  # each at their first choice
        pos = np.zeros(n, dtype=np.int64)
        holders = [np.flatnonzero(assignment == kk + 1) for kk in range(k)]
        held = [pr_slot[:, 0][ids] for ids in holders]
    else:
        cutoffs[:] = start.cutoffs
        assignment, pos = start.assignment.copy(), start.pos.copy()
        holders, held = list(start.holders), list(start.held)
    sweep = 0
    while True:
        over = [kk for kk, cap in enumerate(seats) if len(holders[kk]) > cap]
        if not over:
            return _Sweep(cutoffs, assignment, pos, tuple(holders), tuple(held))
        rejected = []
        for kk in over:
            pr = held[kk]
            excess = len(pr) - seats[kk]
            cutoffs[kk] = np.partition(pr, excess)[excess]
            stay = pr >= cutoffs[kk]
            # rows are picked by index arrays, not masks: on large, mixed
            # masks a masked take costs several times an indexed one
            lost, stay = (~stay).nonzero()[0], stay.nonzero()[0]
            rejected.append(holders[kk][lost])
            holders[kk], held[kk] = holders[kk][stay], pr[stay]
        walk = np.concatenate(rejected)
        if walk.size == 0:
            raise UnresolvedPriorityTie([kk + 1 for kk in over])
        sweep += 1
        if events is not None:
            walk = np.sort(walk)
            moves = np.empty(walk.size, dtype=CLEARING_EVENT_DTYPE)
            moves["applicant"] = walk
            moves["program_from"] = assignment[walk]
            moves["round"] = sweep
        # the rejected walk on, one listed program per pass from the one
        # after their stop position, to the first whose cutoff they clear;
        # past the end of their list is the outside option, held at the
        # last listed position
        base = walk * width
        at, end = base + pos[walk] + 1, base + lengths[walk]  # flat slots
        arrived = []
        while at.size:
            done = at >= end
            slot = np.minimum(at, last)  # a done walker reads any slot
            prog, pr = prog_at[slot], pr_at[slot]
            prog[done] = 0
            ok = pr >= cut[prog]
            ok, passed = ok.nonzero()[0], (~ok).nonzero()[0]
            arrived.append((base[ok], at[ok] - done[ok], prog[ok], pr[ok]))
            base, at, end = base[passed], at[passed] + 1, end[passed]
        base, at, prog, pr = (np.concatenate(a) for a in zip(*arrived))
        got = base // width
        assignment[got] = prog
        pos[got] = at - base
        for kk in np.bincount(prog, minlength=k + 1)[1:].nonzero()[0]:
            joins = (prog == kk + 1).nonzero()[0]
            holders[kk] = np.concatenate((holders[kk], got[joins]))
            held[kk] = np.concatenate((held[kk], pr[joins]))
        if events is not None:
            moves["program_to"] = assignment[walk]
            events.append(moves)


def _capacities(pop: Population, cfg: MechanismConfig) -> np.ndarray:
    caps = np.asarray(cfg.capacities, dtype=np.int64)
    if caps.shape != (pop.n_programs,):
        raise DataError(f"expected {pop.n_programs} capacities, got {caps.shape[0]}")
    return caps


def _lottery(pop: Population, seed: int):
    """The (N, K) lottery draws of ``seed`` and the priority at each listed
    slot they give (``_slot_priorities``): what ``_sweep`` and ``_margins``
    take."""
    draws = np.random.default_rng(seed).random((pop.n, pop.n_programs))
    return draws, _slot_priorities(pop, draws)


def _margins(
    pop: Population, sweep: _Sweep, draws: np.ndarray, events: list | None = None
) -> AllocationResult:
    """The clearing a sweep on ``draws`` ended in, with its lottery margins.

    The margins are read from the final matching. A program's lowest
    admitted priority is the lowest its holders hold (for an over-capacity
    program, the final cutoff). Cutoffs only rise, so whoever reached an
    over-capacity program (``Population.pref_slots`` at or before their
    stop) and does not hold it was rejected there. If their best priority
    lies in the last admit's bracket, everyone who reached the program with
    that merit is pivotal. ``events`` is the list the sweep logged its
    rounds in (none by default).
    """
    oversubscribed = sweep.cutoffs > -np.inf
    merit = pop.merit.astype(float)  # with a draw, the sweep's priority
    cutoffs, groups, luck = {}, {}, {}
    for kk, held in enumerate(sweep.held):
        if held.size == 0:
            continue
        p_last = held.min()
        bracket = int(np.floor(p_last))
        cutoffs[kk + 1] = (bracket, float(p_last % 1.0))
        if not oversubscribed[kk]:
            continue
        reached = pop.pref_slots()[kk] <= sweep.pos
        rejected = reached & (sweep.assignment != kk + 1)
        best = np.where(rejected, merit + draws[:, kk], -np.inf).max(initial=-np.inf)
        if np.floor(best) == bracket:
            members = np.flatnonzero(reached & (pop.merit == bracket))
            groups[kk + 1] = members
            luck[kk + 1] = luck_variable(draws[members, kk])
    return AllocationResult(
        assignment=sweep.assignment,
        cutoffs=cutoffs,
        pivotal_groups=groups,
        luck=luck,
        oversubscribed=oversubscribed,
        draws=draws,
        events=np.concatenate([np.empty(0, dtype=CLEARING_EVENT_DTYPE), *(events or ())]),
    )


def run_clearing(
    pop: Population, cfg: MechanismConfig, log_events: bool = False
) -> AllocationResult:
    """Clear the market for one lottery draw.

    Deterministic given ``cfg.lottery_seed``. Computes the
    applicant-optimal stable matching for the strict priority (merit
    bracket, per-program lottery draw), each applicant holding one seat at
    most. Raises ``UnresolvedPriorityTie`` if two priorities tie exactly
    across a cutoff.
    """
    caps = _capacities(pop, cfg)
    draws, pr_slot = _lottery(pop, cfg.lottery_seed)
    events = [] if log_events else None
    sweep = _sweep(pop.pref_array(), pop.pref_lengths(), pr_slot, caps, events)
    return _margins(pop, sweep, draws, events)


def realized_outcomes(pop: Population, admitted: np.ndarray) -> np.ndarray:
    """Observed outcomes under an (N, K) 0/1 admission matrix with one
    admission per row at most, such as ``AllocationResult.admitted``."""
    admitted = np.asarray(admitted)
    one_seat = admitted.shape == (pop.n, pop.n_programs)
    if one_seat:
        rows, cols = np.nonzero(admitted)  # row-major: a row's entries are adjacent
        one_seat = np.all(admitted[rows, cols] == 1) and not np.any(rows[1:] == rows[:-1])
    if not one_seat:
        raise DataError("admitted must be an (N, K) 0/1 matrix with one admission per row at most")
    assignment = np.zeros(pop.n, dtype=np.int64)
    assignment[rows] = cols + 1
    return _outcomes(pop.po, assignment)


def _outcomes(po: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """po[i, 0] + sum_j (po[i, j] - po[i, 0]) [assignment[i] == j], bit for
    bit as numpy sums the (N, K) products, without making them. A row's
    outcome depends on its own entries alone, so a row subset gives the
    same bits. The sum starts at +0.0 and gains at most one nonzero term, so
    it is the row's one gain or +0.0, which turns a -0.0 outcome into +0.0."""
    y = po[:, 0] + 0.0
    rows = np.flatnonzero(assignment)
    y[rows] += po[rows, assignment[rows]] - po[rows, 0]
    return y


def _replications(
    pop: Population,
    caps: np.ndarray,
    reps: int,
    master_seed: int,
    log_events: bool = False,
    oracle: _SlotOracles | None = None,
):
    """The baseline clearings at capacities ``caps`` of the first ``reps``
    replications, on seed ``derive_seed(master_seed, rep)``; one at a time,
    so no clearing outlives its replication. Each draw is its lottery, one
    sweep and its margins. The first ``oracle.reps`` draws are swept by
    ``oracle``, which also measures their slot expansions (and logs no
    events), the others from -inf; draws past ``reps`` feed the oracle
    alone, and their margins are not read."""
    prefs, lengths = pop.pref_array(), pop.pref_lengths()
    for r in range(reps if oracle is None else max(reps, oracle.reps)):
        draws, pr_slot = _lottery(pop, derive_seed(master_seed, r))
        events = [] if log_events else None
        if oracle is not None and r < oracle.reps:
            sweep = oracle.clear(r, pr_slot)
        else:
            sweep = _sweep(prefs, lengths, pr_slot, caps, events)
        if r < reps:
            yield r, _margins(pop, sweep, draws, events)


# ---------------------------------------------------------------------------
# Stacked IV dataset
# ---------------------------------------------------------------------------


class SimulationOutput:
    """The pivotal groups of a simulation's replications, one compact record
    each, and the sweep log (``events``, a ``SIMULATION_EVENT_DTYPE`` array,
    empty unless logged); built by ``_simulate`` or, from a companion
    (``io``), by ``from_record_arrays``.

    A record is (replication, program, luck, assignment, outcome), the
    assignment as ``np.min_scalar_type(K)`` and the outcome computed once
    from ``po``: 17 bytes a member, where a stacked row takes about 150 at
    K = 5. A row's group label is ``values[rows]`` of ``group``, (values,
    rows) with ``rows`` concatenated. One row writer, ``_write``, stacks
    ``dataset`` on first read and fills the moment object, with the group
    labels, so ``_moments`` is ``dataset``'s, bit for bit, built without
    the rows: ``run`` stands in for ``run.dataset`` in the fits, the group
    fits, the bootstrap and, through its luck and ``cluster_codes``, the
    balance check. A simulation also keeps each record's ``members``
    (population rows, 8 bytes a member) for ``applicants``,
    ``distinct_applicants`` and ``covariates``.
    """

    def __init__(self, k: int, records: list, group=None, members=None, population=None,
                 events=None):
        progs = np.array([rec[1] for rec in records])
        self._sizes = np.array([rec[2].size for rec in records])
        counts = np.bincount(progs - 1, weights=self._sizes, minlength=k)
        baseline = int(np.argmax(counts))  # the modal margin anchors the dummies
        margins = [j + 1 for j in range(k) if j != baseline and counts[j] > 0]
        self._dummy = {prog: col for col, prog in enumerate(margins, start=1)}  # x column
        self._names = [f"r{r}:p{prog}" for r, prog, *_ in records]
        self._records, self._group, self._members = records, group, members
        self.population = population
        self.events = np.empty(0, dtype=SIMULATION_EVENT_DTYPE) if events is None else events
        self._bounds = [0, *np.cumsum(self._sizes).tolist()]  # record i: rows bounds[i:i + 2]
        self.n_obs, self.n_clusters = self._bounds[-1], len(records)
        self.n_treatments, self.n_controls = k, 1 + len(self._dummy)

    @classmethod
    def from_record_arrays(cls, k: int, table, luck, outcome, assignment, labels=None,
                           codes=None):
        """The records ``record_arrays`` gave; each row's group label, if
        any, is its code's entry of ``labels``."""
        parts = zip(*(np.split(col, np.cumsum(table[:, 2])[:-1])
                      for col in (luck, assignment, outcome)))
        records = [(r, prog, *part) for (r, prog, _), part in zip(table.tolist(), parts)]
        return cls(k, records, None if labels is None else (labels, [codes]))

    def record_arrays(self):
        """The records as a companion holds them: an (R, 3) int64 table of
        each record's replication, program and size, then each row's luck,
        outcome and assignment, record after record."""
        reps, progs, lucks, assignments, outcomes = zip(*self._records)
        table = np.column_stack([reps, progs, self._sizes]).astype(np.int64)
        return table, np.concatenate(lucks), np.concatenate(outcomes), np.concatenate(assignments)

    def record_layout(self):
        """Each record's cluster name and the x column of its program's
        margin dummy (None at the baseline margin)."""
        return [(name, self._dummy.get(prog)) for name, (_, prog, *_) in
                zip(self._names, self._records)]

    def _write(self, rows, out):
        """Rows ``rows`` (a slice or an ascending index array) of W = [x, z,
        a, y] into the zeroed ``out``, a record at a time: a slice is cut at
        the records' bounds, so it takes no index array."""
        p, k, bounds = self.n_controls, self.n_treatments, self._bounds
        if isinstance(rows, slice):  # (record, its rows, their part of out)
            lo, hi, _ = rows.indices(self.n_obs)
            first, last = bisect.bisect_right(bounds, lo) - 1, bisect.bisect_left(bounds, hi)
            cuts = [lo, *bounds[first + 1 : last], hi]
            parts = [(i, slice(c0 - bounds[i], c1 - bounds[i]), out[c0 - lo : c1 - lo])
                     for i, c0, c1 in zip(range(first, last), cuts, cuts[1:])]
        else:
            first, last = (bisect.bisect_right(bounds, r) for r in (rows[0], rows[-1]))
            cuts = [0, *np.searchsorted(rows, bounds[first:last]).tolist(), rows.size]
            parts = [(i, rows[c0:c1] - bounds[i], out[c0:c1])
                     for i, c0, c1 in zip(range(first - 1, last), cuts, cuts[1:])]
        for i, mine, w in parts:
            _, prog, luck, assignment, outcome = self._records[i]
            assignment = assignment[mine]
            w[:, -1] = outcome[mine]
            held = np.flatnonzero(assignment)
            w[:, p + k : -1][held, assignment[held] - 1] = 1.0
            w[:, p + prog - 1] = luck[mine]
            w[:, 0] = 1.0
            if prog in self._dummy:
                w[:, self._dummy[prog]] = 1.0

    def group_labels(self) -> np.ndarray | None:
        """Each row's group label; None without a label."""
        if self._group is None:
            return None
        values, rows = self._group
        return np.concatenate([values[r] for r in rows])

    @property
    def applicants(self) -> np.ndarray:
        """The population row of each stacked row (a simulation's), made on
        each read: nothing holds it."""
        return np.concatenate(self._members, dtype=np.int64)

    def distinct_applicants(self) -> tuple[np.ndarray, np.ndarray]:
        """The population rows that hold a stacked row, ascending, and each
        row's index among them, as ``np.unique(applicants,
        return_inverse=True)`` gives them, the index in
        ``np.min_scalar_type`` of their count: found by one mask over the
        population, so no per-row array is made but the index."""
        held = np.zeros(self.population.n, dtype=bool)
        for idx in self._members:
            held[idx] = True
        members = np.flatnonzero(held)
        index = np.zeros(held.size, dtype=np.min_scalar_type(members.size))
        index[members] = np.arange(members.size)
        return members, np.concatenate([index[idx] for idx in self._members])

    @functools.cached_property
    def dataset(self) -> Dataset:
        """The stacked rows, written by ``_write`` into one column-major W in a
        memory map (``data._mapped``), whose contiguous column blocks it views."""
        p, k = self.n_controls, self.n_treatments
        w = _mapped((p + 2 * k + 1, self.n_obs)).T
        self._write(slice(None), w)
        return Dataset(y=w[:, -1], a=w[:, p + k : -1], z=w[:, p : p + k], x=w[:, :p],
                       cluster=np.repeat(np.array(self._names), self._sizes),
                       group_label=self.group_labels())

    @functools.cached_property
    def covariates(self) -> dict:
        """``member_covariates`` of each row's applicant."""
        rows = self.applicants
        return {name: col[rows] for name, col in self.member_covariates().items()}

    def member_covariates(self) -> dict:
        """Merit, first choice (0 for an empty list) and every population
        label (coded by sorted level if not numeric) of each population
        member, as floats."""
        pop = self.population
        covariates = {"merit": pop.merit.astype(float)}
        covariates["first_choice"] = pop.pref_array()[:, 0].astype(float)
        for name, arr in pop.labels.items():
            arr = np.asarray(arr)
            if arr.dtype.kind not in "fiub":
                _, arr = np.unique(arr, return_inverse=True)
            covariates[name] = arr.astype(float)
        return covariates

    def cluster_codes(self) -> np.ndarray:
        """Each row's cluster code, as ``dataset.cluster_codes()`` gives it
        (the cluster names' sorted order), in ``np.min_scalar_type`` of the
        largest."""
        codes = np.unique(np.array(self._names), return_inverse=True)[1]
        return np.repeat(codes.astype(np.min_scalar_type(self.n_clusters - 1)), self._sizes)

    @functools.cached_property
    def _moments(self) -> _Moments:
        """``dataset``'s moment object, written from the records by ``_write``."""
        return _Moments(self.cluster_codes(), self.n_controls + 2 * self.n_treatments + 1,
                        self._write, self.group_labels())


def _simulate(pop: Population, cfg: MechanismConfig, reps: int, master_seed: int,
              label: str | None = None, log_events: bool = False,
              oracle: _SlotOracles | None = None) -> SimulationOutput:
    """The pivotal records of the first ``reps`` replications, and their
    sweep logs with ``log_events``; ``oracle``, if given, sweeps its draws
    and measures their slot expansions on the way (``_replications``)."""
    if reps < 1:
        raise DataError("reps must be >= 1")
    if label is not None and label not in pop.labels:
        raise DataError(
            f"label {label!r} is not in the population; its labels are {sorted(pop.labels)}"
        )
    k = pop.n_programs
    asg_type = np.min_scalar_type(k)
    records, members = [], []  # (rep, program, luck, assignment, outcome) per pivotal group
    events: list = [np.empty(0, dtype=SIMULATION_EVENT_DTYPE)]
    caps = _capacities(pop, cfg)
    for r, res in _replications(pop, caps, reps, master_seed, log_events, oracle):
        if log_events:
            moves = np.empty(res.events.size, dtype=SIMULATION_EVENT_DTYPE)
            for name in CLEARING_EVENT_DTYPE.names:
                moves[name] = res.events[name]
            moves["replication"] = r
            events.append(moves)
        for prog, idx in sorted(res.pivotal_groups.items()):
            assignment = res.assignment[idx].astype(asg_type)
            records.append((r, prog, res.luck[prog], assignment, _outcomes(pop.po[idx], assignment)))
            members.append(idx)
    if not records:
        raise NoPivotalVariation("no program was oversubscribed in any replication")
    missing = sorted(set(range(1, k + 1)) - {prog for _, prog, *_ in records})
    if missing:
        warnings.warn(
            f"programs {missing} produced no pivotal group in any replication; "
            "their instrument columns are identically zero",
            NoPivotalProgramWarning,
            stacklevel=3,
        )
    group = None if label is None else (np.asarray(pop.labels[label]), members)
    return SimulationOutput(k, records, group, members, pop, np.concatenate(events))


def simulate_run(
    pop: Population,
    cfg: MechanismConfig,
    reps: int,
    master_seed: int,
    label: str | None = None,
    log_events: bool = False,
) -> SimulationOutput:
    """Pivotal-group records across lottery replications.

    Each replication clears the market with seed ``derive_seed(master_seed,
    rep)``. One record per pivotal-group membership: Z_ij is the member's
    normalized lottery rank at margin j and zero elsewhere (an applicant
    pivotal at two margins contributes two records, one per group, so every
    record's luck is uniform within its own cluster). Controls are a
    constant plus applied-at-margin dummies (modal margin as baseline) and
    clusters are (replication, pivotal group); ``label`` names the group
    label. ``applicants`` gives each row's population row, and
    ``covariates`` for balance checks (merit, first choice, labels). With
    ``log_events`` the replications' sweep logs are stacked in ``events``,
    each record tagged with its replication. Each pivotal group is held as
    one compact record, and the rows are stacked when first read
    (``SimulationOutput``).
    """
    return _simulate(pop, cfg, reps, master_seed, label, log_events)


# ---------------------------------------------------------------------------
# Brute-force slot-expansion oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Monte Carlo slot-expansion effect for one program."""

    value: float
    mc_se: float
    undersubscribed: bool
    per_rep: np.ndarray


class _SlotOracles:
    """Slot-expansion deltas per program, one lottery draw at a time.

    For each program k the baseline oversubscribes, the cutoff sweep is
    re-run on the baseline's draws with capacity k raised by one. Cutoffs
    fall weakly as any capacity rises (Azevedo & Leshno 2016), so the
    cutoffs c+ at one extra seat on every program in ``programs`` lie at or
    below those of the baseline and of every one-program expansion, and a
    sweep started at c+ ends where the start from -inf does. So each draw
    is swept from -inf once, to c+, and the baseline and every expansion
    start there; with one program, c+ is its expansion. An expansion's
    total outcome is the baseline's with the rows whose seat changed
    recomputed, the same bits as recomputing every row.
    """

    def __init__(self, pop: Population, cfg: MechanismConfig, programs, reps: int):
        self.programs = [int(k) for k in programs]
        for k in self.programs:
            if not 1 <= k <= pop.n_programs:
                raise DataError(f"program id {k} out of range 1..{pop.n_programs}")
        if reps < 1:
            raise DataError("reps must be >= 1")
        self.pop = pop
        self.caps = _capacities(pop, cfg)
        self.caps_plus = self.caps.copy()  # c+: one more seat at every program measured
        self.caps_plus[np.array(self.programs, dtype=np.intp) - 1] += 1
        self.reps = reps
        self.deltas = np.zeros((len(self.programs), reps))
        self.oversub = np.zeros(len(self.programs), dtype=bool)

    def clear(self, r: int, pr_slot: np.ndarray) -> _Sweep:
        """Draw r's baseline sweep (``pr_slot`` as ``_lottery`` returns it),
        its slot expansions recorded on the way; its margins are left to
        the caller that needs them (``_margins``)."""
        pop, caps = self.pop, self.caps
        prefs, lengths = pop.pref_array(), pop.pref_lengths()
        start = _sweep(prefs, lengths, pr_slot, self.caps_plus)
        base = _sweep(prefs, lengths, pr_slot, caps, start=start)
        todo = [j for j, k in enumerate(self.programs) if base.cutoffs[k - 1] > -np.inf]
        if not todo:
            return base
        self.oversub[todo] = True
        base_y = _outcomes(pop.po, base.assignment)
        base_total = base_y.sum()
        for j in todo:
            one_more = caps.copy()
            one_more[self.programs[j] - 1] += 1
            if np.array_equal(one_more, self.caps_plus):  # one program: c+ is its expansion
                assignment = start.assignment
            else:
                assignment = _sweep(prefs, lengths, pr_slot, one_more, start=start).assignment
            moved = np.flatnonzero(assignment != base.assignment)
            y = base_y.copy()
            y[moved] = _outcomes(pop.po[moved], assignment[moved])
            self.deltas[j, r] = y.sum() - base_total
        return base

    def results(self) -> list[OracleResult]:
        reps = self.deltas.shape[1]
        return [
            OracleResult(
                value=float(d.mean()) if oversub else 0.0,
                mc_se=float(d.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
                undersubscribed=not oversub,
                per_rep=d,
            )
            for d, oversub in zip(self.deltas, self.oversub)
        ]


def slot_expansion_oracles(
    pop: Population,
    cfg: MechanismConfig,
    programs,
    reps: int,
    master_seed: int,
) -> list[OracleResult]:
    """Average change in total outcomes from one extra slot, per program.

    Per replication, clears the market once at the baseline capacities
    with seed ``derive_seed(master_seed, rep)``, then, on the same lottery
    draws, re-runs the cutoff sweep with capacity k raised by one for each
    program k in ``programs`` that the baseline oversubscribed. One sweep
    from -inf finds the cutoffs c+ with one extra seat at every program in
    ``programs``, and the baseline's sweep and each program's sweep start
    there (cutoffs only fall as seats are added, so each ends at the same
    matching as from -inf). The effect is the change in realized outcomes
    summed over the whole population (outside option included, so terminal
    entrants of the reallocation chain count); only the applicants whose
    seat changed are recomputed. A program that is never oversubscribed
    gets 0 with ``undersubscribed`` set: its marginal slot admits no one.
    Results come in the order of ``programs``.
    """
    oracle = _SlotOracles(pop, cfg, programs, reps)
    for _ in _replications(pop, oracle.caps, 0, master_seed, oracle=oracle):
        pass  # no draw's margins are read: each is only swept
    return oracle.results()


def slot_expansion_oracle(
    pop: Population,
    cfg: MechanismConfig,
    k: int,
    reps: int,
    master_seed: int,
) -> OracleResult:
    """``slot_expansion_oracles`` for the single program ``k``."""
    return slot_expansion_oracles(pop, cfg, (k,), reps, master_seed)[0]


def simulate_and_oracles(
    pop: Population,
    cfg: MechanismConfig,
    reps: int,
    master_seed: int,
    programs,
    oracle_reps: int,
) -> tuple[SimulationOutput, list[OracleResult]]:
    """``simulate_run`` and ``slot_expansion_oracles`` on shared clearings.

    Clears each of the first ``max(reps, oracle_reps)`` lottery draws once:
    the first ``reps`` give the pivotal records and the first
    ``oracle_reps`` feed the oracle, which sweeps them from c+ (see
    ``slot_expansion_oracles``); the others are swept from -inf. Returns
    exactly what ``simulate_run(pop, cfg, reps, master_seed)`` and
    ``slot_expansion_oracles(pop, cfg, programs, oracle_reps, master_seed)``
    return, for one clearing per draw instead of two. A caller that only
    fits the records (``estimate_all(run)``, as ``verify`` does) never
    holds the stacked rows.
    """
    oracle = _SlotOracles(pop, cfg, programs, oracle_reps)
    return _simulate(pop, cfg, reps, master_seed, oracle=oracle), oracle.results()


# ---------------------------------------------------------------------------
# Balance
# ---------------------------------------------------------------------------


# Rows gathered at a time when a balance check sums coded covariate rows
SUM_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class BalanceResult:
    names: tuple
    coef: np.ndarray
    se: np.ndarray
    tstat: np.ndarray
    joint_wald: float
    joint_f: float
    df: int
    p_value: float
    n_clusters: int


def pooled_luck(data) -> np.ndarray:
    """Per-row luck: each record carries one margin's lottery rank. A
    Dataset's rows hold it in their z row; a simulation's records
    (``SimulationOutput``) hold it as it is."""
    if isinstance(data, SimulationOutput):
        return np.concatenate([luck for _, _, luck, *_ in data._records])
    return data.z.sum(axis=1)


def balance_check(data, covariates, names=None, codes=None) -> BalanceResult:
    """Regress each predetermined covariate on the pooled luck variable.

    ``data`` is a Dataset or a simulation's pivotal records (a
    ``SimulationOutput``, as ``simulate_run`` or
    ``io.load_dataset_records`` gives it): only its luck, its cluster codes
    and its row count are read, so the records are never stacked.
    ``covariates`` holds one row per observation, (N, c) or (c, N); with
    ``codes``, it is an (m, c) table of distinct rows and row i is
    ``covariates[codes[i]]``, as a covariates companion holds them
    (``io.load_covariates_records``). Either way the same rows give the
    same bits. The moment object's writer writes each cell's rows centred,
    so no centred copy is made; with ``codes`` the centring means and the
    scale sums add the rows a block at a time, in the order in which numpy
    sums the (N, c) matrix, so neither that matrix nor its square is made.

    Slopes, from one moment object over [1, luck, covariates], use
    cluster-robust standard errors; the joint test stacks the per-covariate
    slope scores into one sandwich and refers the Wald statistic over its
    rank to an F(rank, G-1) distribution.
    """
    import scipy.special

    table = np.asarray(covariates, dtype=float)
    if codes is None:
        table = np.atleast_2d(table)
        if table.shape[0] != data.n_obs:
            table = table.T
        rows = table.shape[0]
    else:
        table, codes = table.reshape(len(table), -1), np.asarray(codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu" or (
                codes.size and not 0 <= codes.min() <= codes.max() < len(table)):
            raise DataError("covariate codes must be a vector of indices into the "
                            f"{len(table)} rows of the covariate table")
        rows = codes.size
    if rows != data.n_obs:
        raise DataError(f"covariates have {rows} rows and the data {data.n_obs}: "
                        "balance needs one covariate row per observation")
    m = table.shape[1]
    if names is None:
        names = tuple(f"cov_{j + 1}" for j in range(m))
    if codes is None:
        mean, squares = table.mean(axis=0), (table**2).sum(axis=0)
    else:
        mean, squares = _gathered_sums(table, codes) / rows, _gathered_sums(table, codes, True)
    # centred columns keep the Schur step below free of cancellation
    luck = pooled_luck(data)
    luck -= luck.mean()

    def write(at, out):
        out[:, 0] = 1.0
        out[:, 1] = luck[at]
        out[:, 2:] = table[at if codes is None else codes[at]]
        out[:, 2:] -= mean

    mom = _Moments(data.cluster_codes(), 2 + m, write)
    gram = mom.grams(np.ones(mom.g, dtype=np.intp))[0][0]
    e = np.vstack([-gram[0, 1:] / gram[0, 0], np.eye(m + 1)])  # the rows net of 1: W E
    s = e.T @ gram @ e
    sll = s[0, 0]
    if sll <= 0.0:
        raise DataError("luck variable has no variation")
    cross = s[0, 1:]
    # cluster-constant covariates give exact balance; zero them instead of
    # reporting t-statistics that are ratios of rounding noise. The bound is
    # relative to |luck| * |covariate|, so rescaling a covariate moves it too
    scale = np.sqrt(sll) * np.sqrt(squares)
    cross = np.where(np.abs(cross) <= 1e-9 * scale, 0.0, cross)
    coefs = cross / sll
    # row i's scores: luck_i (cov_i - luck_i coefs) / sll, net of the constant
    right = e[:, 1:] - np.outer(e[:, 0], coefs)
    v = _sandwich(mom.scores(np.tile(e[:, :1] / sll, m), right), data.n_obs, k_params=2)
    se = np.sqrt(np.diag(v))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(se > 0, coefs / se, 0.0)
    rank = int(np.linalg.matrix_rank(v)) if v.size else 0
    if rank == 0:
        wald = 0.0
    else:
        wald = float(coefs @ (np.linalg.pinv(v) @ coefs))
    f_stat = wald / rank if rank else 0.0
    p = float(scipy.special.fdtrc(rank, mom.g - 1, f_stat)) if rank else 1.0
    return BalanceResult(
        names=tuple(names),
        coef=coefs,
        se=se,
        tstat=tstat,
        joint_wald=wald,
        joint_f=f_stat,
        df=rank,
        p_value=p,
        n_clusters=mom.g,
    )


def _gathered_sums(table: np.ndarray, codes: np.ndarray, square: bool = False) -> np.ndarray:
    """The column sums of the rows ``table[codes]`` (squared with
    ``square``), bit for bit as numpy sums that C-ordered (N, c) matrix,
    which is not made. numpy adds the rows of two or more columns one after
    another, so each block of ``SUM_BLOCK_ROWS`` rows is added on to the
    running sums; a single column is contiguous, and numpy sums it
    pairwise, so it is gathered whole."""
    step = codes.size if table.shape[1] == 1 else SUM_BLOCK_ROWS
    total = None
    for lo in range(0, codes.size, step):
        block = table[codes[lo : lo + step]]
        if square:
            block = block**2
        total = np.add.reduce(block if total is None else np.vstack([total, block]), axis=0)
    return total


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def find_blocking_pairs(
    pop: Population, cfg: MechanismConfig, result: AllocationResult
) -> list[tuple[int, int]]:
    """Exhaustive stability scan from the assignment alone.

    (i, k) blocks when applicant i ranks k above their assignment and k
    either has spare capacity or admitted someone with lower priority. The
    programs i ranks above their assignment are the ones the assignment
    says rejected i: those listed before it, or every listed one when i
    holds no listed seat (for a clearing, the programs i reached and does
    not hold). Pairs come by applicant, then in preference order.
    """
    caps = np.asarray(cfg.capacities)
    priority = pop.merit[:, None].astype(float) + result.draws
    free = result.admitted.sum(axis=0) < caps
    lowest = np.where(result.admitted, priority, np.inf).min(axis=0)
    prefs, lengths = pop.pref_array(), pop.pref_lengths()
    slot = np.arange(prefs.shape[1])
    held = (slot < lengths[:, None]) & (prefs == result.assignment[:, None])
    stop = np.where(held.any(axis=1), held.argmax(axis=1), lengths)
    prog = np.maximum(prefs - 1, 0)  # padding is never before the stop
    blocking = (slot < stop[:, None]) & (
        free[prog] | (np.take_along_axis(priority, prog, axis=1) > lowest[prog])
    )
    ii, ll = np.nonzero(blocking)
    return list(zip(ii.tolist(), prefs[ii, ll].tolist()))
