"""The blocker measurement protocol, defined once.

Four blocker schedules ("runs") measure the test.  A blocker absorbs one
arm before the first coupler (``block_t1``) or inside the loop
(``block_t2``); seeing the photon later certifies the other arm, so a
blocked arm records the opposite outcome for that time.  t3 is read from
the detector that fired.  Every model of the experiment reduces to one
(+1, -1) detector cell per sub-run (:func:`path_cells`, for fixed paths):
:func:`joint_tables` turns the cells into per-run normalized tables and
:func:`evaluate` forms LGI (bound 1), WLGI (bound 0) and the three NSIT
measures (each 0) from their :func:`ingredients`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "ARM_LABELS",
    "BOUNDS",
    "BlockerConfig",
    "Evaluation",
    "JointProbTable",
    "NSIT_MARGINALS",
    "RUN_CONFIGS",
    "RUN_SUB_BY_BLOCKERS",
    "RUN_TIMES",
    "UndefinedProbabilityError",
    "combine",
    "correlation",
    "evaluate",
    "ingredients",
    "joint_tables",
    "outcome_prefix",
    "path_cells",
]

ARM_LABELS = ("none", "plus", "minus")

# Blocking one arm certifies the opposite outcome for that time.
_BLOCKED_TO_OUTCOME = {"minus": +1, "plus": -1}

#: Macrorealist bound of each tested expression.
BOUNDS = {"lgi": 1.0, "wlgi": 0.0, "nsit12": 0.0, "nsit23": 0.0, "nsit13": 0.0}


class UndefinedProbabilityError(ValueError):
    """Raised when a run's total weight vanishes and no table can be formed."""


@dataclass(frozen=True)
class BlockerConfig:
    """Blocker positions for one sub-run.

    Each field names the arm absorbed at that stage: ``"none"``, ``"plus"``
    or ``"minus"``.  ``block_t1`` acts on the outer arms before the loop,
    ``block_t2`` on the inner arms.
    """

    block_t1: str = "none"
    block_t2: str = "none"

    def __post_init__(self) -> None:
        for name in (self.block_t1, self.block_t2):
            if name not in ARM_LABELS:
                raise ValueError(f"blocker position must be one of {ARM_LABELS}, got {name!r}")


#: Blocker schedule of each run of the measurement protocol.
RUN_CONFIGS: Dict[int, Tuple[BlockerConfig, ...]] = {
    1: (BlockerConfig("none", "minus"), BlockerConfig("none", "plus")),
    2: (BlockerConfig("minus", "none"), BlockerConfig("plus", "none")),
    3: (
        BlockerConfig("minus", "minus"),
        BlockerConfig("minus", "plus"),
        BlockerConfig("plus", "minus"),
        BlockerConfig("plus", "plus"),
    ),
    4: (BlockerConfig("none", "none"),),
}

#: Times recorded by each run; these are also the keys of its table.
RUN_TIMES: Dict[int, Tuple[str, ...]] = {
    1: ("t2", "t3"),
    2: ("t1", "t3"),
    3: ("t1", "t2", "t3"),
    4: ("t3",),
}

#: (block_t1, block_t2) -> (run, sub-run index in :data:`RUN_CONFIGS`).
RUN_SUB_BY_BLOCKERS: Dict[Tuple[str, str], Tuple[int, int]] = {
    (cfg.block_t1, cfg.block_t2): (run, sub)
    for run, cfgs in RUN_CONFIGS.items()
    for sub, cfg in enumerate(cfgs)
}

_ORDERS = ("one-time", "two-time", "three-time")


def outcome_prefix(cfg: BlockerConfig) -> Tuple[int, ...]:
    """Outcomes certified by the blocked arms of a sub-run, earliest first."""
    return tuple(
        _BLOCKED_TO_OUTCOME[arm] for arm in (cfg.block_t1, cfg.block_t2) if arm != "none"
    )


def path_cells(
    paths: Mapping[str, Sequence[Tuple[int, int, int]]],
) -> Dict[int, List[Tuple[float, float]]]:
    """Per-sub-run (+1, -1) survivor counts of photons on fixed paths.

    ``paths`` maps each t1-blocker position in :data:`ARM_LABELS` to the
    paths (q1, q2, q3) of its photons, one photon per path.  A photon
    survives a sub-run when its path at each blocked time is the outcome
    the blocker certifies; the detector reads its t3 path.
    """
    cells: Dict[int, List[Tuple[float, float]]] = {run: [] for run in RUN_CONFIGS}
    for run, cfgs in RUN_CONFIGS.items():
        for cfg in cfgs:
            blocked = [i for i, arm in enumerate((cfg.block_t1, cfg.block_t2)) if arm != "none"]
            prefix = outcome_prefix(cfg)
            finals = [p[2] for p in paths[cfg.block_t1] if tuple(p[i] for i in blocked) == prefix]
            cells[run].append((float(finals.count(+1)), float(finals.count(-1))))
    return cells


@dataclass
class JointProbTable:
    """Joint outcome probability table assembled from one run.

    Attributes
    ----------
    order : str
        ``"one-time"``, ``"two-time"`` or ``"three-time"``.
    entries : dict
        Maps outcome tuples (elements +1/-1) to probabilities.  Keys are
        ordered canonically (+1 before -1, leftmost time slowest).
    """

    order: str
    entries: Dict[Tuple[int, ...], float]

    def total(self) -> float:
        return sum(self.entries.values())

    def marginalize_last(self) -> "JointProbTable":
        """Sum out the final time (arrival-time bookkeeping).

        Entry sums reuse the stored floats, so the marginal table's total
        equals this table's total exactly.
        """
        if self.order != "three-time":
            raise ValueError("can only marginalize the three-time table")
        entries: Dict[Tuple[int, ...], float] = {}
        for key in itertools.product((+1, -1), repeat=2):
            entries[key] = self.entries[key + (+1,)] + self.entries[key + (-1,)]
        return JointProbTable("two-time", entries)


def joint_tables(
    cells: Mapping[int, Sequence[Tuple[float, float]]],
) -> Dict[Tuple[str, ...], JointProbTable]:
    """Joint outcome tables from per-sub-run detector cells.

    ``cells`` maps any subset of the runs to one (+1, -1) weight pair per
    sub-run, in :data:`RUN_CONFIGS` order.  A weight is a scalar or a NumPy
    array; arrays of one shape give tables of arrays, one entry per
    element.  Each run's table, keyed by :data:`RUN_TIMES`, holds its cells
    over their sum; run 3 also gives its (t1, t2) marginal.  A run whose
    total is not positive (for arrays: at any element) raises
    :class:`UndefinedProbabilityError`.
    """
    tables: Dict[Tuple[str, ...], JointProbTable] = {}
    for run, subs in cells.items():
        raw: Dict[Tuple[int, ...], float] = {}
        for cfg, (plus, minus) in zip(RUN_CONFIGS[run], subs):
            prefix = outcome_prefix(cfg)
            raw[prefix + (+1,)] = plus
            raw[prefix + (-1,)] = minus
        total = sum(raw.values())
        if np.any(total <= 0.0):
            raise UndefinedProbabilityError(f"run {run} total weight vanishes; table undefined")
        times = RUN_TIMES[run]
        entries = {
            key: raw[key] / total for key in itertools.product((+1, -1), repeat=len(times))
        }
        tables[times] = JointProbTable(_ORDERS[len(times) - 1], entries)
    if RUN_TIMES[3] in tables:
        tables[("t1", "t2")] = tables[RUN_TIMES[3]].marginalize_last()
    return tables


def correlation(table: JointProbTable) -> float:
    """Dichotomic correlator <q_i q_j> of a two-time table."""
    if table.order != "two-time":
        raise ValueError("correlation requires a two-time table")
    e = table.entries
    return e[(+1, +1)] - e[(+1, -1)] - e[(-1, +1)] + e[(-1, -1)]


def combine(c12, c23, c13, mp12, mp23, mp13):
    """(LGI, WLGI) from three correlators and three P(-, +) terms.

    ``cij`` is <qi qj> and ``mpij`` is P(qi = -1, qj = +1).  Works on
    scalars and elementwise on broadcastable NumPy arrays.
    """
    return c12 + c23 - c13, mp13 - mp12 - mp23


class Evaluation(NamedTuple):
    """The tested expressions of one set of tables, with their ingredients."""

    lgi: float
    wlgi: float
    nsit12: float
    nsit23: float
    nsit13: float
    correlations: Dict[str, float]
    wlgi_terms: Dict[str, float]


#: The two P(+) marginals each NSIT measure compares, as (table key, time).
NSIT_MARGINALS = {
    "nsit12": ((("t2", "t3"), "t2"), (("t1", "t2"), "t2")),
    "nsit23": ((("t3",), "t3"), (("t2", "t3"), "t3")),
    "nsit13": ((("t3",), "t3"), (("t1", "t3"), "t3")),
}


def ingredients(tables: Mapping[Tuple[str, ...], JointProbTable]) -> Dict[object, float]:
    """The values LGI, WLGI and the NSIT measures are formed from.

    Each two-time table keyed (ti, tj) gives its correlator ``cij`` and its
    P(qi = -1, qj = +1) entry ``mpij``; each (table key, time) pair that
    :data:`NSIT_MARGINALS` names gives P(+) at that time, under that pair.
    It accepts any subset of the tables, with scalar or array entries.
    """
    out: Dict[object, float] = {}
    for key, table in tables.items():
        if table.order == "two-time":
            suffix = "".join(time[1:] for time in key)
            out[f"c{suffix}"] = correlation(table)
            out[f"mp{suffix}"] = table.entries[(-1, +1)]
        for pos, time in enumerate(key):
            if any((key, time) in pair for pair in NSIT_MARGINALS.values()):
                out[(key, time)] = sum(p for k, p in table.entries.items() if k[pos] == +1)
    return out


def evaluate(tables: Mapping[Tuple[str, ...], JointProbTable]) -> Evaluation:
    """LGI, WLGI and the three NSIT measures of a set of tables.

    Each NSIT measure compares two :data:`NSIT_MARGINALS`: ``nsit12`` the t2
    marginals of runs 1 and 3; ``nsit23`` and ``nsit13`` the free-run t3
    marginal with those of runs 1 and 2.  Table entries may be scalars or
    NumPy arrays.  A missing table raises ``ValueError`` naming the run
    that measures it.
    """
    for key in (("t2", "t3"), ("t1", "t3"), ("t1", "t2"), ("t3",)):
        if key not in tables:
            # The first run whose times start with the key; (t1, t2) is run 3's marginal.
            run = next(run for run, times in RUN_TIMES.items() if times[: len(key)] == key)
            raise ValueError(f"missing table P({','.join(key)}) from run {run}")
    v = ingredients(tables)
    return Evaluation(
        *combine(v["c12"], v["c23"], v["c13"], v["mp12"], v["mp23"], v["mp13"]),
        **{name: abs(v[a] - v[b]) for name, (a, b) in NSIT_MARGINALS.items()},
        correlations={"t1t2": v["c12"], "t2t3": v["c23"], "t1t3": v["c13"]},
        wlgi_terms={"t1t3": v["mp13"], "t1t2": v["mp12"], "t2t3": v["mp23"]},
    )
