"""The blocker measurement protocol, defined once.

Four blocker schedules ("runs") measure the test.  A blocker absorbs one
arm before the first coupler (``block_t1``) or inside the loop
(``block_t2``); seeing the photon later certifies the other arm, so a
blocked arm records the opposite outcome for that time.  t3 is read from
the detector that fired.  Every model of the experiment reduces to one
(+1, -1) detector cell per sub-run: :func:`joint_tables` turns the cells
into per-run normalized tables and :func:`evaluate` forms LGI (bound 1),
WLGI (bound 0) and the three NSIT measures (each 0) from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "ARM_LABELS",
    "BOUNDS",
    "BlockerConfig",
    "Evaluation",
    "JointProbTable",
    "RUN_CONFIGS",
    "RUN_SUB_BY_BLOCKERS",
    "RUN_TIMES",
    "UndefinedProbabilityError",
    "combine",
    "correlation",
    "evaluate",
    "joint_tables",
    "outcome_prefix",
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


def evaluate(tables: Mapping[Tuple[str, ...], JointProbTable]) -> Evaluation:
    """LGI, WLGI and the three NSIT measures of a set of tables.

    ``nsit12`` compares the t2 marginals of runs 1 and 3; ``nsit23`` and
    ``nsit13`` compare the free-run t3 marginal with those of runs 1 and
    2.  Table entries may be scalars or NumPy arrays.  A missing table
    raises ``ValueError`` naming the run that measures it.
    """
    for key in (("t2", "t3"), ("t1", "t3"), ("t1", "t2"), ("t3",)):
        if key not in tables:
            # The first run whose times start with the key; (t1, t2) is run 3's marginal.
            run = next(run for run, times in RUN_TIMES.items() if times[: len(key)] == key)
            raise ValueError(f"missing table P({','.join(key)}) from run {run}")
    t12, t23, t13 = tables[("t1", "t2")], tables[("t2", "t3")], tables[("t1", "t3")]
    p12, p23, p13 = t12.entries, t23.entries, t13.entries
    p3 = tables[("t3",)].entries
    c12, c23, c13 = correlation(t12), correlation(t23), correlation(t13)
    terms = {"t1t3": p13[(-1, +1)], "t1t2": p12[(-1, +1)], "t2t3": p23[(-1, +1)]}
    lgi, wlgi = combine(c12, c23, c13, terms["t1t2"], terms["t2t3"], terms["t1t3"])
    return Evaluation(
        lgi=lgi,
        wlgi=wlgi,
        # Each t2 marginal is summed before the difference; outputs pin this rounding.
        nsit12=abs((p23[(+1, +1)] + p23[(+1, -1)]) - (p12[(+1, +1)] + p12[(-1, +1)])),
        nsit23=abs(p3[(+1,)] - p23[(+1, +1)] - p23[(-1, +1)]),
        nsit13=abs(p3[(+1,)] - p13[(+1, +1)] - p13[(-1, +1)]),
        correlations={"t1t2": c12, "t2t3": c23, "t1t3": c13},
        wlgi_terms=terms,
    )
