"""Reading of the small count tables that the CLI accepts as CSV files.

Each table names its columns in a header row.  A short row or a count that
is not a number is an input error, raised as ``ValueError`` naming the row,
so the CLI reports it and exits 2 rather than failing on a ``None`` field.
"""

from __future__ import annotations

import csv
from typing import Dict, Iterator, Sequence, Tuple


def read_rows(path, columns: Sequence[str]) -> Iterator[Tuple[str, Dict[str, str]]]:
    """Yield ``("row N", row)`` for each data row of the CSV file at ``path``.

    ``N`` is the row's line in the file.  Raises ``ValueError`` if the
    header lacks one of ``columns``, or naming the row, if a row has no
    value for one of them.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(columns).issubset(reader.fieldnames):
            raise ValueError(f"counts CSV must have columns {sorted(columns)}")
        for row in reader:
            where = f"row {reader.line_num}"
            missing = [name for name in columns if row[name] is None]
            if missing:
                raise ValueError(f"{where}: missing {', '.join(missing)}")
            yield where, row


def number(where: str, row: Dict[str, str], name: str) -> float:
    """``row[name]`` as a float; ``ValueError`` naming the row if it is not a number."""
    try:
        return float(row[name])
    except ValueError:
        raise ValueError(f"{where}: {name} {row[name]!r} is not a number") from None
