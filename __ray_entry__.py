"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the ``driftray`` library) calls ``ray.init()`` /
``ray.shutdown()``.

* ``entry()`` — flagship validation pipeline over /root/testdata/sf0.001:
  full constraint + profile + drift pass on the ``documents`` and
  ``events`` tables, returning the verdict table.
* ``queries()`` — the 37 catalogue queries: SURVEY.md §2 operators,
  constraint checks, drift scoring and footer planning, each built only
  on the validation engine's own modules.
* ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible query
  (column names match the Ray outputs exactly).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (driver checks rows>=0)."""
    import pandas as pd

    from driftray.pipelines.queries import nq_validate_documents, nq_validate_events

    sf_dir = "/root/testdata/sf0.001"
    docs = nq_validate_documents(sf_dir).assign(table="documents")
    evts = nq_validate_events(sf_dir).assign(table="events")
    out = pd.concat([docs, evts], ignore_index=True)
    return out[["table", "n_rows", "n_violations", "quality_score", "passed"]]


def queries() -> dict[str, Callable[[str], Any]]:
    from driftray.pipelines.queries import ALL_QUERIES

    return dict(ALL_QUERIES)


def oracle_sql() -> dict[str, str]:
    from driftray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
