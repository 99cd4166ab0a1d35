"""driftray — a Ray-Data-native schema + constraint validation engine.

From-scratch rebuild of the capabilities of the Drift-ML reference
(koshishtiwari/Drift-ML, see SURVEY.md): declarative per-table schemas and
constraints (completeness, range, uniqueness, referential integrity, per-row
sha256 content invariants), per-column statistical profiles via mergeable
sketches (Welford moments, t-digest quantiles, HyperLogLog uniqueness),
and distribution-drift detection (reference unusual-ratio detector,
Kolmogorov-Smirnov, PSI, Jensen-Shannon) between stored baselines and
current windows.

Everything is expressed Ray-Data-first: ``ray.data.Dataset`` pipelines of
``map_batches`` over zero-copy Arrow batches.  Steps whose output is
metadata-sized skip Ray Data's executor: ``run_validation``'s only Ray
Data job is its kernel pass, and it plans on the driver from Parquet
footers and hashes dimension keys and verifies uniqueness candidates in
plain Ray tasks, one per row group.  ``run_validation``, the news scan
and the sensor detector run no shuffle and no actor pool: where they need
a cross-block order (table uniqueness, a source's first rows, the
detector's stream order) the driver sorts or merges per-block results.
No module in this package calls ``ray.init()`` — sessions are owned by
``perfbench/``, the tests, the CLI and the driver.
"""

__version__ = "0.1.0"
