"""driftray — a Ray-Data-native schema + constraint validation engine.

From-scratch rebuild of the capabilities of the Drift-ML reference
(koshishtiwari/Drift-ML, see SURVEY.md): declarative per-table schemas and
constraints (completeness, range, exact key uniqueness from sorted key-hash
runs, referential integrity, per-row sha256 content invariants), per-column
statistical profiles via mergeable sketches (Welford moments, t-digest
quantiles, fixed-edge histograms), and distribution-drift detection
(reference unusual-ratio detector, Kolmogorov-Smirnov, PSI, Jensen-Shannon)
between stored baselines and current windows.

The validation engine reads Parquet one way: ``run_validation`` plans on
the driver from Parquet footers, and its kernel pass, dimension key
hashing and uniqueness verify run as plain Ray tasks, one per planned
row group (``ops.zonemap.map_row_groups``), with no Ray Data execution.
The news scan and the sensor detector are ``ray.data.Dataset``
pipelines of ``map_batches`` over Arrow batches.  ``run_validation``,
the news scan and the sensor detector run no shuffle and no actor pool:
where they need a cross-block order (table uniqueness, a source's first
rows, the detector's stream order) the driver sorts or merges per-block
results.
No module in this package calls ``ray.init()`` — sessions are owned by
``perfbench/``, the tests, the CLI and the driver.
"""

__version__ = "0.1.0"
