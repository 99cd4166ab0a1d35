"""Round-3 regression tests: ADVICE fixes."""

import datetime

import numpy as np
import pyarrow as pa


# -- ADVICE: date32/time32 hash regression ------------------------------------

def test_hash_keys_date32_time32():
    from driftray.checks import hash_keys

    t = pa.table({
        "d": pa.array([datetime.date(2020, 1, 1), None,
                       datetime.date(2021, 6, 15)], type=pa.date32()),
        "t32": pa.array([3600, None, 7200], type=pa.time32("s")),
        "d64": pa.array([datetime.date(2020, 1, 1), datetime.date(2020, 1, 2),
                         None], type=pa.date64()),
    })
    h = hash_keys(t, ["d", "t32", "d64"])
    assert h.dtype == np.uint64 and len(h) == 3
    # null-stability: the non-null rows hash identically without the nulls
    t2 = pa.table({c: t[c].take(pa.array([0])) for c in t.column_names})
    h2 = hash_keys(t2, ["d", "t32", "d64"])
    assert h2[0] == h[0]


# -- per-table baseline namespacing -------------------------------------------

def test_two_table_baseline_promote(tmp_path):
    """Two specs sharing one baseline DIRECTORY promote independently."""
    import os

    import pyarrow.parquet as pq

    from driftray.pipeline import baseline_file, promote_baseline, run_validation
    from driftray.spec import DOCUMENTS_SPEC, EVENTS_SPEC

    d = str(tmp_path)
    for name in ("documents", "events"):
        t = pq.read_table(f"/root/testdata/sf0.001/{name}.parquet")
        t = t.append_column("window_id", pa.array(
            (np.arange(t.num_rows) * 2 // t.num_rows).astype(np.int64)))
        pq.write_table(t, os.path.join(d, f"{name}.parquet"))
    run_validation(os.path.join(d, "documents.parquet"),
                   os.path.join(d, "out_docs"), DOCUMENTS_SPEC)
    run_validation(os.path.join(d, "events.parquet"),
                   os.path.join(d, "out_evts"), EVENTS_SPEC)
    bdir = os.path.join(d, "baselines")
    promote_baseline(os.path.join(d, "out_docs"), 0, bdir,
                     table=DOCUMENTS_SPEC.name)
    promote_baseline(os.path.join(d, "out_evts"), 0, bdir,
                     table=EVENTS_SPEC.name)
    assert os.path.exists(baseline_file(bdir, DOCUMENTS_SPEC.name))
    assert os.path.exists(baseline_file(bdir, EVENTS_SPEC.name))
    # both tables revalidate against THEIR baseline from the shared dir
    r1 = run_validation(os.path.join(d, "documents.parquet"),
                        os.path.join(d, "out_docs2"), DOCUMENTS_SPEC,
                        baseline_path=bdir)
    r2 = run_validation(os.path.join(d, "events.parquet"),
                        os.path.join(d, "out_evts2"), EVENTS_SPEC,
                        baseline_path=bdir)
    assert len(r1) == 2 and len(r2) == 2
    assert all(isinstance(w.drift_rows, list) for w in r1 + r2)
