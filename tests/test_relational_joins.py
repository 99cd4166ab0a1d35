"""``union_by_name`` against a pandas oracle."""


def test_union_by_name_pads_and_rejects_conflicts(ray_session):
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from driftray.ops.relational import union_by_name

    a = rd.from_pandas(pd.DataFrame({"x": [1, 2], "y": ["a", "b"]}))
    b = rd.from_pandas(pd.DataFrame({"x": [3], "z": [1.5]}))
    out = union_by_name([a, b]).to_pandas().sort_values("x")
    assert list(out.columns) == ["x", "y", "z"]
    assert out["y"].isna().tolist() == [False, False, True]
    assert out["z"].isna().tolist() == [True, True, False]

    c = rd.from_pandas(pd.DataFrame({"x": ["oops"]}))   # conflicting type
    with pytest.raises(TypeError, match="conflicting"):
        union_by_name([a, c])
