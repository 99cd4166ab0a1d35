"""Declarative table specs: schema + constraints + profile/drift config.

This is the engine's replacement for the reference's aspirational Schema
Registry (``/root/reference/DESIGN.md:317-322``) and its hardcoded
Great-Expectations-style expectations (``DESIGN.md:331-392``): one
declarative object compiled into the Ray Data check pipeline.  Adding a
constraint = adding a declaration; the kernels in ``checks.py`` interpret it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ColumnSpec:
    """Per-column constraints.

    required   — null (and ''/NaN for str/float) counts as a completeness
                 violation (DESIGN.md:344-357 semantics).
    min/max    — range expectation bounds, inclusive (DESIGN.md:366-380).
    when       — optional (column, value) row-condition gating the range /
                 accepted-values / format checks, mirroring the per-type
                 conditions at DESIGN.md:369-379 (e.g. traffic rows only).
                 A second ColumnSpec entry for an already-declared column
                 with ``when`` set expresses a cross-column conditional rule.
    accepted_values — non-null values must be in this set (the
                 expect_column_values_to_be_in_set expectation implied by
                 the per-type discriminators at DESIGN.md:366-380).
    pattern    — RE2 regex the FULL value must match (anchored by the
                 engine); nulls are completeness's business.
    """

    name: str
    required: bool = False
    min_value: float | None = None
    max_value: float | None = None
    when: tuple[str, str] | None = None
    accepted_values: tuple[str, ...] | None = None
    pattern: str | None = None


@dataclass(frozen=True)
class ForeignKey:
    """Referential constraint: ``columns`` of this table must appear in
    ``dim_columns`` of ``dim_table`` (J2, BASELINE.json north_rule)."""

    columns: tuple[str, ...]
    dim_table: str
    dim_columns: tuple[str, ...]


@dataclass(frozen=True)
class HashInvariant:
    """Per-row invariant: hex sha256(``content_column``) must equal
    ``hash_column`` (M11, BASELINE.json input_hint)."""

    content_column: str
    hash_column: str


@dataclass(frozen=True)
class DriftSpec:
    """Drift thresholds vs the stored baseline (DESIGN.md:526-585)."""

    ks_p_threshold: float = 0.05     # DESIGN.md:534 — drift iff p < 0.05
    ks_stat_threshold: float = 0.05  # effect-size floor (sketch-approx error margin)
    psi_threshold: float = 0.2       # standard PSI rule of thumb
    js_threshold: float = 0.1
    categorical_psi_threshold: float = 0.2   # group-share (e.g. lang mix) drift
    min_group_count: int = 500       # per-group gates need this many rows on both sides


@dataclass
class TableSpec:
    name: str
    columns: list[ColumnSpec] = field(default_factory=list)
    unique_key: tuple[str, ...] | None = None
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    hash_invariant: HashInvariant | None = None
    profile_columns: tuple[str, ...] = ()       # numeric columns to sketch
    group_column: str | None = None             # per-group profiles (e.g. lang)
    order_column: str | None = None             # deterministic row order / tiebreak
    drift: DriftSpec = field(default_factory=DriftSpec)
    # extension point (SURVEY.md §2.10): (kind, params) pairs resolved via
    # checks.CHECK_REGISTRY — adding a check = one registered class, no
    # engine edits
    custom_checks: tuple = ()

    def column(self, name: str) -> ColumnSpec | None:
        for c in self.columns:
            if c.name == name:
                return c
        return None

    @property
    def required_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.required]

    @property
    def range_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.min_value is not None or c.max_value is not None]

    @property
    def accepted_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.accepted_values is not None]

    @property
    def pattern_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.pattern is not None]


# --- specs for the driver-provided test tables (TESTDATA.md) ----------------

DOCUMENTS_SPEC = TableSpec(
    name="documents",
    columns=[
        ColumnSpec("doc_id", required=True),
        ColumnSpec("text", required=True),
        ColumnSpec("lang", required=True),
        ColumnSpec("n_chars", required=True, min_value=0, max_value=10_000_000),
    ],
    unique_key=("doc_id",),
    profile_columns=("n_chars",),
    group_column="lang",
    order_column="doc_id",
)

EVENTS_SPEC = TableSpec(
    name="events",
    columns=[
        ColumnSpec("event_id", required=True),
        ColumnSpec("ts", required=True),
        ColumnSpec("user_id", required=True),
        ColumnSpec("event_type", required=True),
        ColumnSpec("value", min_value=-1e12, max_value=1e12),
    ],
    unique_key=("event_id",),
    profile_columns=("value",),
    group_column="event_type",
    order_column="event_id",
)


def repo_files_spec(max_content_len: int = 1 << 20) -> TableSpec:
    """Spec for the flagship ``repo_files`` table (BASELINE.json input_hint:
    repo, path, commit, lang, content [+ content_sha256])."""
    return TableSpec(
        name="repo_files",
        columns=[
            ColumnSpec("repo", required=True,
                       pattern=r"[A-Za-z0-9_.-]+/[A-Za-z0-9_.-]+"),
            ColumnSpec("path", required=True, pattern=r"[\w./-]+"),
            ColumnSpec("commit", required=True, pattern=r"[0-9a-f]{40}"),
            ColumnSpec("lang", required=True,
                       accepted_values=("py", "js", "go", "rs", "java",
                                        "md", "yaml")),
            ColumnSpec("content", required=True),
            ColumnSpec("content_len", min_value=0, max_value=max_content_len),
            # cross-column conditional: python files must carry a .py path
            ColumnSpec("path", pattern=r".*\.py", when=("lang", "py")),
        ],
        unique_key=("repo", "path", "commit"),
        foreign_keys=[
            ForeignKey(("repo",), "repos", ("repo",)),
            ForeignKey(("repo", "commit"), "commits", ("repo", "commit")),
        ],
        hash_invariant=HashInvariant("content", "content_sha256"),
        profile_columns=("content_len",),
        group_column="lang",
        order_column="path",
    )


def spec_from_dict(d: dict) -> TableSpec:
    """Build a TableSpec from a plain config dict (the engine's version of
    the reference's config-driven rules, ``DESIGN.md:680-721`` /
    SURVEY.md §2.10) — YAML-loadable, no code change to add a constraint."""
    cols = [
        ColumnSpec(
            name=c["name"],
            required=bool(c.get("required", False)),
            min_value=c.get("min"),
            max_value=c.get("max"),
            when=tuple(c["when"]) if c.get("when") else None,
            accepted_values=tuple(c["accepted"]) if c.get("accepted") else None,
            pattern=c.get("pattern"),
        )
        for c in d.get("columns", [])
    ]
    fks = [ForeignKey(tuple(f["columns"]), f["dim_table"], tuple(f["dim_columns"]))
           for f in d.get("foreign_keys", [])]
    hi = d.get("hash_invariant")
    drift_cfg = d.get("drift", {})
    return TableSpec(
        name=d["name"],
        columns=cols,
        unique_key=tuple(d["unique_key"]) if d.get("unique_key") else None,
        foreign_keys=fks,
        hash_invariant=HashInvariant(hi["content_column"], hi["hash_column"]) if hi else None,
        profile_columns=tuple(d.get("profile_columns", ())),
        group_column=d.get("group_column"),
        order_column=d.get("order_column"),
        drift=DriftSpec(**drift_cfg) if drift_cfg else DriftSpec(),
        custom_checks=tuple((c["kind"], dict(c.get("params", {})))
                            for c in d.get("custom_checks", [])),
    )
