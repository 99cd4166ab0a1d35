"""CLI: ``python -m driftray <command>`` — the ``ray job submit`` entry
point for the validation engine (north_rule: resumable runs via repeated
submission; each invocation skips windows already bearing ``_DONE``).

Commands:
  validate  --input PATH --out DIR [--spec CFG.json] [--baseline P] [--bloom]
  promote   --out DIR --window N --baseline PATH
  alerts    --out DIR
  schema    --input PATH [--out DIR] [--spec CFG.json]
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="driftray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="validate a windowed parquet table, resumably")
    v.add_argument("--input", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--spec", help="JSON TableSpec config (default: repo_files spec)")
    v.add_argument("--baseline", help="baseline sketch parquet for drift scoring")
    v.add_argument("--dims", help="JSON mapping dim_table -> parquet path")
    v.add_argument("--bloom", action="store_true", help="Bloom membership (scale path)")
    v.add_argument("--window-column", default="window_id")

    p = sub.add_parser("promote", help="adopt a window's profiles as the baseline")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--baseline", required=True)

    a = sub.add_parser("alerts", help="print the alert history of a run")
    a.add_argument("--out", required=True)

    s = sub.add_parser("schema", help="schema snapshot / drift vs a run dir "
                       "(metadata-only, no scan, no Ray session)")
    s.add_argument("--input", required=True)
    s.add_argument("--out", help="run dir holding the previous schema.json "
                   "(omit for a plain snapshot print)")
    s.add_argument("--spec", help="JSON TableSpec config for the preflight "
                   "findings (default: repo_files spec)")

    args = ap.parse_args(argv)

    if args.cmd == "validate":
        _init_ray()
        from driftray.pipeline import run_validation
        from driftray.spec import repo_files_spec, spec_from_dict

        spec = (spec_from_dict(json.load(open(args.spec)))
                if args.spec else repo_files_spec())
        dims = json.load(open(args.dims)) if args.dims else None
        results = run_validation(args.input, args.out, spec,
                                 window_column=args.window_column,
                                 dim_paths=dims, baseline_path=args.baseline,
                                 use_bloom=args.bloom)
        for r in results:
            print(json.dumps(r.verdict_row(), default=float))
        print(f"# {len(results)} window(s) validated (others already _DONE)")
    elif args.cmd == "promote":
        from driftray.pipeline import promote_baseline

        promote_baseline(args.out, args.window, args.baseline)
        print(f"baseline <- window {args.window} -> {args.baseline}")
    elif args.cmd == "alerts":
        from driftray.alerts import AlertManager

        t = AlertManager(history_path=f"{args.out}/alerts").history()
        for row in t.to_pylist():
            print(json.dumps(row))
    elif args.cmd == "schema":
        # footer-only: no Ray session needed at any input size
        from driftray.schema_drift import (record_and_diff, snapshot_schema,
                                           spec_findings)
        from driftray.spec import repo_files_spec, spec_from_dict

        spec = (spec_from_dict(json.load(open(args.spec)))
                if args.spec else repo_files_spec())
        if args.out:
            # inspection must not consume the drift evidence: the stored
            # baseline advances only when a validate run completes
            print(json.dumps(record_and_diff(args.out, args.input, spec)))
        else:
            schema = snapshot_schema(args.input)
            print(json.dumps({"schema": schema,
                              "spec_violations": spec_findings(schema, spec)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
