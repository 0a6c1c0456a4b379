"""Read back the CSVs that ``montecarlo.emit_csv`` writes, for the tests."""

import csv
import dataclasses


def read_csv_records(path, record_type) -> list:
    """Parse a CSV produced by ``emit_csv`` back into records."""
    casts = {f.name: f.type for f in dataclasses.fields(record_type)}
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            kwargs = {}
            for name, raw in row.items():
                kind = casts[name]
                if kind in (int, "int"):
                    kwargs[name] = int(raw)
                elif kind in (float, "float"):
                    kwargs[name] = float(raw)
                else:
                    kwargs[name] = raw
            out.append(record_type(**kwargs))
    return out
