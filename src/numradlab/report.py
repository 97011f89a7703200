"""Suite report aggregation and canonical serialization.

The canonical JSON document is deterministic (sorted keys, shortest
round-trip float repr) and deliberately excludes wall time so that two runs
with identical flags produce byte-identical report files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields

from . import __version__

CSV_COLUMNS = (
    "id",
    "trials",
    "holds",
    "violated",
    "inconclusive",
    "not_applicable",
    "min_slack",
    "median_slack",
    "seed",
)


@dataclass
class IneqRecord:
    """Aggregated outcome of one member's trials."""

    ineq: str
    trials: int
    holds: int
    violated: int
    inconclusive: int
    not_applicable: int
    min_slack: float | None
    median_slack: float | None
    min_slack_index: int | None
    min_slack_params: dict
    notes: list

    def to_dict(self):
        return dict(vars(self))  # shallow: json.dumps only reads it

    @classmethod
    def from_dict(cls, d):
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class SuiteReport:
    """Certification results for a suite run; round-trips through JSON."""

    version: str
    config: dict
    records: list
    wall_time: float | None = field(default=None, compare=False)

    @classmethod
    def build(cls, config, records, wall_time=None):
        return cls(version=__version__, config=dict(config), records=list(records), wall_time=wall_time)

    @property
    def total_violated(self):
        return sum(r.violated for r in self.records)

    @property
    def total_inconclusive(self):
        return sum(r.inconclusive for r in self.records)

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text) -> "SuiteReport":
        doc = json.loads(text)
        return cls(
            version=doc["version"],
            config=doc["config"],
            records=[IneqRecord.from_dict(d) for d in doc["records"]],
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        seed = self.config.get("seed")
        for r in self.records:
            writer.writerow(
                [
                    r.ineq,
                    r.trials,
                    r.holds,
                    r.violated,
                    r.inconclusive,
                    r.not_applicable,
                    "" if r.min_slack is None else repr(r.min_slack),
                    "" if r.median_slack is None else repr(r.median_slack),
                    seed,
                ]
            )
        return out.getvalue()

    def summary_lines(self):
        lines = []
        for r in self.records:
            lines.append(
                f"{r.ineq:26s} trials={r.trials:5d} holds={r.holds:5d} "
                f"violated={r.violated:3d} inconclusive={r.inconclusive:3d} "
                f"min_slack={r.min_slack if r.min_slack is not None else 'n/a'}"
            )
        return lines
