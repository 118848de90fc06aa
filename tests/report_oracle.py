"""The tests' oracle for the report writers: ``json.dumps`` of a report
as a dict, with a table's rows read from its blocks as verdicts."""

import json


def report_verdicts(report) -> list:
    """(name, value) of each verdict, then of each table row, in print order."""
    verdicts = list(report.verdicts)
    if report.table:
        name, blocks = report.table
        verdicts += [
            (f"{name}({label})", row) for labels, rows in blocks() for label, row in zip(labels, rows)
        ]
    return verdicts


def oracle_json(report) -> str:
    return json.dumps(
        {
            "command": report.command,
            "ring": report.ring,
            "generators": list(report.generators),
            "max_degree": report.max_degree,
            "verdicts": [{"name": n, "value": v} for n, v in report_verdicts(report)],
            "witnesses": list(report.witnesses),
            "exit_code": report.exit_code,
        },
        indent=2,
    )
