"""Reference formulation of :func:`repro.serve.registry.fingerprint_log`.

One header line, then one line per record built from the record's own
fields.  The registry formats a lazy log's rows from its columns
instead; the oracle tests hold both to these bytes.
"""

from __future__ import annotations

import hashlib

from repro.core.records import FailureLog


def fingerprint_oracle(log: FailureLog) -> str:
    """Hex SHA-256 over the header and every record's row."""
    digest = hashlib.sha256()
    digest.update(
        f"{log.machine}|{log.window_start.isoformat()}"
        f"|{log.window_end.isoformat()}|{len(log.records)}\n".encode()
    )
    for record in log.records:
        row = "|".join(
            (
                str(record.record_id),
                record.timestamp.isoformat(),
                str(record.node_id),
                record.category,
                repr(record.ttr_hours),
                str(record.gpus_involved),
                str(record.root_locus),
            )
        )
        digest.update(f"{row}\n".encode())
    return digest.hexdigest()
