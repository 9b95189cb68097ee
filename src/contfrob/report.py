"""The one text format of every CSV report.

A report is `# key=value` metadata lines, one header line and one line
per row.  Floats, numpy floats included, print as repr(float(v)), the
shortest text that reads back to the same double; every other value
prints as str(v).
"""

import numpy as np

__all__ = ["cells", "csv_text"]

_FLOATS = (float, np.floating)


def _cell(v):
    # np.float64 is a float subclass whose repr is np.float64(...)
    if type(v) is float:
        return repr(v)
    return repr(float(v)) if isinstance(v, _FLOATS) else str(v)


def cells(values):
    """Values as one comma-separated line."""
    return ",".join([_cell(v) for v in values])


def csv_text(meta, header, rows):
    """Report text from (key, value) pairs, column names and row tuples."""
    lines = [f"# {k}={_cell(v)}" for k, v in meta]
    lines.append(cells(header))
    lines += [cells(row) for row in rows]
    return "\n".join(lines) + "\n"
