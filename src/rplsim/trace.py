"""Line-delimited trace files: tab-separated (t, node, kind, details...).

The in-memory trace is a list of tuples of ints and short strings, appended
in execution order.  Writing then re-reading a trace reproduces the tuples
exactly (ints stay ints, and ``run_info``'s scenario name stays a string
whatever it spells), so metrics recomputed from a file match the live run.
"""

from __future__ import annotations


def write_trace(trace, path) -> None:
    # one "%s\t...%s\n" per record length: %s calls str, as a join would
    layouts: dict[int, str] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write = fh.write
        for rec in trace:
            layout = layouts.get(len(rec))
            if layout is None:
                layout = layouts[len(rec)] = "\t".join(["%s"] * len(rec)) + "\n"
            write(layout % rec)


def _parse_field(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def read_trace(path) -> list[tuple]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            fields = [_parse_field(tok) for tok in line.split("\t")]
            if fields[2:3] == ["run_info"]:  # its scenario name is text, "2024" included
                fields[3] = line.split("\t")[3]
            out.append(tuple(fields))
    return out
