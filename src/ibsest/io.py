"""Line-oriented text format for observation files and result reports.

Observation files declare the frame first, then one block per
observation:

    frame: H1, H2, H3
    obs: 1
      {H1} 0.30, 0.40
      {H1, H2, H3} 0.10, 0.20

A single mass number means a degenerate (crisp) mass. Blank lines and
`#` comments are ignored. A parse error names the line at fault; one that
shows only once a block is whole names the block's header line.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Iterator

from . import __version__
from .belief import (
    FocalElement,
    Frame,
    IntervalBeliefStructure,
    MassEntry,
    ObservationSet,
)
from .estimator import EstimationResult
from .intervalprob import IntervalProbabilities, ignorance

_ENTRY_RE = re.compile(r"^\{([^}]*)\}\s+(.+)$")


class ObservationParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_number(text: str, what: str, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ObservationParseError(line_no, f"bad {what} {text!r}") from None


def _parse_mass(text: str, line_no: int) -> tuple[float, float]:
    values = [_parse_number(p.strip(), "mass", line_no) for p in text.split(",")]
    if len(values) == 1:
        return values[0], values[0]
    if len(values) == 2:
        return values[0], values[1]
    raise ObservationParseError(line_no, f"mass needs 1 or 2 numbers, got {text!r}")


def _read_blocks(text: str, opener: str, outside) -> tuple[Frame, Iterator[tuple]]:
    """The frame, which the first content line declares, and the blocks after it.

    A block is (header line number, header text after ``opener``, [(line
    number, line), ...]), one per line that starts with ``opener``. Comments
    and blanks are dropped. A content line before the first block raises
    ``outside(line)``. Each block is yielded before the lines after it are
    read, so its errors come before theirs.
    """
    lines = ((line_no, raw.split("#", 1)[0].strip())
             for line_no, raw in enumerate(text.splitlines(), start=1))
    lines = ((line_no, line) for line_no, line in lines if line)
    line_no, line = next(lines, (1, None))
    if line is None:
        raise ObservationParseError(line_no, "no frame declaration")
    if not line.startswith("frame:"):
        raise ObservationParseError(line_no, "frame must be declared first")
    names = [n.strip() for n in line[len("frame:"):].split(",")]
    try:
        frame = Frame(tuple(n for n in names if n))
    except ValueError as exc:
        raise ObservationParseError(line_no, str(exc)) from None

    def blocks() -> Iterator[tuple]:
        block = None
        for line_no, line in lines:
            if line.startswith("frame:"):
                raise ObservationParseError(line_no, "frame declared twice")
            if line.startswith(opener):
                if block is not None:
                    yield block
                block = (line_no, line[len(opener):].strip(), [])
            elif block is None:
                raise ObservationParseError(line_no, outside(line))
            else:
                block[2].append((line_no, line))
        if block is not None:
            yield block

    return frame, blocks()


def _mass_entry(frame: Frame, line_no: int, line: str) -> MassEntry:
    """The mass entry of a ``{members} mass`` line."""
    match = _ENTRY_RE.match(line)
    if match is None:
        raise ObservationParseError(line_no, f"unrecognized line {line!r}")
    names = [n.strip() for n in match.group(1).split(",") if n.strip()]
    if not names:
        raise ObservationParseError(line_no, "empty focal element")
    lower, upper = _parse_mass(match.group(2), line_no)
    try:
        return MassEntry(FocalElement.of(frame, names), lower, upper)
    except (KeyError, ValueError) as exc:  # the message, not a KeyError's quoted str()
        raise ObservationParseError(line_no, exc.args[0])


def parse_observation_text(text: str) -> ObservationSet:
    frame, blocks = _read_blocks(text, "obs:", lambda line: (
        "mass entry outside an observation" if _ENTRY_RE.match(line)
        else f"unrecognized line {line!r}"))
    observations: list[IntervalBeliefStructure] = []
    for line_no, label, lines in blocks:
        if not label:
            raise ObservationParseError(line_no, "observation label missing")
        entries = tuple(_mass_entry(frame, n, line) for n, line in lines)
        if not entries:
            raise ObservationParseError(line_no, f"observation {label!r} has no entries")
        try:
            observations.append(IntervalBeliefStructure(frame, entries, label=label))
        except ValueError as exc:
            raise ObservationParseError(line_no, f"observation {label!r}: {exc}")
    if not observations:
        raise ObservationParseError(1, "no observations")
    return ObservationSet(frame, tuple(observations))


def _read_text(path) -> str:
    """The file's UTF-8 text; a byte that does not decode is a located parse error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; it sits on the line after their last break
        line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ObservationParseError(
            line_no, f"not UTF-8 text: byte 0x{data[exc.start]:02x} does not decode"
        ) from None


def parse_observation_file(path) -> ObservationSet:
    return parse_observation_text(_read_text(path))


def _format_mass(lower: float, upper: float) -> str:
    # a float's repr is the shortest text that parses back to it exactly
    if lower == upper:
        return repr(float(lower))
    return f"{float(lower)!r}, {float(upper)!r}"


def _writable(name: str, what: str, forbidden: str) -> str:
    """``name`` if the text format reads it back unchanged, else ValueError."""
    if name != name.strip() or name.splitlines() != [name] or any(
            c in name for c in forbidden):
        raise ValueError(f"{what} {name!r} cannot be written to an observation file")
    return name


def serialize_observation_set(observations: ObservationSet) -> str:
    """The text :func:`parse_observation_text` reads back as an equal set.

    Raises ValueError on a label or hypothesis name the format cannot
    carry: empty, padded with whitespace, spanning lines, holding ``#``
    or, for a hypothesis, ``,``, ``{`` or ``}``.
    """
    names = [_writable(h, "hypothesis", "#,{}") for h in observations.frame.hypotheses]
    lines = ["frame: " + ", ".join(names), ""]
    for obs in observations.observations:
        lines.append(f"obs: {_writable(obs.label, 'label', '#')}")
        for e in obs.entries:
            lines.append(
                f"  {{{', '.join(e.focal.members)}}} {_format_mass(e.lower, e.upper)}"
            )
        lines.append("")
    return "\n".join(lines)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# Expected-result files (reference tables): same frame header, then
#   row: alpha=2
#     H1 0.8397, 0.9433
#     ...
#     I1 0.1036


@dataclass(frozen=True)
class ExpectedRow:
    alpha: float
    theta: IntervalProbabilities
    i1: float | None


def parse_expected_text(text: str) -> list[ExpectedRow]:
    frame, blocks = _read_blocks(text, "row:", lambda line: "value outside a row")
    rows: list[ExpectedRow] = []
    for line_no, spec, lines in blocks:
        if not spec.startswith("alpha="):
            raise ObservationParseError(line_no, f"bad row header {spec!r}")
        alpha = _parse_number(spec[len("alpha="):], "alpha", line_no)
        if any(row.alpha == alpha for row in rows):
            raise ObservationParseError(line_no, f"row alpha={alpha} given twice")
        values = {}  # each hypothesis's (lower, upper), and the I1 value
        for n, line in lines:
            name, _, rest = line.partition(" ")
            if name in values:
                raise ObservationParseError(n, f"row alpha={alpha}: {name} given twice")
            if name == "I1":
                values[name] = _parse_number(rest, "I1 value", n)
            elif name in frame.hypotheses:
                values[name] = _parse_mass(rest, n)
            else:
                raise ObservationParseError(n, f"unknown hypothesis {name!r}")
        missing = [h for h in frame.hypotheses if h not in values]
        if missing:
            raise ObservationParseError(line_no, f"row alpha={alpha} missing {missing}")
        lowers, uppers = zip(*(values[h] for h in frame.hypotheses))
        try:
            theta = IntervalProbabilities(frame, lowers, uppers)
        except ValueError as exc:
            raise ObservationParseError(line_no, f"row alpha={alpha}: {exc}") from None
        rows.append(ExpectedRow(alpha, theta, values.get("I1")))
    return rows


def parse_expected_file(path) -> list[ExpectedRow]:
    return parse_expected_text(_read_text(path))


# ---------------------------------------------------------------------------
# Result reports


def render_report(
    results: list[EstimationResult], input_digest: str, seed: int
) -> str:
    """Structured key/value + row-record report; byte-stable given inputs."""
    lines = [
        f"tool_version: {__version__}",
        f"seed: {seed}",
        f"input_digest: {input_digest}",
        f"rows: {len(results)}",
    ]
    for res in results:
        frame = res.theta.frame
        parts = [f"row: alpha={res.alpha:.10g}"]
        for i, h in enumerate(frame.hypotheses):
            parts.append(
                f"{h}=[{res.theta.lowers[i]:.10g},{res.theta.uppers[i]:.10g}]"
            )
        parts.append(f"I1={ignorance(res.theta, 1.0):.10g}")
        parts.append(f"objective={res.objective:.10g}")
        parts.append(
            f"L=[{res.joint_likelihood.lo:.10g},{res.joint_likelihood.hi:.10g}]"
        )
        parts.append(f"sweeps={sum(r.sweeps for r in res.restarts)}")
        parts.append(f"converged={'yes' if res.converged else 'no'}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def render_table(results: list[EstimationResult]) -> str:
    """Human-readable table, values rounded half-even to 4 decimals."""
    frame = results[0].theta.frame
    headers = ["alpha"] + [f"P({h})" for h in frame.hypotheses] + ["I1", "objective"]
    rows = []
    for res in results:
        cells = [f"{res.alpha:g}"]
        for i in range(frame.size):
            cells.append(f"[{res.theta.lowers[i]:.4f}, {res.theta.uppers[i]:.4f}]")
        cells.append(f"{ignorance(res.theta, 1.0):.4f}")
        cells.append(f"{res.objective:.4f}")
        rows.append(cells)
    widths = [max(len(headers[c]), *(len(r[c]) for r in rows)) for c in range(len(headers))]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)
