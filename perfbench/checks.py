"""Output checks of one CLI batch, run outside the timed region."""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from discoccg import biclosed as bc
from discoccg.diagram import Swap, diagram_from_json, diagram_to_json, well_formed
from discoccg.functor import lower
from discoccg.ingest import ingest_tree, read_json
from discoccg.semantics import DimAssignment, semantically_equal

# The oracle runs only on diagrams whose largest intermediate tensor stays
# within this many entries (2**20 float64 entries is 8 MiB).
ORACLE_CAP = 1 << 20
ORACLE_DIMS = DimAssignment({}, 2)
ORACLE_SEED = 7

EMITTED = (".biclosed", ".diagram.json", ".tikz", ".svg")
_SUMMARY = re.compile(r"total (\d+) converted (\d+) failed (\d+)")


def predicted_frontier(d, dims) -> int:
    """Entries of ``evaluate``'s largest intermediate tensor on ``d``.

    ``evaluate`` contracts layer by layer, so after each layer its frontier
    holds one leg per wire of the current boundary: the largest frontier is
    the largest product of wire dimensions over ``d.boundaries()``.
    """
    return max(math.prod(dims.of(w) for w in b) for b in d.boundaries())


def sentence_digest(files: list[bytes], stats_row: str | None) -> str:
    """Digest of what the CLI emitted for one sentence, independent of its id."""
    h = hashlib.sha256()
    for payload in files:
        h.update(len(payload).to_bytes(8, "little"))
        h.update(payload)
    h.update((stats_row or "").encode())
    return h.hexdigest()


def read_sentence(out_dir: Path, ident: str, stats: dict[str, str]):
    """The emitted files of one sentence, or None for each one missing."""
    files = []
    for ext in EMITTED:
        path = out_dir / f"{ident}{ext}"
        files.append(path.read_bytes() if path.exists() else None)
    return files, stats.get(ident)


def read_stats(out_dir: Path) -> dict[str, str]:
    """``stats.tsv`` rows by id, each without its id column."""
    path = out_dir / "stats.tsv"
    if not path.exists():
        return {}
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return dict(row.split("\t", 1) for row in rows)


@dataclass
class CheckReport:
    failed: int = 0
    out_layers: int = 0
    oracle_verified: int = 0
    unverified: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def check_batch(entries, expected: dict[str, bool], out_dir: Path, log: str,
                digests: dict[str, str]) -> CheckReport:
    """Compare one batch's outputs with what each sentence should produce.

    ``entries`` are ``(id, key, tree)`` as generated; ``expected`` maps each
    id to True (converts) or False (one FAIL line).  Sentences that share a
    key emit identical bytes (their digests must match the recorded one), so
    the round-trip and oracle checks run once per key.
    """
    report = CheckReport()
    failed_ids = {m.group(1) for m in re.finditer(r"^FAIL (\S+?): ", log, re.M)}
    stats = read_stats(out_dir)
    checked: dict[str, str | None] = {}   # key -> problem of its first sentence

    for ident, key, tree in entries:
        problem = None
        files, row = read_sentence(out_dir, ident, stats)
        if not expected[ident]:
            if ident not in failed_ids:
                problem = "expected a FAIL line"
            elif any(f is not None for f in files) or row is not None:
                problem = "failed sentence emitted outputs"
        elif ident in failed_ids:
            problem = "unexpected FAIL line"
        elif None in files or row is None:
            problem = "missing emitted file or stats row"
        elif sentence_digest(files, row) != digests.get(key):
            problem = f"digest differs from the recorded one for {key}"
        else:
            text = files[1].decode()
            report.out_layers += len(json.loads(text)["layers"])
            if key not in checked:
                checked[key] = _check_diagram(key, tree, text, report)
            problem = checked[key]
        if problem is not None:
            report.failed += 1
            report.problems.append(f"{ident}: {problem}")

    m = _SUMMARY.search(log)
    want = (len(entries), sum(expected.values()), len(entries) - sum(expected.values()))
    if m is None or tuple(map(int, m.groups())) != want:
        report.problems.append(f"summary line {m.group(0) if m else None!r}, expected {want}")
    return report


def _check_diagram(key: str, tree: dict, text: str, report: CheckReport) -> str | None:
    """Round-trip, planarity and oracle checks of one emitted diagram."""
    emitted = diagram_from_json(text)
    problems = well_formed(emitted)
    if problems:
        return "emitted diagram is not well-formed: " + "; ".join(problems)
    if diagram_to_json(emitted) + "\n" != text:
        return "diagram JSON does not round-trip"
    if emitted.count(Swap):
        return f"{emitted.count(Swap)} swaps remain after --planarize"
    raw = lower(bc.lower_derivation(ingest_tree(read_json(json.dumps(tree)))))
    frontier = max(predicted_frontier(raw, ORACLE_DIMS), predicted_frontier(emitted, ORACLE_DIMS))
    if frontier > ORACLE_CAP:
        report.unverified[key] = (
            f"predicted frontier 2^{math.log2(frontier):.0f} entries > cap 2^{ORACLE_CAP.bit_length() - 1}")
        return None
    if not semantically_equal(raw, emitted, ORACLE_DIMS, [ORACLE_SEED]):
        return "oracle: emitted diagram differs from the functor's raw diagram"
    report.oracle_verified += 1
    return None
