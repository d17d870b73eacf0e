# -*- coding: utf-8 -*-
"""Batch conversion tool: derivations in, diagrams and statistics out.

Sentences are processed independently; one malformed entry is recorded as a
failure and never aborts the batch.  Ids are unique per batch: a repeated id
fails, so no sentence overwrites another's files.  Identical input and
configuration give byte-identical outputs.

With an output directory, each sentence's files are written in input order
as it converts: in process at first, then, once those writes have taken
longer than ``HANDOFF_S``, by one writer forked from this process, which is
sent each sentence's files pickled and writes them while the next sentences
convert.  :func:`_write_files` creates every file, in either process, and
``stats.tsv``.  Every file is on disk when :func:`run` returns.

When both rewrites are requested, planarization runs before normalization
(planarization recognizes the raw crossed-composition images)."""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from . import biclosed as bc
from .ccgtypes import ATOM_NAME
from .diagram import DEFAULT_ATOM_MAP, Cap, Cup, Swap, diagram_to_json
from .functor import DEFAULT_CONTEXT, LoweringContext, lower
from .ingest import IngestError, ingest_tree, read_derivations
from .render import Layout, render_svg, render_tikz
from .rewrite import normalize as normalize_diagram
from .rewrite import planarize as planarize_diagram
from .rules import leaves, rule_histogram

EMITS = ("biclosed", "diagram", "tikz", "svg", "stats")

STATS_COLUMNS = ("id", "words", "rule-histogram", "cups", "caps",
                 "swaps_before", "swaps_after", "layers")

# Seconds of in-process file writes after which the rest of a batch's files
# go to a forked writer.  The two processes share the converter's pages until
# one of them writes a page, which the kernel then copies: forking at a
# batch's first file cost the small ``long-chains`` batches, which never reach
# the threshold, 10% (median 43.7 against 48.4 sentences/s in six pairs of
# 20 s runs on a 2-core x86 host).
HANDOFF_S = 0.03


@dataclass
class JobConfig:
    inputs: list[str]
    fmt: str = "json"
    out_dir: str | None = None
    emit: tuple[str, ...] = ("diagram",)
    normalize: bool = False
    planarize: bool = False
    check_semantics: str | None = None
    seed: int = 0
    strict: bool = False
    atom_map: dict[str, str] = field(default_factory=dict)

    def validate(self) -> list[str]:
        problems = []
        if not self.inputs:
            problems.append("no input files")
        if self.fmt not in ("json", "ccgbank"):
            problems.append(f"unknown input format {self.fmt!r}")
        if not self.emit:
            problems.append("at least one output format is required")
        for e in self.emit:
            if e not in EMITS:
                problems.append(f"unknown emit format {e!r}")
        return problems


@dataclass
class ExitReport:
    total: int = 0
    converted: int = 0
    failed: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    # the emitted files, kept for standard output only: with an output
    # directory each sentence's files are written once it converts
    outputs: dict[str, str | bytes] = field(default_factory=dict)
    stats_rows: list[tuple] = field(default_factory=list)

    def summary(self) -> str:
        return f"total {self.total} converted {self.converted} failed {self.failed}"


def semantically_equal(before, after, dims, seeds) -> bool:
    """The tensor oracle's check, imported on first use: numpy loads only
    when a run asks for ``--check-semantics``."""
    from . import semantics
    return semantics.semantically_equal(before, after, dims, seeds)


def _parse_dims(spec: str) -> DimAssignment:
    from .semantics import DimAssignment

    dims: dict[str, int] = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, _, value = (s.strip() for s in part.partition("="))
        if not key or not value:
            raise ValueError(f"bad dims entry {part!r}")
        if key != "*" and not ATOM_NAME.fullmatch(key):
            raise ValueError(f"bad dims entry {part!r}: a key must be * or an atom name, "
                             "[A-Za-z][A-Za-z0-9_]*")
        if key in dims:
            raise ValueError(f"bad dims entry {part!r}: {key!r} is already set")
        try:
            dims[key] = int(value)
        except ValueError:
            raise ValueError(f"bad dims entry {part!r}: a value must be an integer") from None
    return DimAssignment(dims, dims.pop("*", 2))


def run(cfg: JobConfig) -> ExitReport:
    report = ExitReport()
    problems = cfg.validate()
    if problems:
        raise ValueError("; ".join(problems))
    ctx = LoweringContext({**DEFAULT_ATOM_MAP, **cfg.atom_map}) if cfg.atom_map \
        else DEFAULT_CONTEXT
    dims = _parse_dims(cfg.check_semantics) if cfg.check_semantics is not None else None

    # every file is checked before the first sentence converts; its entries
    # are decoded one at a time as the loop below reaches them
    readers = [read_derivations(Path(path).read_bytes(), cfg.fmt, collect_errors=True)
               for path in cfg.inputs]
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        # a bad output directory fails before any sentence is converted
        out_dir.mkdir(parents=True, exist_ok=True)

    seen: set[str] = set()
    writer: _Writer | None = None
    # the hand-off threshold, and the seconds spent writing in process so far
    handoff, write_s = HANDOFF_S, 0.0
    try:
        for ident, raw in itertools.chain.from_iterable(readers):
            report.total += 1
            try:
                if ident in seen:
                    raise ValueError(f"duplicate id {ident!r}: ids name output files")
                seen.add(ident)
                if isinstance(raw, IngestError):
                    raise raw
                outputs, stats = _convert_one(ident, raw, cfg, ctx, dims)
            except Exception as exc:
                # a sentence fails alone, whatever the exception; a ValueError
                # (every input, rule and diagram error here is one) keeps its
                # bare message, and any other error is named by its class
                report.failed += 1
                message = str(exc) if isinstance(exc, ValueError) \
                    else f"{type(exc).__name__}: {exc}"
                report.failures.append((ident, message))
                continue
            report.converted += 1
            # outside the ``try``: a file that cannot be written ends the run
            if out_dir is None:
                report.outputs.update(outputs)
            else:
                if writer is None and write_s > handoff:
                    writer = _Writer.start()
                    if writer is None:   # this process cannot fork
                        handoff = math.inf
                if writer is not None:
                    writer.send(out_dir, outputs)
                else:
                    start = time.perf_counter()
                    _write_files(out_dir, outputs)
                    write_s += time.perf_counter() - start
            if stats is not None:
                report.stats_rows.append(stats)
    finally:
        if writer is not None:
            writer.close()
    return report


def _convert_one(ident, raw, cfg: JobConfig, ctx, dims):
    derivation = ingest_tree(raw)
    term = bc.lower_derivation(derivation)
    diagram = lower(term, ctx)
    before = diagram
    if cfg.planarize:
        problems: list[str] = []
        diagram = planarize_diagram(diagram, problems=problems)
        if problems:
            raise ValueError("; ".join(problems))
    if cfg.normalize:
        diagram = normalize_diagram(diagram)
    if dims is not None:
        seeds = [cfg.seed + i for i in range(5)]
        if not semantically_equal(before, diagram, dims, seeds):
            raise ValueError("semantic check failed: rewrite changed the tensor")

    outputs: dict[str, str | bytes] = {}
    if "biclosed" in cfg.emit:
        outputs[f"{ident}.biclosed"] = bc.to_sexpr(term) + "\n"
    if "diagram" in cfg.emit:
        outputs[f"{ident}.diagram.json"] = diagram_to_json(diagram) + "\n"
    drawing = Layout(diagram) if "tikz" in cfg.emit or "svg" in cfg.emit else None
    if "tikz" in cfg.emit:
        outputs[f"{ident}.tikz"] = render_tikz(drawing)
    if "svg" in cfg.emit:
        outputs[f"{ident}.svg"] = render_svg(drawing)

    stats = None
    if "stats" in cfg.emit:
        hist = ";".join(f"{k}={v}" for k, v in rule_histogram(derivation).items())
        stats = (
            ident, len(leaves(derivation)), hist or "-",
            diagram.count(Cup), diagram.count(Cap),
            before.count(Swap), diagram.count(Swap), len(diagram.layers),
        )
    return outputs, stats


def _write_files(out_dir: Path, outputs: dict[str, str | bytes]) -> None:
    """Create each file of ``outputs`` in ``out_dir``, in order, holding its
    payload's UTF-8 bytes: the one place an output file is created, in this
    process and in the forked writer alike."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC
    for name, payload in outputs.items():
        view = memoryview(payload.encode("utf-8") if isinstance(payload, str) else payload)
        fd = os.open(out_dir / name, flags, 0o666)
        try:
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


def _write_sent(data_fd: int, status_fd: int) -> int:
    """The forked writer's loop: unpickle ``(out_dir, outputs)`` pairs from
    ``data_fd`` until end of file and write each with :func:`_write_files`.
    At the first ``OSError`` pickle it to ``status_fd`` and return 1, so no
    later file is written."""
    import pickle
    with open(data_fd, "rb") as data:
        while True:
            try:
                out_dir, outputs = pickle.load(data)
            except (EOFError, pickle.UnpicklingError):
                return 0   # the end of the batch, or a sender that died mid-pickle
            try:
                _write_files(out_dir, outputs)
            except OSError as exc:
                os.write(status_fd, pickle.dumps(exc))
                return 1


class _Writer:
    """A forked child of this process that writes the files it is sent, in
    order, while this process converts the next sentences.

    Each sentence's ``(out_dir, outputs)`` goes down a pipe pickled, and the
    child writes it with :func:`_write_files`.  When the writer falls 1 MiB
    behind, :meth:`send` blocks, so a batch never holds more than that.  The
    writer stops at the first file it cannot create and pickles the error to
    a second pipe; the :meth:`send` that finds it gone, or :meth:`close`,
    raises that error as writing the file in process would have.  The child
    leaves through ``os._exit``, so it flushes none of the stdio buffers it
    inherited and runs none of the caller's ``atexit`` handlers."""

    def __init__(self, pid: int, data: int, status: int):
        self.pid: int | None = pid
        self.data, self.status = data, status

    @classmethod
    def start(cls) -> _Writer | None:
        """A forked writer, or None where this process cannot fork."""
        if not hasattr(os, "fork"):
            return None
        data_r, data_w = os.pipe()
        status_r, status_w = os.pipe()
        try:
            import fcntl
            fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, 1 << 20)
        except (ImportError, AttributeError, OSError):
            pass   # a smaller pipe only blocks the conversion sooner
        try:
            with warnings.catch_warnings():
                # numpy's BLAS threads make Python 3.12+ warn of deadlocks in
                # the child, whose loop takes no lock another thread can hold
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in (data_r, data_w, status_r, status_w):
                os.close(fd)
            return None
        if pid == 0:
            code = 1
            try:
                os.close(data_w)
                os.close(status_r)
                # its own process group: a terminal's interrupt stops the
                # conversion, whose ``finally`` lets the writer finish and exit
                os.setpgid(0, 0)
                gc.disable()   # no collection walks, and so copies, the inherited heap
                code = _write_sent(data_r, status_w)
            finally:
                os._exit(code)
        os.close(data_r)
        os.close(status_w)
        return cls(pid, data_w, status_r)

    def send(self, out_dir: Path, outputs: dict[str, str | bytes]) -> None:
        import pickle
        view = memoryview(pickle.dumps((out_dir, outputs)))
        try:
            while view:
                view = view[os.write(self.data, view):]
        except BrokenPipeError:
            self.close()   # the writer stopped: raise its error
            raise

    def close(self) -> None:
        """Wait until every file sent is written and reap the writer; raise
        the error of a file it could not write."""
        if self.pid is None:
            return
        os.close(self.data)
        with open(self.status, "rb") as status:
            failure = status.read()
        _, wait_status = os.waitpid(self.pid, 0)
        self.pid = None
        if failure:
            import pickle
            raise pickle.loads(failure)
        if wait_status:
            raise OSError(f"the output writer exited with status "
                          f"{os.waitstatus_to_exitcode(wait_status)}")


def write_report(report: ExitReport, cfg: JobConfig, out=None) -> None:
    if out is None:
        out = sys.stdout
    rows = [STATS_COLUMNS, *report.stats_rows] if report.stats_rows else []
    stats = "".join("\t".join(map(str, row)) + "\n" for row in rows)
    if cfg.out_dir:
        if stats:   # the directory is created and filled by ``run``
            _write_files(Path(cfg.out_dir), {"stats.tsv": stats})
    else:
        for name, payload in sorted(report.outputs.items()):
            if isinstance(payload, bytes):   # an SVG, which ends without a newline
                payload = payload.decode("utf-8") + "\n"
            out.write(f"--- {name}\n{payload}")
        out.write(stats)
    for ident, message in report.failures:
        out.write(f"FAIL {ident}: {message}\n")
    out.write(report.summary() + "\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="discoccg",
        description="Convert CCG derivations into DisCoCat string diagrams.")
    ap.add_argument("--in", dest="inputs", nargs="+", required=True,
                    help="input file(s) with serialized derivations")
    ap.add_argument("--format", dest="fmt", choices=("json", "ccgbank"), default="json")
    ap.add_argument("--out-dir", default=None)
    ap.add_argument("--emit", default="diagram",
                    help="comma-separated subset of " + ",".join(EMITS))
    ap.add_argument("--normalize", action="store_true",
                    help="snake removal and canonical layer order")
    ap.add_argument("--planarize", action="store_true",
                    help="remove crossed-composition swaps by state relocation")
    ap.add_argument("--check-semantics", default=None, metavar="DIMS",
                    help='verify rewrites numerically, e.g. "n=2,s=2" or "*=3"')
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero when any sentence fails")
    ap.add_argument("--atom-map", action="append", default=[], metavar="ATOM=base",
                    help="override an atom's wire base (repeatable)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    atom_map: dict[str, str] = {}
    for entry in args.atom_map:
        key, sep, value = (s.strip() for s in entry.partition("="))
        problem = None
        if not sep or not ATOM_NAME.fullmatch(key) or not ATOM_NAME.fullmatch(value):
            problem = "ATOM and base must be atom names, [A-Za-z][A-Za-z0-9_]*"
        elif key in atom_map:
            problem = f"{key!r} is already set"
        if problem:
            print(f"bad --atom-map entry {entry!r}: {problem}", file=sys.stderr)
            return 2
        atom_map[key] = value
    cfg = JobConfig(
        inputs=args.inputs, fmt=args.fmt, out_dir=args.out_dir,
        emit=tuple(e.strip() for e in args.emit.split(",") if e.strip()),
        normalize=args.normalize, planarize=args.planarize,
        check_semantics=args.check_semantics, seed=args.seed,
        strict=args.strict, atom_map=atom_map)
    try:
        report = run(cfg)
        write_report(report, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.strict and report.failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
