# -*- coding: utf-8 -*-
"""Bundled corpus of hand-authored derivations exercising every rule."""

from __future__ import annotations

import importlib.resources

from ..ingest import RawTree, ingest_tree, read_derivations
from ..rules import Derivation


def corpus_text() -> bytes:
    ref = importlib.resources.files(__package__).joinpath("derivations.json")
    return ref.read_bytes()


def load_raw() -> list[tuple[str, RawTree]]:
    return list(read_derivations(corpus_text(), "json"))


def load_corpus() -> list[tuple[str, Derivation]]:
    """All bundled derivations, ingested and validated, in file order."""
    return [(ident, ingest_tree(raw)) for ident, raw in load_raw()]
