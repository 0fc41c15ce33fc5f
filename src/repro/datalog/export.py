"""Generating Datalog text from ER-pi's persisted state.

Paper section 5.1: "ER-pi generates the Souffle dialect of Datalog, with the
code size varying based on the number of interleavings and pruning
criteria."  This module is that generator for our engine: it renders an
:class:`~repro.datalog.store.InterleavingStore` (facts) together with the
standard pruning queries (rules) as a single program text that
:func:`repro.datalog.parser.evaluate_text` can run — and that a real Souffle
installation could run with minor superficial edits (``.decl`` headers are
emitted as comments).
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.datalog.store import InterleavingStore


def _render_term(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    text = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _render_fact(relation: str, row: Iterable[Any]) -> str:
    inner = ", ".join(_render_term(value) for value in row)
    return f"{relation}({inner})."


def _row_sort_key(row: Iterable[Any]):
    """A typed per-column sort key: numbers numerically, text lexically.

    Sorting rows with ``key=repr`` orders integer columns by their decimal
    spelling (``il_meta(10, ...)`` before ``il_meta(2, ...)``), so exports
    were not stable under id growth: adding interleaving #10 reshuffled
    every previously exported row.  Numbers sort before strings in a mixed
    column, which can only happen across distinct fact shapes.
    """
    return tuple(
        (0, float(value), "") if isinstance(value, (bool, int, float)) else (1, 0.0, str(value))
        for value in row
    )


#: The grouping-violation query (paper Algorithm 1 as logic), in the same
#: shape :func:`repro.datalog.queries.grouping_violations` builds in memory.
GROUPING_RULES = """
// succ(IL, P1, P2): P2 is the position immediately after P1 in IL.
succ(Il, P1, P2) :- interleaving(Il, P1, E1), interleaving(Il, P2, E2),
                    P1 < P2, !between(Il, P1, P2).
between(Il, P1, P2) :- interleaving(Il, P1, E1), interleaving(Il, P2, E2),
                       interleaving(Il, P3, E3), P1 < P3, P3 < P2.
// bad(IL): a sync pair whose execute is not adjacent after its request.
bad(Il) :- sync_pair(Req, Exec), interleaving(Il, P1, Req),
           interleaving(Il, P2, Exec), !succ(Il, P1, P2).
"""

_DECLS = """\
// .decl event(id: symbol, replica: symbol, kind: symbol, op: symbol)
// .decl sync_pair(req: symbol, exec: symbol)
// .decl interleaving(il: number, position: number, event: symbol)
// .decl il_meta(il: number, length: number)
// .decl pruned(il: number, algorithm: symbol)
// .decl explored(il: number, verdict: symbol)
// .decl divergence(class_key: symbol, rep: symbol, member: symbol, field: symbol)
// .decl fault(event: symbol, replica: symbol, kind: symbol)
// .decl quarantined(il: number, error: symbol)
// .decl span(id: number, parent: number, kind: symbol, duration_us: number)
// .decl metric(name: symbol, value: number)
// .decl lease(slot: number, attempt: number, status: symbol)
// .decl memo(digest: symbol, il: number)
// .decl footprint(il: number, event: symbol, mode: symbol, key: symbol)
// .output bad
"""


def export_program(
    store: InterleavingStore,
    include_rules: bool = True,
) -> str:
    """Render the store (and optionally the pruning rules) as Datalog text."""
    lines: List[str] = [
        "// Generated by ER-pi (repro.datalog.export) — facts + pruning rules.",
        _DECLS,
    ]
    for relation in (
        "event",
        "sync_pair",
        "interleaving",
        "il_meta",
        "pruned",
        "explored",
        "divergence",
        "fault",
        "quarantined",
        "span",
        "metric",
        "lease",
        "memo",
        "footprint",
    ):
        rows = sorted(store.db.rows(relation), key=_row_sort_key)
        if not rows:
            continue
        lines.append(f"// --- {relation}: {len(rows)} fact(s)")
        lines.extend(_render_fact(relation, row) for row in rows)
        lines.append("")
    if include_rules:
        lines.append(GROUPING_RULES.strip())
        lines.append("")
    return "\n".join(lines)


def export_to_file(store: InterleavingStore, path: str, include_rules: bool = True) -> int:
    """Write the generated program to ``path``; returns the byte count."""
    text = export_program(store, include_rules=include_rules)
    with open(path, "w") as handle:
        handle.write(text)
    return len(text.encode())
