"""Mini-app (proxy app) generation — the paper's §6 plan:

    "we are currently working on a mini-app generator that could
    automatically generate a proxy MPI program that has the same
    communication patterns as of captured in the traces"

:func:`generate_miniapp` turns a Pilgrim trace into a standalone,
*readable* Python program.  The generated control flow is the compressed
grammar itself: every grammar rule becomes a generator function, rule
exponents become ``for`` loops, and ranks dispatch to their pattern
class — so the mined loop structure of the original application is
visible in the generated source.  Argument materialization (symbolic ids
back to live communicators/datatypes/buffers) is delegated to
:mod:`repro.replay.engine`, the way a generated C mini-app would link
against an MPI runtime.
"""

from __future__ import annotations

import io

from ..core.grammar import Grammar
from ..core.trace_format import TraceFile

_HEADER = '''\
#!/usr/bin/env python3
"""Auto-generated Pilgrim mini-app (communication proxy).

Generated by repro.replay.codegen from a {nprocs}-rank trace with
{nsigs} call signatures and {nclasses} communication-pattern class(es).
Each class_* generator below IS the trace's compressed grammar: rules
are functions, repetition exponents are loops.  Run directly:

    python <this file>
"""

from repro.core.decoder import RankStream
from repro.core.records import sig_spec
from repro.mpisim import SimMPI
from repro.replay.engine import RankReplayer, ReplayState, plan_signature

NPROCS = {nprocs}

#: the merged Call Signature Table, verbatim from the trace
SIGS = [
{sig_lines}
]

#: rank -> communication-pattern class
RANK_CLASS = {rank_class}

'''

_FOOTER = '''

CLASS_FUNCS = [__CLASS_NAMES__]


def _planned_calls(rank):
    """The rank's stream: its class's terminals, one plan per signature."""
    terms = list(CLASS_FUNCS[RANK_CLASS[rank]]())
    return RankStream(terms, {
        term: plan_signature(sig_spec(SIGS[term]), SIGS[term])
        for term in dict.fromkeys(terms)})


def make_program(state):
    """Rank program factory for repro.mpisim.SimMPI."""
    def program(m):
        replayer = RankReplayer(m.rank, state, _planned_calls(m.rank))
        yield from replayer.program(m)
    return program


def main(seed=0):
    state = ReplayState(NPROCS)
    sim = SimMPI(NPROCS, seed=seed)
    result = sim.run(make_program(state))
    print(f"mini-app replayed {NPROCS} ranks, "
          f"makespan {result.app_time * 1e3:.3f} ms (virtual)")
    return result


if __name__ == "__main__":
    main()
'''


def _emit_rule_body(out: io.StringIO, grammar: Grammar, uid: int,
                    rule_idx: int, indent: str) -> None:
    for value, exp in grammar.rules[rule_idx]:
        if value >= 0:
            stmt = f"yield {value}"
        else:
            stmt = f"yield from _c{uid}_r{-value - 1}()"
        if exp == 1:
            out.write(f"{indent}{stmt}\n")
        else:
            out.write(f"{indent}for _ in range({exp}):\n")
            out.write(f"{indent}    {stmt}\n")


def _emit_class(out: io.StringIO, grammar: Grammar, uid: int) -> None:
    # sub-rules first (rule 0 is the class entry point)
    for rule_idx in range(len(grammar.rules) - 1, 0, -1):
        out.write(f"def _c{uid}_r{rule_idx}():\n")
        if grammar.rules[rule_idx]:
            _emit_rule_body(out, grammar, uid, rule_idx, "    ")
        else:
            out.write("    return\n    yield\n")
        out.write("\n\n")
    out.write(f"def class_{uid}():\n")
    out.write(f'    """Pattern class {uid}: the grammar\'s start rule."""\n')
    if grammar.rules[0]:
        _emit_rule_body(out, grammar, uid, 0, "    ")
    else:
        out.write("    return\n    yield\n")
    out.write("\n\n")


def generate_miniapp(trace_bytes: bytes) -> str:
    """Generate standalone Python source reproducing the trace's
    communication pattern."""
    trace = TraceFile.from_bytes(trace_bytes)
    cfg = trace.cfg

    sig_lines = "\n".join(f"    {sig!r}," for sig in trace.cst.sigs)
    out = io.StringIO()
    out.write(_HEADER.format(
        nprocs=trace.nprocs,
        nsigs=len(trace.cst.sigs),
        nclasses=len(cfg.unique),
        sig_lines=sig_lines,
        rank_class=_compact_rank_class(cfg.rank_uid),
    ))
    for uid, grammar in enumerate(cfg.unique):
        _emit_class(out, grammar, uid)
    out.write(_FOOTER.replace("__CLASS_NAMES__", ", ".join(
        f"class_{uid}" for uid in range(len(cfg.unique)))))
    return out.getvalue()


def _compact_rank_class(rank_uid: list[int]) -> str:
    """A readable literal for the rank->class map, run-length aware."""
    if len(set(rank_uid)) == 1:
        return f"[{rank_uid[0]}] * {len(rank_uid)}"
    return repr(list(rank_uid))


def load_miniapp(source: str) -> dict:
    """Execute generated mini-app source; returns its module namespace
    (used by tests and by programmatic callers)."""
    namespace: dict = {"__name__": "pilgrim_miniapp"}
    exec(compile(source, "<pilgrim-miniapp>", "exec"), namespace)
    return namespace
