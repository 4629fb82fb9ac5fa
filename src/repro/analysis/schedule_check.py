"""Static checker for BSP exchange schedules.

The paper's Equations (1)/(2) and the β ≤ 2 bound (and the rate-0
bit-identity guarantee of the fault layer) all assume the exchange
phase is a *symmetric pairwise* bulk-synchronous schedule:

* **symmetry** — i sends to j exactly when j sends to i, with equal
  word counts (hence every ``C_i`` is even and divisible by 3);
* **coverage** — every shared node is exchanged between *all* pairs of
  PEs it resides on, with the schedule's word counts matching
  ``WORDS_PER_NODE x |shared(i, j)|``.

This module verifies those properties for

1. any in-memory :class:`repro.smvp.schedule.CommSchedule` (duck-typed:
   ``num_parts``, ``messages``) — used by the ``REPRO_CONTRACTS=1``
   runtime contracts.  The engine's exchange is a snapshot and a sum,
   with no blocking send/recv to deadlock; its compiled plan has its
   own contract (:func:`repro.analysis.contracts.check_plan_contract`);
2. golden-schedule JSON files (``*schedule*.json``), via the
   ``schedule-invariant`` lint rule, which also checks their rounds of
   blocking sendrecvs for **deadlock-freedom** (each round a matching,
   no cyclic wait like ``0→1, 1→2, 2→0``).  Golden format::

       {"num_parts": 4,
        "messages": [[src, dst, words], ...],
        "rounds": [[[src, dst], ...], ...]}

   ``rounds`` entries are *directed* sends; a correct round carries
   both directions of every exchange.

The checker never imports ``repro.smvp`` (the contracts layer is
imported *by* it), so everything here works on plain ints and tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, Rule, register

#: Mirrors repro.smvp.schedule.WORDS_PER_NODE without importing it.
WORDS_PER_NODE = 3

#: A directed message: (src, dst, words).
DirectedMessage = Tuple[int, int, int]


@dataclass(frozen=True)
class ScheduleViolation:
    """One broken invariant."""

    kind: str  # asymmetry | deadlock | conflict | coverage | parity | malformed
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class ScheduleReport:
    """Outcome of a full schedule check."""

    num_parts: int
    violations: List[ScheduleViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"schedule ok ({self.num_parts} PEs)"
        body = "; ".join(str(v) for v in self.violations[:10])
        extra = len(self.violations) - 10
        if extra > 0:
            body += f"; ... and {extra} more"
        return f"schedule INVALID ({self.num_parts} PEs): {body}"


def _as_triples(messages: Iterable) -> List[DirectedMessage]:
    """Normalize Message objects / sequences to (src, dst, words)."""
    out = []
    for msg in messages:
        if hasattr(msg, "src"):
            out.append((int(msg.src), int(msg.dst), int(msg.words)))
        else:
            src, dst, words = msg
            out.append((int(src), int(dst), int(words)))
    return out


def check_messages(
    messages: Iterable, num_parts: int
) -> List[ScheduleViolation]:
    """Well-formedness and pairwise symmetry of the directed message set."""
    violations: List[ScheduleViolation] = []
    directed: Dict[Tuple[int, int], int] = {}
    for src, dst, words in _as_triples(messages):
        if src == dst:
            violations.append(
                ScheduleViolation(
                    "malformed", f"self-message on PE {src} ({words} words)"
                )
            )
            continue
        if not (0 <= src < num_parts and 0 <= dst < num_parts):
            violations.append(
                ScheduleViolation(
                    "malformed",
                    f"message {src}->{dst} outside the {num_parts}-PE range",
                )
            )
            continue
        if words <= 0:
            violations.append(
                ScheduleViolation(
                    "malformed", f"message {src}->{dst} carries {words} words"
                )
            )
        if (src, dst) in directed:
            violations.append(
                ScheduleViolation(
                    "malformed",
                    f"duplicate directed message {src}->{dst} (blocks must "
                    "be maximal: one message per neighbor per direction)",
                )
            )
            continue
        directed[(src, dst)] = words
    for (src, dst), words in sorted(directed.items()):
        back = directed.get((dst, src))
        if back is None:
            violations.append(
                ScheduleViolation(
                    "asymmetry",
                    f"{src} sends {words} words to {dst} but {dst} never "
                    f"sends to {src}",
                )
            )
        elif back != words and src < dst:
            violations.append(
                ScheduleViolation(
                    "asymmetry",
                    f"unequal exchange {src}<->{dst}: {words} vs {back} "
                    "words (shared-node lists must match)",
                )
            )
    return violations


def check_parity(messages: Iterable, num_parts: int) -> List[ScheduleViolation]:
    """The paper's Figure 7 invariants: every C_i even, divisible by 3."""
    words_per_pe = [0] * num_parts
    for src, dst, words in _as_triples(messages):
        if 0 <= src < num_parts and 0 <= dst < num_parts:
            words_per_pe[src] += words
            words_per_pe[dst] += words
    violations = []
    for pe, c_i in enumerate(words_per_pe):
        if c_i % 2 != 0:
            violations.append(
                ScheduleViolation(
                    "parity",
                    f"C_{pe} = {c_i} is odd (symmetric exchange makes every "
                    "C_i even)",
                )
            )
        elif c_i % WORDS_PER_NODE != 0:
            violations.append(
                ScheduleViolation(
                    "parity",
                    f"C_{pe} = {c_i} is not a multiple of "
                    f"{WORDS_PER_NODE} (three words per shared node)",
                )
            )
    return violations


def check_rounds(
    rounds: Sequence[Sequence[Tuple[int, int]]],
    num_parts: int,
    messages: Optional[Iterable] = None,
) -> List[ScheduleViolation]:
    """Round structure: matching property, per-round symmetry, deadlocks.

    Each round is a list of directed sends ``(src, dst)``.  A valid
    BSP round is a partial matching of PEs in which every send is
    matched by the reverse send (a blocking sendrecv completes).  An
    unmatched send stalls its sender; a *cycle* of unmatched sends
    (``0→1→2→0``) is a guaranteed deadlock and reported as such.

    With ``messages`` given, also checks that the rounds cover exactly
    the message set (every exchange scheduled once, nothing invented).
    """
    violations: List[ScheduleViolation] = []
    seen_pairs: Dict[Tuple[int, int], int] = {}
    for index, sends in enumerate(rounds):
        sends = [(int(s), int(d)) for s, d in sends]
        send_set = set(sends)
        outgoing: Dict[int, List[int]] = {}
        touched: Dict[int, int] = {}
        for src, dst in sends:
            if src == dst or not (
                0 <= src < num_parts and 0 <= dst < num_parts
            ):
                violations.append(
                    ScheduleViolation(
                        "malformed",
                        f"round {index}: invalid send {src}->{dst}",
                    )
                )
                continue
            outgoing.setdefault(src, []).append(dst)
            touched[src] = touched.get(src, 0)
            touched[dst] = touched.get(dst, 0)
            pair = (min(src, dst), max(src, dst))
            touched[src] += 1
            touched[dst] += 1
            if (dst, src) not in send_set:
                violations.append(
                    ScheduleViolation(
                        "asymmetry",
                        f"round {index}: {src} sends to {dst} but {dst} "
                        f"does not send to {src} in the same round",
                    )
                )
            if src < dst:
                prev = seen_pairs.get(pair)
                if prev is not None and (dst, src) in send_set:
                    violations.append(
                        ScheduleViolation(
                            "malformed",
                            f"pair {pair} scheduled in rounds {prev} and "
                            f"{index}",
                        )
                    )
                seen_pairs[pair] = index
        # Matching property: each PE in at most one exchange per round.
        for pe, count in sorted(touched.items()):
            if count > 2:  # a full exchange touches a PE twice (send+recv)
                violations.append(
                    ScheduleViolation(
                        "conflict",
                        f"round {index}: PE {pe} participates in "
                        f"{count} sends/receives; rounds must be pairwise "
                        "matchings",
                    )
                )
        # Deadlock: cycles among unmatched sends.
        unmatched = [
            (s, d) for (s, d) in sorted(send_set) if (d, s) not in send_set
        ]
        graph: Dict[int, List[int]] = {}
        for s, d in unmatched:
            graph.setdefault(s, []).append(d)
        state: Dict[int, int] = {}  # 0 unseen / 1 on stack / 2 done

        def _cycle_from(start: int) -> Optional[List[int]]:
            stack = [(start, iter(graph.get(start, ())))]
            path = [start]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if state.get(nxt, 0) == 1:
                        return path[path.index(nxt) :] + [nxt]
                    if state.get(nxt, 0) == 0:
                        state[nxt] = 1
                        path.append(nxt)
                        stack.append((nxt, iter(graph.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    path.pop()
                    stack.pop()
            return None

        for start in sorted(graph):
            if state.get(start, 0) == 0:
                cycle = _cycle_from(start)
                if cycle is not None:
                    chain = "->".join(str(pe) for pe in cycle)
                    violations.append(
                        ScheduleViolation(
                            "deadlock",
                            f"round {index}: cyclic wait {chain} — every "
                            "PE in the ring blocks on a receive that never "
                            "posts",
                        )
                    )
                    break
    if messages is not None:
        message_pairs = {
            (min(s, d), max(s, d)) for s, d, _ in _as_triples(messages)
        }
        scheduled = set(seen_pairs)
        for pair in sorted(message_pairs - scheduled):
            violations.append(
                ScheduleViolation(
                    "coverage",
                    f"exchange {pair} appears in the message set but in no "
                    "round",
                )
            )
        for pair in sorted(scheduled - message_pairs):
            violations.append(
                ScheduleViolation(
                    "coverage",
                    f"round schedules exchange {pair} that is not in the "
                    "message set",
                )
            )
    return violations


def check_coverage(schedule, distribution) -> List[ScheduleViolation]:
    """Every shared node exchanged between all pairs of its resident PEs.

    Recomputes residency from ``distribution.node_parts`` (the ground
    truth) and compares word counts pair by pair against the schedule's
    messages, independently of how the schedule was built.
    """
    violations: List[ScheduleViolation] = []
    csr = distribution.node_parts.tocsr()
    indptr, indices = csr.indptr, csr.indices
    expected: Dict[Tuple[int, int], int] = {}
    for node in range(csr.shape[0]):
        parts = indices[indptr[node] : indptr[node + 1]]
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                pair = (int(parts[i]), int(parts[j]))
                expected[pair] = expected.get(pair, 0) + 1
    directed: Dict[Tuple[int, int], int] = {}
    for src, dst, words in _as_triples(schedule.messages):
        directed[(src, dst)] = words
    for (a, b), count in sorted(expected.items()):
        want = WORDS_PER_NODE * count
        for src, dst in ((a, b), (b, a)):
            got = directed.get((src, dst))
            if got is None:
                violations.append(
                    ScheduleViolation(
                        "coverage",
                        f"PEs {a} and {b} share {count} node(s) but the "
                        f"schedule has no {src}->{dst} message",
                    )
                )
            elif got != want:
                violations.append(
                    ScheduleViolation(
                        "coverage",
                        f"message {src}->{dst} carries {got} words; the "
                        f"{count} shared node(s) require {want}",
                    )
                )
    for (src, dst) in sorted(directed):
        pair = (min(src, dst), max(src, dst))
        if pair not in expected:
            violations.append(
                ScheduleViolation(
                    "coverage",
                    f"message {src}->{dst} exchanges data between PEs that "
                    "share no nodes",
                )
            )
    return violations


def check_schedule(schedule, distribution=None) -> ScheduleReport:
    """Full static verification of an in-memory schedule.

    ``schedule`` is duck-typed (``num_parts``, ``messages``);
    ``distribution`` (optional) enables the shared-node coverage check.
    """
    num_parts = int(schedule.num_parts)
    violations = check_messages(schedule.messages, num_parts)
    violations += check_parity(schedule.messages, num_parts)
    if distribution is not None:
        violations += check_coverage(schedule, distribution)
    return ScheduleReport(num_parts=num_parts, violations=violations)


def check_payload(payload: object) -> ScheduleReport:
    """Check a golden-schedule JSON payload (see module docstring)."""
    if not isinstance(payload, dict) or "num_parts" not in payload:
        return ScheduleReport(
            num_parts=0,
            violations=[
                ScheduleViolation(
                    "malformed",
                    "golden schedule must be an object with `num_parts`",
                )
            ],
        )
    num_parts = int(payload["num_parts"])
    messages = payload.get("messages", [])
    violations = check_messages(messages, num_parts)
    violations += check_parity(messages, num_parts)
    rounds = payload.get("rounds")
    if rounds is not None:
        violations += check_rounds(
            rounds, num_parts, messages=messages if messages else None
        )
    return ScheduleReport(num_parts=num_parts, violations=violations)


@register
class ScheduleInvariantRule(Rule):
    name = "schedule-invariant"
    description = (
        "golden exchange schedule breaks symmetry / deadlock-freedom / "
        "coverage"
    )

    def check_data(self, path, payload):
        report = check_payload(payload)
        for violation in report.violations:
            yield Finding(
                rule=self.name,
                path=path,
                line=1,
                col=0,
                message=str(violation),
            )
