"""Fixture: BSP ownership-discipline violations.

Deliberately violates the ownership rules; the expected findings (and
their line numbers) are asserted in tests/test_repro_lint.py.  The
annotated twins show the legal form of each pattern.
"""

from repro.analysis.ownership import exchange_phase, owns, reads_ghosts
from repro.smvp.exchange import Exchange, apply_rounds


def cross_pe_write(y_locals, send):
    y_locals[send.dst][0] += 1.0  # bsp-ownership (line 13)


def neighbour_write(y_locals, pe):
    y_locals[pe + 1][:] = 0.0  # bsp-ownership (line 17)


@owns("y_locals", pe="pe")
def owned_write(y_locals, pe, y):
    y_locals[pe] = y  # clean: the declared owned slot


@exchange_phase("y_locals")
def legal_exchange(y_locals, delivered):
    for send, payload in delivered:
        y_locals[send.dst][send.dof_dst] += payload  # clean


def loop_write(y_locals):
    for pe in range(len(y_locals)):
        y_locals[pe] = y_locals[pe] * 2.0  # clean: own-slot sweep


def ghost_peek(y_locals, pairs, transport):
    early = y_locals[0][:3]  # ghost-read (line 37)
    Exchange(y_locals, pairs, transport, 0).sum_deliveries()
    return early


@reads_ghosts("y_locals")
def legal_peek(y_locals, pairs, transport):
    early = y_locals[0][:3]  # clean: declared pre-exchange read
    Exchange(y_locals, pairs, transport, 0).sum_deliveries()
    return early


def corrupt_payload(send):
    send.payload[0] = 0.0  # exchange-buffer-mutation (line 50)


def zero_payload(send):
    send.payload.fill(0.0)  # exchange-buffer-mutation (line 54)


def unsorted_reduction(totals, per_pe):
    for _pe, value in per_pe.items():
        totals[0] += value  # bsp-reduction-order (line 59)
    return totals


def sorted_reduction(totals, per_pe):
    for _pe, value in sorted(per_pe.items()):
        totals[0] += value  # clean: deterministic order
    return totals


def plan_peek(y_locals, buffer, snapshot, rounds):
    early = y_locals[0][:3]  # ghost-read (line 70): the flat plan's
    apply_rounds(buffer, snapshot, rounds)  # rounds are an exchange too
    return early
