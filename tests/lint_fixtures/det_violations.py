"""Fixture: determinism violations, one cluster per rule.

Never imported — parsed by ``tests/test_repro_lint.py`` through the
lint engine.  Expected findings are asserted line by line there, so
edits here must be mirrored in the test.
"""

import random
import time
from datetime import datetime

import numpy as np


def unseeded_stdlib(items):
    pick = random.choice(items)  # unseeded-random
    random.shuffle(items)  # unseeded-random
    return pick, random.random()  # unseeded-random


def unseeded_numpy():
    np.random.seed(1234)  # numpy-legacy-random
    return np.random.rand(4)  # numpy-legacy-random


def entropy_rng():
    return np.random.default_rng()  # unseeded-default-rng


def wall_clock_reads():
    t0 = time.perf_counter()  # wall-clock
    stamp = datetime.now()  # wall-clock
    return time.time(), t0, stamp  # wall-clock


def set_order_accumulation(values):
    bucket = {v * 0.1 for v in values}
    total = sum(bucket)  # unordered-iteration
    for item in bucket:  # unordered-iteration
        total += item
    return total


def unsorted_reduction(totals, per_pe):
    for _pe, value in per_pe.items():
        totals[0] += value  # bsp-reduction-order
    return totals


def sorted_reduction(totals, per_pe):
    for _pe, value in sorted(per_pe.items()):
        totals[0] += value  # clean: deterministic order
    return totals


def intentional_entropy():
    """Pragma-suppressed: must NOT appear in the findings."""
    return random.random()  # repro-lint: ignore[unseeded-random]
