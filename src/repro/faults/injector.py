"""Deterministic, seeded fault injection.

The injector answers point questions — "does PE 3 straggle in step
17?", "what happens to the block from PE 2 to PE 5 on attempt 0?" —
with draws that depend only on ``(config.seed, domain, identifiers)``,
never on call order.  Each decision hashes its identifiers through
``numpy``'s :class:`~numpy.random.SeedSequence` (a counter-based
splittable stream), so the simulator and the executor can consult the
same injector in any order, any number of times, and observe one
consistent fault history.  Retries are independent draws (the ``attempt``
index is part of the key): a retransmitted block can fail again, which
is what makes exponential backoff worth modeling.  A silent flip of a
PE's kernel output is one draw per (step, PE) against ``flip_rate``
(:meth:`FaultInjector.flipped`); its word and bit are a second,
separate draw (:meth:`FaultInjector.sdc_site`).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Tuple

import numpy as np

from repro.faults.config import FaultConfig


class TransmissionOutcome(NamedTuple):
    """Counts describing how one directed block eventually got through."""

    attempts: int  # transmissions performed (1 = clean first try)
    drops: int  # attempts lost in flight
    corruptions: int  # attempts rejected by the receiver's checksum
    duplicates: int  # redundant extra copies that arrived
    delivered: bool  # False when the retry budget was exhausted

    @property
    def failures(self) -> int:
        """Failed attempts that each triggered a timeout + retransmit."""
        return self.drops + self.corruptions

# Domain tags keep the per-decision streams disjoint.
_DOMAIN_STRAGGLE = 1
_DOMAIN_SLOWDOWN = 2
_DOMAIN_PE_FAIL = 3
_DOMAIN_BLOCK = 4
_DOMAIN_CORRUPT = 5
_DOMAIN_JITTER = 6
_DOMAIN_SDC = 7
_DOMAIN_SDC_SITE = 8


class BlockFault(enum.Enum):
    """Fate of one directed block transmission."""

    NONE = "none"
    DROP = "drop"
    BITFLIP = "bitflip"
    DUPLICATE = "duplicate"


def _uniform(seed: int, domain: int, *key: int) -> float:
    """Deterministic uniform in [0, 1) keyed on (seed, domain, key)."""
    ss = np.random.SeedSequence(entropy=(seed, domain) + key)
    return float(ss.generate_state(1, np.uint64)[0]) / float(2**64)


def _states(seed: int, domain: int, *key: int, n: int = 2) -> np.ndarray:
    """``n`` deterministic uint64 words keyed on (seed, domain, key)."""
    ss = np.random.SeedSequence(entropy=(seed, domain) + key)
    return ss.generate_state(n, np.uint64)


class FaultInjector:
    """Stateless oracle for all fault decisions of one configured run."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # -- compute-phase faults ---------------------------------------------

    def straggler_factor(self, pe: int, step: int = 0) -> float:
        """Multiplier (>= 1.0) on the PE's compute time this superstep."""
        cfg = self.config
        if cfg.straggler_rate <= 0 or cfg.straggler_mean_slowdown <= 0:
            return 1.0
        u = _uniform(cfg.seed, _DOMAIN_STRAGGLE, step, pe)
        if u >= cfg.straggler_rate:
            return 1.0
        v = _uniform(cfg.seed, _DOMAIN_SLOWDOWN, step, pe)
        # Exponential tail: mean extra time = straggler_mean_slowdown.
        return 1.0 - cfg.straggler_mean_slowdown * float(np.log1p(-v))

    def pe_failed(self, pe: int, step: int = 0) -> bool:
        """Whether the PE suffers a transient crash this superstep."""
        cfg = self.config
        if cfg.pe_failure_rate <= 0:
            return False
        return _uniform(cfg.seed, _DOMAIN_PE_FAIL, step, pe) < cfg.pe_failure_rate

    # -- silent data corruption (memory/compute faults) --------------------

    @property
    def comm_enabled(self) -> bool:
        """Whether any in-flight block fault can occur."""
        return self.config.comm_enabled

    @property
    def sdc_enabled(self) -> bool:
        """Whether any memory/compute corruption can occur."""
        return self.config.sdc_enabled

    def flipped(self, pe: int, step: int = 0) -> bool:
        """Whether a *transient* flip strikes this PE's kernel output
        this superstep.  Keyed on the PE's physical id so the draw
        survives eviction renumbering."""
        cfg = self.config
        if cfg.flip_rate <= 0:
            return False
        return _uniform(cfg.seed, _DOMAIN_SDC, step, pe) < cfg.flip_rate

    def sticky(self, pe: int, step: int = 0) -> bool:
        """Whether this (physical) PE's bad core corrupts its output on
        every compute — main path *and* recovery recomputes."""
        cfg = self.config
        return pe in cfg.sticky_pes and step >= cfg.sticky_from_step

    def sdc_site(
        self,
        values: np.ndarray,
        pe: int,
        step: int = 0,
        salt: int = 0,
        attempt: int = 0,
    ) -> Tuple[int, int]:
        """Pick the (word, bit) an SDC flip strikes in ``values``.

        The word is drawn among entries within three decades of the
        array's peak magnitude and the bit among the exponent/sign bits
        (52..63), so the induced error is at least half the entry's
        magnitude — orders of magnitude above the ABFT rounding
        tolerance.  A flip below that tolerance is numerically
        indistinguishable from legitimate rounding, so the interesting
        (and detectable) fault model is exactly the high-order flips.
        ``salt`` separates the transient and sticky streams;
        ``attempt`` separates a sticky PE's re-corruption of its
        recovery recompute.
        """
        mags = np.abs(values)
        peak = float(mags.max()) if values.size else 0.0
        candidates = np.flatnonzero(mags >= peak / 1024.0)
        word_state, bit_state = _states(
            self.config.seed, _DOMAIN_SDC_SITE, step, pe, salt, attempt
        )
        word = int(candidates[int(word_state % np.uint64(len(candidates)))])
        # A zero word's sign bit is the one no-op flip (0.0 -> -0.0);
        # exclude it so every injected flip has a nonzero numeric
        # effect.  Any exponent-bit flip of a zero conjures a nonzero
        # value, so zero words stay in the fault model.
        span = 12 if values.reshape(-1)[word] != 0.0 else 11
        bit = 52 + int(bit_state % np.uint64(span))
        return word, bit

    def flip_sdc(
        self,
        array: np.ndarray,
        pe: int,
        step: int = 0,
        salt: int = 0,
        attempt: int = 0,
    ) -> Tuple[int, int, float, float]:
        """Flip one high-order bit of ``array`` in place.

        Returns ``(word, bit, old_value, new_value)`` for the blame
        log.
        """
        flat = array.reshape(-1)
        if flat.size == 0:
            return (0, 0, 0.0, 0.0)
        word, bit = self.sdc_site(flat, pe, step, salt, attempt)
        bits = flat.view(np.uint64)
        old = float(flat[word])
        bits[word] ^= np.uint64(1) << np.uint64(bit)
        return (word, bit, old, float(flat[word]))

    # -- communication-phase faults ---------------------------------------

    def block_fault(
        self, src: int, dst: int, step: int = 0, attempt: int = 0
    ) -> BlockFault:
        """Fate of one directed block transmission (per attempt)."""
        cfg = self.config
        if cfg.drop_rate <= 0 and cfg.bitflip_rate <= 0 and cfg.duplicate_rate <= 0:
            return BlockFault.NONE
        u = _uniform(cfg.seed, _DOMAIN_BLOCK, step, src, dst, attempt)
        if u < cfg.drop_rate:
            return BlockFault.DROP
        u -= cfg.drop_rate
        if u < cfg.bitflip_rate:
            return BlockFault.BITFLIP
        u -= cfg.bitflip_rate
        if u < cfg.duplicate_rate:
            return BlockFault.DUPLICATE
        return BlockFault.NONE

    def corrupt(
        self, payload: np.ndarray, src: int, dst: int, step: int = 0, attempt: int = 0
    ) -> Tuple[int, int]:
        """Flip one bit of ``payload`` in place; returns (word, bit).

        The payload must be a contiguous float64 array (an exchange
        buffer).  A single flipped bit is the classic undetected-link-
        error model, and is exactly what a per-block checksum exists to
        catch.
        """
        if payload.size == 0:
            return (0, 0)
        word_state, bit_state = _states(
            self.config.seed, _DOMAIN_CORRUPT, step, src, dst, attempt
        )
        word = int(word_state % np.uint64(payload.size))
        bit = int(bit_state % np.uint64(64))
        # Flat view so block payloads (ndofs, r) corrupt a single
        # element exactly like vector payloads do.
        bits = payload.reshape(-1).view(np.uint64)
        bits[word] ^= np.uint64(1) << np.uint64(bit)
        return (word, bit)

    def backoff_jitter(
        self, src: int, dst: int, step: int = 0, attempt: int = 0
    ) -> float:
        """Multiplicative jitter on one retry timeout, in [1 - a, 1 + a).

        ``a`` is ``config.backoff_jitter``.  The draw is keyed on
        (seed, step, src, dst, attempt) like every other decision, so
        the same failed attempt always stalls for the same simulated
        time — reliability tables stay reproducible — while distinct
        links/retries desynchronize instead of retrying in lock step.
        """
        amplitude = self.config.backoff_jitter
        if amplitude <= 0.0:
            return 1.0
        u = _uniform(self.config.seed, _DOMAIN_JITTER, step, src, dst, attempt)
        return 1.0 - amplitude + 2.0 * amplitude * u

    def transmission_outcome(
        self, src: int, dst: int, step: int = 0
    ) -> "TransmissionOutcome":
        """Replay the retry loop for one directed block *for timing only*.

        The executor runs the same per-attempt decision sequence against
        real payloads; the BSP simulator only needs the outcome counts
        to account for simulated time, so the two layers observe one
        consistent fault history for the same (seed, step, src, dst).
        """
        cfg = self.config
        drops = corruptions = 0
        for attempt in range(cfg.max_retries + 1):
            fault = self.block_fault(src, dst, step, attempt)
            if fault is BlockFault.DROP:
                drops += 1
                continue
            if fault is BlockFault.BITFLIP:
                corruptions += 1
                continue
            return TransmissionOutcome(
                attempts=attempt + 1,
                drops=drops,
                corruptions=corruptions,
                duplicates=int(fault is BlockFault.DUPLICATE),
                delivered=True,
            )
        return TransmissionOutcome(
            attempts=cfg.max_retries + 1,
            drops=drops,
            corruptions=corruptions,
            duplicates=0,
            delivered=False,
        )
