"""Memory streams and the Cross-Iteration Dependency Prediction (CIDP).

A *stream* is one static load/store instruction inside a loop body together
with the data addresses it touched on the iterations the DSA observed.  Two
observations give the per-iteration address gap (``MGap``, eq. 4.5); the
CIDP equations (4.1-4.4) then predict whether any future load can alias a
store without watching every iteration:

    MRead[last] = MRead[2] + MGap * (last - 2)                  (4.4)
    CID   <=>  MWrite[2] in [MRead[3], MRead[last]]             (4.1, 4.2)
    NCID  <=>  otherwise                                        (4.3)

For partial vectorization the same arithmetic yields the *dependency
distance*: how many iterations ahead the store lands on a future read,
which bounds the safe chunk size (Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.dtypes import DType


@dataclass
class MemStream:
    """One static memory instruction observed across iterations."""

    pc: int
    is_write: bool
    dtype: DType
    samples: list[tuple[int, int]] = field(default_factory=list)  # (iteration, addr)
    #: memoized (sample_count, gap) — gap() is pure in the sample list, and
    #: the execution-phase address check calls it once per covered iteration
    _gap_cache: tuple[int, int | None] | None = field(
        default=None, repr=False, compare=False
    )

    def add_sample(self, iteration: int, addr: int) -> None:
        self.samples.append((iteration, addr))

    @property
    def first_addr(self) -> int:
        return self.samples[0][1]

    def gap(self) -> int | None:
        """Per-iteration address gap; None when irregular or unknown."""
        samples = self.samples
        n = len(samples)
        if n < 2:
            return None
        cache = self._gap_cache
        if cache is not None and 2 <= cache[0] <= n:
            cached_n, result = cache
            if cached_n == n:
                return result
            # extend incrementally: a None verdict is sticky (the offending
            # pair never leaves the list), and a known gap only survives if
            # every appended pair continues it exactly
            if result is not None:
                i1, a1 = samples[cached_n - 1]
                for idx in range(cached_n, n):
                    i2, a2 = samples[idx]
                    di = i2 - i1
                    if di <= 0 or (a2 - a1) != result * di:
                        result = None
                        break
                    i1, a1 = i2, a2
            self._gap_cache = (n, result)
            return result
        result: int | None
        gaps = set()
        result = None
        for (i1, a1), (i2, a2) in zip(samples, samples[1:]):
            di = i2 - i1
            if di <= 0 or (a2 - a1) % di:
                break
            gaps.add((a2 - a1) // di)
        else:
            if len(gaps) == 1:
                result = gaps.pop()
        self._gap_cache = (n, result)
        return result

    def addr_at(self, iteration: int) -> int | None:
        """Predicted address at ``iteration`` (eq. 4.4 generalised)."""
        g = self.gap()
        if g is None:
            return None
        i0, a0 = self.samples[0]
        return a0 + g * (iteration - i0)

    def contiguous(self) -> bool:
        """Unit-stride in elements — what the NEON unit can consume."""
        return self.gap() == self.dtype.size

    def invariant(self) -> bool:
        return self.gap() == 0


@dataclass(frozen=True)
class CIDVerdict:
    """Outcome of the prediction for one loop and iteration range."""

    dependent: bool
    #: smallest iteration distance at which a store meets a future read;
    #: None when independent.  A distance d means iterations [k, k+d) can
    #:  be executed as one vector chunk safely.
    distance: int | None = None
    #: which (write_pc, read_pc) produced the dependency
    culprit: tuple[int, int] | None = None


def predict_cid(
    streams: list[MemStream],
    last_iteration: int,
) -> CIDVerdict:
    """Run CIDP over every write/read stream pair (eqs. 4.1-4.5).

    ``last_iteration`` is the loop's final iteration index (the runtime
    range for count/dynamic loops, the speculative range for sentinels).
    """
    reads = [s for s in streams if not s.is_write]
    writes = [s for s in streams if s.is_write]
    best: CIDVerdict = CIDVerdict(dependent=False)

    for w in writes:
        w_gap = w.gap()
        for r in reads:
            r_gap = r.gap()
            if r_gap is None or w_gap is None:
                return CIDVerdict(dependent=True, distance=0, culprit=(w.pc, r.pc))
            verdict = _pair_cid(w, w_gap, r, r_gap, last_iteration)
            if verdict.dependent:
                if not best.dependent or (verdict.distance or 0) < (best.distance or 0):
                    best = verdict
    return best


def _pair_cid(
    w: MemStream, w_gap: int, r: MemStream, r_gap: int, last_iteration: int
) -> CIDVerdict:
    """CIDP for one write/read stream pair."""
    w_iter, w_addr = w.samples[0]
    r_iter, r_addr = r.samples[0]
    # normalise both streams to a common reference iteration
    r_at = lambda k: r_addr + r_gap * (k - r_iter)  # noqa: E731

    if r_gap == 0:
        # the read pins one address; any write stream that ever touches it
        # in a *different* iteration is a dependency
        if w_gap == 0:
            dep = w_addr == r_addr
            return CIDVerdict(dep, 1 if dep else None, (w.pc, r.pc) if dep else None)
        if w_gap != 0 and (r_addr - w_addr) % w_gap == 0:
            hit_iter = w_iter + (r_addr - w_addr) // w_gap
            if w_iter <= hit_iter <= last_iteration or hit_iter == w_iter:
                return CIDVerdict(True, max(1, abs(hit_iter - w_iter)), (w.pc, r.pc))
        return CIDVerdict(False)

    # eq. 4.2: is the write's address inside the read's *future* range?
    # solve r_at(k) == w_addr for k.  Only reads of iterations strictly
    # after the write matter: k == w_iter is the same-iteration RMW case
    # (out[i] = out[i] + ...), and k < w_iter is an anti-dependency that
    # vector execution preserves (all of a quad's loads precede its stores,
    # and earlier quads complete first).
    if (w_addr - r_addr) % r_gap:
        return CIDVerdict(False)  # never lands on a read address
    k = r_iter + (w_addr - r_addr) // r_gap
    lo, hi = (r_iter + 1, last_iteration) if r_gap > 0 else (last_iteration, r_iter + 1)
    if min(lo, hi) <= k <= max(lo, hi) and k > w_iter:
        return CIDVerdict(True, k - w_iter, (w.pc, r.pc))
    return CIDVerdict(False)


def safe_chunk(verdict: CIDVerdict, lanes: int) -> int | None:
    """Largest iteration chunk safely vectorizable under ``verdict``.

    Returns None when partial vectorization is not worthwhile (the chunk
    would be smaller than one vector).
    """
    if not verdict.dependent:
        return None  # fully vectorizable, no chunking needed
    if verdict.distance is None or verdict.distance <= lanes:
        return None
    # round down to whole vectors so every chunk fills the NEON unit
    return (verdict.distance // lanes) * lanes
