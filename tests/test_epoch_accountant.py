"""The array-backed accountant keeps the dict accountant's every answer.

``DictEpochAccountant`` is the serving accountant as it was when spend
lived in per-``(layer, vertex)`` dicts, kept verbatim (renamed) as the
reference. The live :class:`~repro.privacy.epoch.EpochAccountant` holds
dense per-layer arrays with running maxima; driven by the same scripts of
charges and rotations — repeated vertices within one charge, allowance
refusals, two layers — it must report the same spends, maxima, counts,
peaks and refusals, and a refused charge must change nothing.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError, PrivacyError
from repro.graph.bipartite import Layer
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.epoch import EpochAccountant, EpochCharge

_TOLERANCE = 1e-9


class DictEpochAccountant:
    """Tracks per-vertex privacy spend within and across serving epochs.

    Parameters
    ----------
    epsilon_per_epoch:
        Optional per-vertex allowance for one epoch. ``None`` (default)
        records without enforcing — the sketch-mode cache legitimately
        recharges a vertex when a *new* pair involving it arrives, and the
        accountant then reports the accumulated loss honestly instead of
        refusing to serve.
    """

    def __init__(self, epsilon_per_epoch: float | None = None):
        if epsilon_per_epoch is not None and epsilon_per_epoch <= 0:
            raise PrivacyError(
                f"epsilon_per_epoch must be positive, got {epsilon_per_epoch}"
            )
        self.epsilon_per_epoch = epsilon_per_epoch
        self.epoch = 0
        self.rounds: list[EpochCharge] = []  # current epoch only (see rotate)
        self.rounds_completed = 0  # rounds of already-closed epochs
        self._round_counter = 0
        self._epoch_spend: dict[tuple[str, int], float] = defaultdict(float)
        self._lifetime_spend: dict[tuple[str, int], float] = defaultdict(float)
        self._epoch_peaks: list[float] = []

    # ------------------------------------------------------------------
    def charge_vertices(
        self,
        layer: Layer,
        vertices,
        epsilon: float,
        mechanism: str = "unknown",
        stage: str = "",
        *,
        ledger: PrivacyLedger | None = None,
    ) -> str | None:
        """Charge every listed vertex ``epsilon`` for the current epoch.

        Parameters
        ----------
        layer:
            The layer the vertices live on (spend is keyed per
            ``(layer, vertex)``).
        vertices:
            Vertex ids (scalar or array-like); each is charged the full
            ``epsilon``. An empty list is a no-op.
        epsilon:
            Per-vertex charge for this round; ``0`` is a recorded no-op.
        mechanism, stage:
            Labels carried into the round log and the ledger entry.
        ledger:
            Optional :class:`PrivacyLedger` that receives one aggregated
            ``charge_parallel`` entry for the round — the cache-miss
            accounting path: cache hits never reach this method, so they
            are free by construction.

        Returns
        -------
        str | None
            The epoch-scoped ledger party label, or ``None`` when the
            charge was empty (no vertices, or zero epsilon).

        Raises
        ------
        PrivacyError
            If ``epsilon`` is negative.
        BudgetExceededError
            When ``epsilon_per_epoch`` is set and the charge would push
            any listed vertex past its allowance for the current epoch.
            Nothing is recorded in that case — callers rely on charges
            being all-or-nothing to keep cache state and spend in sync.
        """
        if epsilon < 0:
            raise PrivacyError(f"cannot charge negative epsilon {epsilon}")
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        if vertices.size == 0 or epsilon == 0:
            return None
        keys = [(layer.value, int(v)) for v in vertices]
        if self.epsilon_per_epoch is not None:
            for key in keys:
                spent = self._epoch_spend[key]
                if epsilon > self.epsilon_per_epoch - spent + _TOLERANCE:
                    raise BudgetExceededError(
                        f"epoch[{self.epoch}]:{key[0]}:{key[1]}",
                        epsilon,
                        max(self.epsilon_per_epoch - spent, 0.0),
                    )
        for key in keys:
            self._epoch_spend[key] += epsilon
            self._lifetime_spend[key] += epsilon
        stage_label = stage or mechanism
        party = (
            f"epoch[{self.epoch}]:{layer.value}:"
            f"{stage_label}[{vertices.size}v]#{self._round_counter}"
        )
        self._round_counter += 1
        charge = EpochCharge(
            epoch=self.epoch,
            party=party,
            count=int(vertices.size),
            epsilon=float(epsilon),
            mechanism=mechanism,
            stage=stage_label,
        )
        self.rounds.append(charge)
        if ledger is not None:
            ledger.charge_parallel(
                party, epsilon, mechanism, stage_label, count=int(vertices.size)
            )
        return party

    # ------------------------------------------------------------------
    def epoch_spent(self, layer: Layer, vertex: int) -> float:
        """``vertex``'s spend within the current epoch."""
        return self._epoch_spend.get((layer.value, int(vertex)), 0.0)

    def lifetime_spent(self, layer: Layer, vertex: int) -> float:
        """``vertex``'s spend across all epochs so far."""
        return self._lifetime_spend.get((layer.value, int(vertex)), 0.0)

    def max_epoch_spent(self) -> float:
        """The worst per-vertex spend of the current epoch."""
        return max(self._epoch_spend.values(), default=0.0)

    def max_lifetime_spent(self) -> float:
        """The worst per-vertex spend across every epoch (the honest total)."""
        return max(self._lifetime_spend.values(), default=0.0)

    def charged_vertices(self) -> int:
        """Distinct vertices charged during the current epoch."""
        return sum(1 for spend in self._epoch_spend.values() if spend > 0)

    def epoch_peaks(self) -> list[float]:
        """Closed epochs' worst per-vertex spends, in rotation order."""
        return list(self._epoch_peaks)

    # ------------------------------------------------------------------
    def rotate(self) -> int:
        """Close the current epoch and return the new epoch id.

        Per-epoch spends reset (the next view drawn for any vertex is a
        fresh release and recharges it); lifetime spends persist. The
        closed epoch's round log is compacted to a counter so a
        long-lived server's memory stays bounded by one epoch of rounds
        (the mirrored :class:`PrivacyLedger`, if any, remains the
        append-only audit log — hand the server a fresh one per epoch if
        that matters).
        """
        self._epoch_peaks.append(self.max_epoch_spent())
        self._epoch_spend.clear()
        self.rounds_completed += len(self.rounds)
        self.rounds.clear()
        self.epoch += 1
        return self.epoch

    def __repr__(self) -> str:
        return (
            f"DictEpochAccountant(epoch={self.epoch}, "
            f"max_epoch={self.max_epoch_spent():.4g}, "
            f"max_lifetime={self.max_lifetime_spent():.4g})"
        )



VERTICES = range(0, 70)


def observe(acct) -> dict:
    return {
        "epoch": acct.epoch,
        "spent": [
            (acct.epoch_spent(layer, v), acct.lifetime_spent(layer, v))
            for layer in Layer
            for v in VERTICES
        ],
        "max_epoch": acct.max_epoch_spent(),
        "max_lifetime": acct.max_lifetime_spent(),
        "charged": acct.charged_vertices(),
        "peaks": acct.epoch_peaks(),
        "rounds": list(acct.rounds),
        "rounds_completed": acct.rounds_completed,
    }


charges = st.tuples(
    st.just("charge"),
    st.sampled_from(list(Layer)),
    st.lists(
        st.one_of(st.integers(0, 6), st.integers(0, VERTICES.stop - 1)),
        max_size=8,
    ),
    st.sampled_from((0.0, 0.25, 0.3, 0.5, 1.0, 1.5)),
)
scripts = st.lists(st.one_of(charges, st.just(("rotate",))), max_size=40)


@settings(max_examples=150, deadline=None)
@given(script=scripts, allowance=st.sampled_from((None, 1.0, 1.6)))
def test_arrays_match_dicts(script, allowance):
    live, ref = EpochAccountant(allowance), DictEpochAccountant(allowance)
    live_ledger, ref_ledger = PrivacyLedger(), PrivacyLedger()
    for op in script:
        if op[0] == "rotate":
            assert live.rotate() == ref.rotate()
        else:
            _, layer, vertices, epsilon = op
            before = observe(live)
            try:
                expected = ref.charge_vertices(
                    layer, vertices, epsilon, "rr", "tick", ledger=ref_ledger
                )
            except BudgetExceededError as refused:
                with pytest.raises(BudgetExceededError) as got:
                    live.charge_vertices(
                        layer, vertices, epsilon, "rr", "tick", ledger=live_ledger
                    )
                assert str(got.value) == str(refused)
                assert got.value.party == refused.party
                assert observe(live) == before
            else:
                assert live.charge_vertices(
                    layer, vertices, epsilon, "rr", "tick", ledger=live_ledger
                ) == expected
        assert observe(live) == observe(ref)
    assert live_ledger.charges == ref_ledger.charges
    assert repr(live) == repr(ref).replace("DictEpochAccountant", "EpochAccountant")


def test_repeated_vertex_pays_per_occurrence():
    acct = EpochAccountant()
    acct.charge_vertices(Layer.UPPER, [3, 3, 5], 0.5)
    assert acct.epoch_spent(Layer.UPPER, 3) == 1.0
    assert acct.epoch_spent(Layer.UPPER, 5) == 0.5
    assert acct.max_epoch_spent() == 1.0
    assert acct.charged_vertices() == 2


def test_negative_vertex_id_is_refused():
    acct = EpochAccountant(1.0)
    acct.charge_vertices(Layer.LOWER, [2], 0.5)
    before = observe(acct)
    with pytest.raises(PrivacyError, match="negative vertex id -1"):
        acct.charge_vertices(Layer.LOWER, np.array([4, -1]), 0.25)
    assert observe(acct) == before
    assert acct.epoch_spent(Layer.LOWER, -1) == 0.0
