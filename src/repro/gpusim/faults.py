"""The deterministic GPU fault model (the chaos layer's ground truth).

Real GPU ACO deployments are dominated not by the search but by the
engineering around device hazards: device-side allocation limits, failed
or corrupted transfers, driver-level launch failures and hung kernels
(Cecilia et al.'s GPU ACO study and Skinderowicz's GPU MAX-MIN Ant System
both report exactly these). This module models that hazard surface for the
simulated device so the rest of the stack — watchdog, retry ladder,
checkpointed recovery — can be exercised and *proven* against it.

Everything is seed-driven and deterministic: a :class:`FaultPlan` is a pure
function from a *fault site* (region, pass, attempt, fault class) to a
uniform draw in [0, 1), realized by hashing the chaos seed with the site
identity (the same derivation discipline as :mod:`repro.suite.rng`). The
same chaos seed therefore injects the same faults at the same sites on
every run, which is what makes chaos runs replayable and the chaos-sweep
CI job meaningful. A fault fires when its site draw falls below the
class's configured rate.

:class:`FaultyDevice` wraps a :class:`~repro.gpusim.device.GPUDevice` with
a plan and exposes the injection points the parallel scheduler calls:

========================  ===================================================
``check_launch``          raises :class:`~repro.errors.KernelLaunchError`
``check_preallocation``   raises :class:`~repro.errors.DeviceOOMError`
``transfer_corrupted``    silent — detection happens at copy-back, where the
                          integrity check raises
                          :class:`~repro.errors.CorruptionDetected`
``hang_iteration``        returns the iteration at which the kernel hangs
                          (the watchdog raises
                          :class:`~repro.errors.DeviceHangError`)
========================  ===================================================

Faults are injected, detected, and surfaced as typed exceptions — never as
silently wrong results: a corrupted transfer is *detected* (checksum
compare), a hang is *detected* (watchdog heartbeat), and the launch/OOM
failures are immediate API errors, exactly like their real counterparts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import ConfigError, DeviceOOMError, KernelLaunchError
from .device import GPUDevice

#: The canonical fault taxonomy, in ladder-report order.
FAULT_CLASSES: Tuple[str, ...] = ("launch", "corruption", "hang", "oom")

#: Worker-level fault classes of the fleet shard layer (repro.fleet): a
#: whole simulated worker dying, wedging, or returning a corrupt shard
#: result. Sites are keyed by (worker, dispatch) instead of (region, pass,
#: attempt) — the hazard lives in the worker process, not in the region.
WORKER_FAULT_CLASSES: Tuple[str, ...] = (
    "worker_crash", "worker_hang", "worker_corrupt",
)

#: Default per-site rates used when a chaos seed is given without explicit
#: rates (the CLI's bare ``--chaos SEED``). Chosen so a small chaos sweep
#: (a few suite compiles) exercises every class at least once while most
#: regions still compile on the first attempt.
DEFAULT_CHAOS_RATES: Dict[str, float] = {
    "launch": 0.12,
    "corruption": 0.12,
    "hang": 0.12,
    "oom": 0.08,
}

#: Default per-dispatch rates for the fleet's worker chaos mix (the CLI's
#: bare ``--fleet-chaos SEED``). Low enough that a small fleet run mostly
#: succeeds first try, high enough that a sweep exercises every class.
DEFAULT_WORKER_CHAOS_RATES: Dict[str, float] = {
    "worker_crash": 0.10,
    "worker_hang": 0.10,
    "worker_corrupt": 0.10,
}

#: Simulated seconds a hung kernel burns before the watchdog declares it
#: dead (the heartbeat timeout). Charged to the attempt and to the
#: region's deadline budget.
DEFAULT_HANG_SECONDS = 2e-3


def _site_draw(seed: int, *identity) -> float:
    """Deterministic U[0,1) draw for one fault site.

    Hashes the chaos seed with the site identity, like
    :func:`repro.suite.rng.derive_seed` — independent of call order, so
    retries and reruns see stable decisions.
    """
    text = ":".join([str(seed)] + [str(part) for part in identity])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(2**64)


@dataclass(frozen=True)
class FaultPlan:
    """Seed-driven fault schedule: site -> does a fault fire here?

    ``rates`` maps fault-class names (:data:`FAULT_CLASSES`) to per-site
    probabilities; absent classes never fire. The plan itself holds no
    mutable state — every decision is recomputed from the seed, so the
    plan can be shared freely across schedulers and processes.
    """

    seed: int
    rates: Dict[str, float] = field(default_factory=dict)
    #: Simulated seconds a hang burns before the watchdog fires.
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self):
        known = FAULT_CLASSES + WORKER_FAULT_CLASSES
        for name, rate in self.rates.items():
            if name not in known:
                raise ConfigError(
                    "unknown fault class %r (choose from %s)"
                    % (name, ", ".join(known))
                )
            if not 0.0 <= rate <= 1.0:
                raise ConfigError("fault rate for %r must be in [0, 1]" % name)
        if self.hang_seconds <= 0.0:
            raise ConfigError("hang_seconds must be positive")

    @classmethod
    def from_seed(
        cls, seed: int, rates: Optional[Dict[str, float]] = None
    ) -> "FaultPlan":
        """A plan with the default chaos mix, or explicit ``rates``."""
        return cls(seed=seed, rates=dict(DEFAULT_CHAOS_RATES if rates is None else rates))

    def _fires(self, fault: str, *identity) -> bool:
        rate = self.rates.get(fault, 0.0)
        if rate <= 0.0:
            return False
        return _site_draw(self.seed, fault, *identity) < rate

    # -- injection decisions (all pure functions of the site) ---------------

    def launch_fails(self, region: str, pass_index: int, attempt: int) -> bool:
        return self._fires("launch", region, pass_index, attempt)

    def preallocation_fails(self, region: str, attempt: int) -> bool:
        return self._fires("oom", region, attempt)

    def transfer_corrupted(self, region: str, pass_index: int, attempt: int) -> bool:
        return self._fires("corruption", region, pass_index, attempt)

    def hang_iteration(
        self, region: str, pass_index: int, attempt: int
    ) -> Optional[int]:
        """Iteration index at which the kernel hangs, or None.

        Drawn in the first few iterations so an injected hang reliably
        fires before the search's own termination condition.
        """
        if not self._fires("hang", region, pass_index, attempt):
            return None
        draw = _site_draw(self.seed, "hang-iter", region, pass_index, attempt)
        return int(draw * 3)  # hang during iteration 0, 1 or 2

    # -- worker-level sites (fleet shard layer; see repro.fleet) ------------

    def worker_crashes(self, worker: int, dispatch: int) -> bool:
        """Whether the worker's process dies at this dispatch."""
        return self._fires("worker_crash", worker, dispatch)

    def worker_hangs(self, worker: int, dispatch: int) -> bool:
        """Whether the worker wedges (stops heartbeating) at this dispatch."""
        return self._fires("worker_hang", worker, dispatch)

    def worker_corrupts(self, worker: int, dispatch: int) -> bool:
        """Whether the shard result this dispatch returns is corrupted."""
        return self._fires("worker_corrupt", worker, dispatch)

    @classmethod
    def worker_plan(
        cls, seed: int, rates: Optional[Dict[str, float]] = None
    ) -> "FaultPlan":
        """A plan with the default worker chaos mix, or explicit ``rates``."""
        return cls(
            seed=seed,
            rates=dict(DEFAULT_WORKER_CHAOS_RATES if rates is None else rates),
        )


class FaultyDevice:
    """A :class:`GPUDevice` paired with a :class:`FaultPlan`.

    The scheduler calls the ``check_*`` hooks at the simulated hazard
    points; each either passes silently or raises the fault's typed
    exception. The wrapped geometry/cost model is reachable as ``device``
    (the fault layer never alters costs of *successful* operations, which
    is what keeps fault-free runs bit-identical).
    """

    def __init__(self, device: GPUDevice, plan: FaultPlan):
        self.device = device
        self.plan = plan

    def check_launch(self, region: str, pass_index: int, attempt: int) -> None:
        """Simulate the kernel-launch API call; raise on injected failure.

        A failed launch still costs its fixed overhead (the driver round
        trip happened), carried on the exception for budget accounting.
        """
        if self.plan.launch_fails(region, pass_index, attempt):
            raise KernelLaunchError(
                "injected launch failure: region %r pass %d attempt %d"
                % (region, pass_index, attempt),
                seconds=self.device.cost.launch_overhead,
            )

    def check_preallocation(
        self, region: str, attempt: int, requested_bytes: int = 0
    ) -> None:
        """Simulate the Section V-A preallocation; raise on injected OOM."""
        if self.plan.preallocation_fails(region, attempt):
            raise DeviceOOMError(
                "injected preallocation OOM: region %r attempt %d (%d bytes)"
                % (region, attempt, requested_bytes),
                seconds=0.0,
            )

    def transfer_corrupted(self, region: str, pass_index: int, attempt: int) -> bool:
        """Whether this site's host->device transfer is (silently) corrupted.

        Detection is the *caller's* job at copy-back: the integrity check
        compares checksums and raises
        :class:`~repro.errors.CorruptionDetected` — the fault itself does
        not raise, exactly like real bit corruption.
        """
        return self.plan.transfer_corrupted(region, pass_index, attempt)

    def hang_iteration(
        self, region: str, pass_index: int, attempt: int
    ) -> Optional[int]:
        return self.plan.hang_iteration(region, pass_index, attempt)
