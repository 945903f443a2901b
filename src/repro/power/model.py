"""The component power model — Eq. 1 and Eq. 2 of the paper.

    Power(Cᵢ)  = AccessRate(Cᵢ) × ArchitecturalScaling(Cᵢ) × MaxPower   (1)
    TotalPower = Σᵢ Power(Cᵢ) + IdlePower                               (2)

``MaxPower`` is the published thermal design power; multiprocessor power is
the per-processor total summed over processors.  Access rates come from
hardware counters — which in this reproduction come from the machine
model, so the whole chain Eq. 1 needs is exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..machine import counters as C
from .components import ITANIUM2_COMPONENTS

#: Itanium 2 Madison published TDP (watts).
ITANIUM2_TDP_W = 130.0
#: Idle (static + leakage) power per processor (watts).
ITANIUM2_IDLE_W = 25.0


@dataclass(frozen=True)
class PowerEstimate:
    """Power/energy outcome for one processor (or one aggregate)."""

    watts: float
    seconds: float
    component_watts: dict[str, float] = field(default_factory=dict)

    @property
    def joules(self) -> float:
        return self.watts * self.seconds

    def flops_per_joule(self, flops: float) -> float:
        j = self.joules
        return flops / j if j > 0 else 0.0


class PowerModel:
    """Counter-driven component power model (Eqs. 1–2)."""

    #: The components Eq. 1 sums over.
    components = ITANIUM2_COMPONENTS
    #: Dynamic budget distributed over components (TDP minus idle).
    dynamic_budget_w = ITANIUM2_TDP_W - ITANIUM2_IDLE_W

    # -- Eq. 1 / Eq. 2 over a plain counter mapping ----------------------
    def component_power(self, counters: Mapping[str, float]) -> dict[str, float]:
        """Eq. 1 for every component."""
        return {
            c.name: c.access_rate(counters)
            * c.architectural_scaling
            * self.dynamic_budget_w
            for c in self.components
        }

    def processor_power(self, counters: Mapping[str, float]) -> PowerEstimate:
        """Eq. 2: total processor power from one counter set."""
        per_component = self.component_power(counters)
        watts = sum(per_component.values()) + ITANIUM2_IDLE_W
        seconds = counters.get(C.TIME, 0.0) / 1e6
        return PowerEstimate(watts, seconds, per_component)
