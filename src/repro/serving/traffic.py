"""Seeded open-loop traffic: arrival processes and tenant mixes.

The overload layer needs load it can reason about deterministically.
This module generates it: an **open-loop** arrival stream (arrivals
keep coming at the offered rate whether or not the server keeps up —
the regime where admission control matters) on the **simulated clock**,
drawn from a seeded :class:`random.Random` so the same
:class:`ArrivalSpec` always produces the byte-identical arrival list.

Two processes:

* ``poisson:<qps>`` — homogeneous Poisson arrivals at ``qps``
  (exponential inter-arrival times);
* ``burst:<qps>:<factor>:<period_s>`` — an on/off modulated Poisson
  process: during the first half of every ``period_s`` window the rate
  is ``qps * factor``, during the second half it is ``qps`` (generated
  by thinning a ``qps * factor`` stream, so it stays a well-defined
  non-homogeneous Poisson process).

Each arrival is attributed to a **tenant** drawn by weight; the tenant
fixes the job mix (run/bench/faults kinds over the paper workloads),
the priority class, the per-job deadline, and the tenant's token-bucket
rate share.  :data:`DEFAULT_TENANTS` models the classic three-class
serving split: latency-sensitive ``premium`` traffic, ``standard``
interactive traffic, and best-effort ``batch`` campaigns.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from repro.errors import ParameterError


@dataclass(frozen=True)
class TenantSpec:
    """One traffic class: weight, priority, deadline, rate share, mix.

    ``priority`` 0 is the highest (shed last); ``deadline_s`` is in
    simulated seconds (``None`` = best effort); ``rate_qps`` caps the
    tenant's admitted rate via a token bucket (``None`` = uncapped);
    ``mix`` is a weighted tuple of ``(kind, workload, weight)``.
    """

    name: str
    weight: float = 1.0
    priority: int = 1
    deadline_s: float | None = None
    rate_qps: float | None = None
    burst: int = 4
    mix: tuple = (("run", "Boot", 1.0),)

    def canonical(self) -> dict:
        return {"name": self.name, "weight": self.weight,
                "priority": self.priority, "deadline_s": self.deadline_s,
                "rate_qps": self.rate_qps, "burst": self.burst,
                "mix": [list(entry) for entry in self.mix]}


#: The default three-class tenant population.  Deadlines are sized
#: against the analytic model's per-job service times (tens of
#: simulated milliseconds for Boot/HELR on A100 + near-bank PIM).
DEFAULT_TENANTS = (
    TenantSpec(name="premium", weight=3.0, priority=0, deadline_s=0.25,
               rate_qps=None, mix=(("run", "Boot", 3.0),
                                   ("run", "HELR", 1.0))),
    TenantSpec(name="standard", weight=2.0, priority=1, deadline_s=1.0,
               rate_qps=None, mix=(("run", "Boot", 2.0),
                                   ("bench", "HELR", 1.0))),
    TenantSpec(name="batch", weight=1.0, priority=2, deadline_s=None,
               rate_qps=4.0, mix=(("bench", "HELR", 1.0),
                                  ("faults", "Boot", 1.0))),
)


def parse_tenants(text: str, base=DEFAULT_TENANTS) -> tuple:
    """Tenant tuple from a ``name:weight[,name:weight..]`` CLI string.

    Names must come from ``base`` (the attribute template — mix,
    priority, deadline — is data, not something to re-specify on a
    command line); the weight is overridden per entry.  Weight 0 drops
    the tenant from the population.
    """
    if not text:
        return tuple(base)
    known = {tenant.name: tenant for tenant in base}
    out = []
    for token in text.split(","):
        parts = token.split(":")
        if len(parts) != 2 or parts[0] not in known:
            raise ParameterError(
                f"tenant {token!r}: expected name:weight with name in "
                f"{sorted(known)}")
        try:
            weight = float(parts[1])
        except ValueError:
            raise ParameterError(
                f"tenant {token!r}: weight must be a number") from None
        if weight < 0:
            raise ParameterError(f"tenant {token!r}: weight must be >= 0")
        if weight > 0:
            base_tenant = known[parts[0]]
            out.append(TenantSpec(
                name=base_tenant.name, weight=weight,
                priority=base_tenant.priority,
                deadline_s=base_tenant.deadline_s,
                rate_qps=base_tenant.rate_qps, burst=base_tenant.burst,
                mix=base_tenant.mix))
    if not out:
        raise ParameterError("tenant list selects no tenants")
    return tuple(out)


@dataclass(frozen=True)
class ArrivalSpec:
    """One arrival process: shape, rate, duration, seed."""

    process: str                 # "poisson" | "burst"
    rate_qps: float
    duration_s: float
    burst_factor: float = 4.0
    burst_period_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # Every construction path lands here: a rate <= 0 would send
        # _arrival_times backwards forever, an infinite duration or
        # burst factor would never let it finish.
        if not (self.rate_qps > 0 and math.isfinite(self.rate_qps)):
            raise ParameterError(f"arrival rate must be positive and "
                                 f"finite, got {self.rate_qps!r} qps")
        if not (self.duration_s > 0 and math.isfinite(self.duration_s)):
            raise ParameterError(f"arrival duration must be > 0 seconds "
                                 f"and finite, got {self.duration_s!r}")
        if not (self.burst_factor >= 1 and math.isfinite(self.burst_factor)
                and self.burst_period_s > 0):
            raise ParameterError(
                f"burst factor must be >= 1 and finite and period > 0, "
                f"got {self.burst_factor!r} and {self.burst_period_s!r}")

    def canonical(self) -> dict:
        return {"process": self.process, "rate_qps": self.rate_qps,
                "duration_s": self.duration_s,
                "burst_factor": self.burst_factor,
                "burst_period_s": self.burst_period_s, "seed": self.seed}


def parse_arrival_spec(text: str, duration_s: float,
                       seed: int = 0) -> ArrivalSpec:
    """An :class:`ArrivalSpec` from the CLI's ``--arrivals`` token:
    ``poisson:<qps>`` or ``burst:<qps>[:<factor>[:<period_s>]]``."""
    parts = text.split(":")
    process = parts[0]
    if process not in ("poisson", "burst"):
        raise ParameterError(
            f"arrivals {text!r}: expected poisson:<qps> or "
            f"burst:<qps>[:<factor>[:<period_s>]]")
    try:
        rate = float(parts[1]) if len(parts) > 1 else float("nan")
        factor = float(parts[2]) if len(parts) > 2 else 4.0
        period = float(parts[3]) if len(parts) > 3 else 1.0
    except ValueError:
        raise ParameterError(
            f"arrivals {text!r}: rate/factor/period must be numbers"
        ) from None
    return ArrivalSpec(process=process, rate_qps=rate,
                       duration_s=duration_s, burst_factor=factor,
                       burst_period_s=period, seed=seed)


@dataclass(frozen=True)
class Arrival:
    """One offered job: when it arrives and what it asks for."""

    index: int
    t_s: float
    tenant: str
    kind: str                    # "run" | "bench" | "faults"
    workload: str
    priority: int
    deadline_s: float | None

    @property
    def key(self) -> str:
        return f"a{self.index}-{self.tenant}-{self.kind}:{self.workload}"


def _stream_rng(seed: int, stream: str) -> random.Random:
    """An independent deterministic generator per (seed, stream)."""
    material = f"anaheim-traffic/{seed}/{stream}".encode()
    return random.Random(
        int.from_bytes(hashlib.sha256(material).digest()[:8], "little"))


def _weighted_choice(rng: random.Random, items, weights) -> object:
    total = sum(weights)
    mark = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if mark < acc:
            return item
    return items[-1]


def _arrival_times(spec: ArrivalSpec, rng: random.Random) -> list:
    """Event times for the process, strictly inside ``duration_s``."""
    if spec.process == "poisson":
        times, t = [], 0.0
        while True:
            t += rng.expovariate(spec.rate_qps)
            if t >= spec.duration_s:
                return times
            times.append(t)
    # Burst: thin a max-rate stream down to the piecewise rate.
    max_rate = spec.rate_qps * spec.burst_factor
    times, t = [], 0.0
    while True:
        t += rng.expovariate(max_rate)
        if t >= spec.duration_s:
            return times
        in_burst = (t % spec.burst_period_s) < spec.burst_period_s / 2.0
        rate = max_rate if in_burst else spec.rate_qps
        if rng.random() < rate / max_rate:
            times.append(t)


def generate_arrivals(spec: ArrivalSpec,
                      tenants=DEFAULT_TENANTS) -> list:
    """The full arrival list — a pure function of ``(spec, tenants)``.

    Times, tenant attribution, and job selection draw from independent
    seeded streams, so changing the tenant population does not perturb
    the arrival *times* (campaigns stay comparable across mixes).
    """
    if not tenants:
        raise ParameterError("traffic needs at least one tenant")
    time_rng = _stream_rng(spec.seed, f"times/{spec.process}")
    tenant_rng = _stream_rng(spec.seed, "tenants")
    job_rng = _stream_rng(spec.seed, "jobs")
    weights = [tenant.weight for tenant in tenants]
    arrivals = []
    for index, t in enumerate(_arrival_times(spec, time_rng)):
        tenant = _weighted_choice(tenant_rng, tenants, weights)
        kind, workload, _ = _weighted_choice(
            job_rng, tenant.mix, [entry[2] for entry in tenant.mix])
        arrivals.append(Arrival(
            index=index, t_s=t, tenant=tenant.name, kind=kind,
            workload=workload, priority=tenant.priority,
            deadline_s=tenant.deadline_s))
    return arrivals


def capacity_qps(cost_model, tenants=DEFAULT_TENANTS,
                 mode: str = "pim") -> float:
    """The server's sustainable job rate for this tenant mix.

    The weighted mean service cost over every tenant's job mix (all on
    the analytic cost model's simulated clock) inverted into jobs per
    second — what "2x-capacity overload" is 2x *of*.
    """
    total_weight = 0.0
    total_cost = 0.0
    for tenant in tenants:
        mix_weight = sum(entry[2] for entry in tenant.mix)
        for kind, workload, weight in tenant.mix:
            share = tenant.weight * weight / mix_weight
            total_weight += share
            total_cost += share * cost_model.cost(kind, workload, mode)
    mean_cost = total_cost / total_weight
    return 1.0 / mean_cost
