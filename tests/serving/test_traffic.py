"""Seeded open-loop traffic: determinism, parsing, capacity."""

import pytest

from repro.errors import ParameterError
from repro.serving.admission import CostModel
from repro.serving.soak import soak_cell
from repro.serving.traffic import (DEFAULT_TENANTS, ArrivalSpec,
                                   TenantSpec, capacity_qps,
                                   generate_arrivals, parse_arrival_spec,
                                   parse_tenants)

SPEC = ArrivalSpec(process="poisson", rate_qps=40.0, duration_s=2.0,
                   seed=7)


class TestParsing:
    def test_poisson_spec(self):
        spec = parse_arrival_spec("poisson:32", 1.5, seed=3)
        assert spec.process == "poisson"
        assert spec.rate_qps == 32.0
        assert spec.duration_s == 1.5
        assert spec.seed == 3

    def test_burst_spec_with_defaults(self):
        spec = parse_arrival_spec("burst:20", 1.0)
        assert (spec.burst_factor, spec.burst_period_s) == (4.0, 1.0)
        spec = parse_arrival_spec("burst:20:8:0.5", 1.0)
        assert (spec.burst_factor, spec.burst_period_s) == (8.0, 0.5)

    @pytest.mark.parametrize("text", ["poisson", "poisson:0", "drip:5",
                                      "poisson:abc", "burst:10:0.5"])
    def test_bad_specs_are_one_line_errors(self, text):
        with pytest.raises(ParameterError) as excinfo:
            parse_arrival_spec(text, 1.0)
        assert "\n" not in str(excinfo.value)

    def test_bad_duration(self):
        with pytest.raises(ParameterError, match="duration"):
            parse_arrival_spec("poisson:10", 0.0)

    def test_parse_tenants_reweights(self):
        tenants = parse_tenants("premium:5,batch:1")
        assert [t.name for t in tenants] == ["premium", "batch"]
        assert tenants[0].weight == 5.0
        # the attribute template comes from the base population
        assert tenants[0].deadline_s == DEFAULT_TENANTS[0].deadline_s

    def test_parse_tenants_zero_weight_drops(self):
        tenants = parse_tenants("premium:1,standard:0,batch:1")
        assert [t.name for t in tenants] == ["premium", "batch"]

    def test_parse_tenants_empty_returns_base(self):
        assert parse_tenants("") == tuple(DEFAULT_TENANTS)

    @pytest.mark.parametrize("text", ["nosuch:1", "premium", "premium:x",
                                      "premium:-1", "premium:0"])
    def test_bad_tenants_are_one_line_errors(self, text):
        with pytest.raises(ParameterError) as excinfo:
            parse_tenants(text)
        assert "\n" not in str(excinfo.value)


class TestSpecValidation:
    """Specs built directly, not through the parser, are checked too: a
    rate <= 0 would otherwise send the arrival loop backwards forever.
    The time limit turns a regression into a failure, not a hang."""

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("field,value", [
        ("rate_qps", -1.0), ("rate_qps", 0.0), ("rate_qps", float("nan")),
        ("rate_qps", float("inf")), ("duration_s", 0.0),
        ("duration_s", -2.0), ("duration_s", float("inf")),
        ("burst_factor", 0.5), ("burst_factor", float("inf")),
        ("burst_period_s", 0.0), ("burst_period_s", -1.0),
    ])
    @pytest.mark.parametrize("process", ["poisson", "burst"])
    def test_bad_field_is_one_line_error(self, process, field, value):
        fields = {"process": process, "rate_qps": 10.0, "duration_s": 1.0,
                  field: value}
        with pytest.raises(ParameterError) as excinfo:
            ArrivalSpec(**fields)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("load", [-1.0, 0.0, float("inf")])
    def test_soak_cell_rejects_bad_load(self, load):
        model = CostModel({"Boot": {"pim": 0.027, "gpu": 0.037},
                           "HELR": {"pim": 0.033, "gpu": 0.041}})
        with pytest.raises(ParameterError, match="arrival rate"):
            soak_cell(load, "none", model)


class TestGeneration:
    def test_same_spec_same_arrivals(self):
        first = generate_arrivals(SPEC)
        second = generate_arrivals(SPEC)
        assert first == second

    def test_seed_changes_the_stream(self):
        import dataclasses
        other = dataclasses.replace(SPEC, seed=8)
        assert generate_arrivals(SPEC) != generate_arrivals(other)

    def test_times_sorted_and_inside_duration(self):
        arrivals = generate_arrivals(SPEC)
        times = [a.t_s for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 < t < SPEC.duration_s for t in times)
        assert [a.index for a in arrivals] == list(range(len(arrivals)))

    def test_rate_is_roughly_honored(self):
        long_spec = ArrivalSpec(process="poisson", rate_qps=100.0,
                                duration_s=20.0, seed=0)
        count = len(generate_arrivals(long_spec))
        assert 0.85 * 2000 < count < 1.15 * 2000

    def test_burst_offers_more_than_base_rate(self):
        base = ArrivalSpec(process="poisson", rate_qps=30.0,
                           duration_s=10.0, seed=1)
        burst = ArrivalSpec(process="burst", rate_qps=30.0,
                            duration_s=10.0, burst_factor=4.0, seed=1)
        assert len(generate_arrivals(burst)) > len(generate_arrivals(base))

    def test_tenant_mix_does_not_perturb_times(self):
        """Independent streams: reweighting tenants keeps arrival times
        comparable across campaigns."""
        first = [a.t_s for a in generate_arrivals(SPEC, DEFAULT_TENANTS)]
        second = [a.t_s for a in generate_arrivals(
            SPEC, parse_tenants("premium:1"))]
        assert first == second

    def test_attributes_come_from_the_tenant(self):
        for arrival in generate_arrivals(SPEC):
            tenant = {t.name: t for t in DEFAULT_TENANTS}[arrival.tenant]
            assert arrival.priority == tenant.priority
            assert arrival.deadline_s == tenant.deadline_s
            assert (arrival.kind, arrival.workload) in [
                (kind, wl) for kind, wl, _ in tenant.mix]

    def test_no_tenants_rejected(self):
        with pytest.raises(ParameterError, match="tenant"):
            generate_arrivals(SPEC, ())


class TestCapacity:
    def test_capacity_is_inverse_mean_cost(self):
        model = CostModel({"Boot": {"pim": 0.1, "gpu": 0.2}})
        tenants = (TenantSpec(name="solo", mix=(("run", "Boot", 1.0),)),)
        assert capacity_qps(model, tenants) == pytest.approx(10.0)
        assert capacity_qps(model, tenants, mode="gpu") == \
            pytest.approx(5.0)

    def test_weights_shift_capacity(self):
        model = CostModel({"Fast": {"pim": 0.1, "gpu": 0.1},
                           "Slow": {"pim": 0.4, "gpu": 0.4}})
        fast = (TenantSpec(name="t", mix=(("run", "Fast", 3.0),
                                          ("run", "Slow", 1.0))),)
        slow = (TenantSpec(name="t", mix=(("run", "Fast", 1.0),
                                          ("run", "Slow", 3.0))),)
        assert capacity_qps(model, fast) > capacity_qps(model, slow)
