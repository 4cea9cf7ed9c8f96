import math

import pytest

from viscowave.config import ConfigError, ScenarioConfig, load, loads


def make_text(**overrides):
    cfg = ScenarioConfig(**overrides)
    return cfg.to_ini()


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = ScenarioConfig()
        assert loads(cfg.to_ini()) == cfg

    def test_awkward_floats_round_trip(self):
        cfg = ScenarioConfig(amplitude=0.1 + 1e-16, t_end=1.0 / 3.0,
                             mu0=math.pi, dt=0.001234567890123456)
        assert loads(cfg.to_ini()) == cfg

    def test_content_hash_stable(self):
        cfg = ScenarioConfig(amplitude=0.25)
        assert cfg.content_hash() == loads(cfg.to_ini()).content_hash()

    def test_hash_distinguishes_configs(self):
        a = ScenarioConfig(amplitude=0.25)
        b = ScenarioConfig(amplitude=0.26)
        assert a.content_hash() != b.content_hash()

    def test_pi_literals(self):
        cfg = loads("[grid]\nextent = pi\n")
        assert cfg.extent == math.pi
        assert loads("[grid]\nextent = 2pi\n").extent == 2 * math.pi
        assert loads("[grid]\nextent = pi/2\n").extent == math.pi / 2

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(ScenarioConfig(n=123).to_ini())
        assert load(path).n == 123


class TestValidation:
    def test_minimal_config_loads(self):
        text = ("[grid]\nn = 100\n[kernel]\nfamily = exponential\n"
                "[dynamics]\nm = 1\np = 3\n[time]\nt_end = 5\n")
        cfg = loads(text)
        assert cfg.n == 100 and cfg.t_end == 5.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            loads("[grid]\nnn = 100\n")
        assert "nn" in str(exc.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            loads("[gridd]\nn = 100\n")

    def test_m_below_one_rejected(self):
        with pytest.raises(ConfigError) as exc:
            loads("[dynamics]\nm = 0.5\n")
        assert "m" in str(exc.value)

    def test_dim3_growth_bound(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(p=5.5, m=1.0, dim3_semantics=True).validate()
        assert "p(m+1)/m" in str(exc.value)

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(m=0.5, p=0.5, cfl_safety=2.0, stride=0).validate()
        assert len(exc.value.problems) >= 4

    def test_invalid_grid_with_explicit_dt_reports_everything(self):
        # the stability check cannot build the grid; it is skipped, and the
        # other problems are still collected into the same error
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(n=2, extent=-1.0, dt=1e-3, m=0.5, c=-1.0).validate()
        problems = exc.value.problems
        assert len(problems) == 4
        for fragment in ("interior nodes", "extents", "dynamics.m", "kernel.c"):
            assert any(fragment in text for text in problems)

    def test_dt_above_stability_bound_rejected(self):
        cfg = ScenarioConfig()
        bound = cfg.resolved_dt(cfg.make_grid(), cfg.make_kernel())
        with pytest.raises(ConfigError):
            ScenarioConfig(dt=2.0 * bound).validate()
        ScenarioConfig(dt=0.5 * bound).validate()

    def test_bump_needs_support(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(profile="bump", support_T0=0.0).validate()


class TestResolution:
    def test_auto_dt_is_cfl_bound(self):
        cfg = ScenarioConfig()
        grid, kernel = cfg.make_grid(), cfg.make_kernel()
        dt = cfg.resolved_dt(grid, kernel)
        assert dt == pytest.approx(0.5 * grid.h[0] / math.sqrt(2.0))

    def test_explicit_dt_wins(self):
        cfg = ScenarioConfig(dt=1e-3)
        assert cfg.resolved_dt(cfg.make_grid(), cfg.make_kernel()) == 1e-3

    def test_exponential_s_cap_compact(self):
        cfg = ScenarioConfig(t_end=10.0)
        # zero extension with T0 = 0: nothing beyond lag t_end contributes
        assert cfg.resolved_s_cap(cfg.make_kernel()) == 10.0

    def test_exponential_s_cap_frozen(self):
        cfg = ScenarioConfig(t_end=10.0, extension="frozen", c=2.0)
        assert cfg.resolved_s_cap(cfg.make_kernel()) == 25.0

    def test_polynomial_s_cap_capped(self):
        cfg = ScenarioConfig(kernel_family="polynomial", r=1.5,
                             extension="frozen", t_end=10.0)
        cap = cfg.resolved_s_cap(cfg.make_kernel())
        assert cap == 100.0 * cfg.t_end

    def test_explicit_s_cap_wins(self):
        cfg = ScenarioConfig(s_cap=7.0)
        assert cfg.resolved_s_cap(cfg.make_kernel()) == 7.0

    def test_auto_sentinels_serialized(self):
        text = ScenarioConfig().to_ini()
        assert "dt = auto" in text
        assert "s_cap = auto" in text
