"""Tests for the scheduler registry (SCHEDULERS / make_scheduler)."""

import pytest

from repro.core.scheduling import (
    PAPER_ALGORITHMS,
    SCHEDULERS,
    default_sectors_per_cylinder,
    make_scheduler,
)
from repro.disk import DiskDevice, atlas_10k
from repro.mems import MEMSDevice


class TestRegistryContents:
    def test_names(self):
        assert SCHEDULERS.names() == [
            "FCFS",
            "SSTF_LBN",
            "C-LOOK",
            "SCAN",
            "SPTF",
            "ASPTF",
            "SXTF",
        ]

    def test_paper_algorithms_all_registered(self):
        for name in PAPER_ALGORITHMS:
            assert name in SCHEDULERS

    @pytest.mark.parametrize(
        "spelling", ["sptf", "SPTF", "s-p-t-f", "c_look", "C-LOOK", "sstf"]
    )
    def test_spelling_tolerance(self, spelling):
        device = MEMSDevice()
        scheduler = make_scheduler(spelling, device)
        assert scheduler.name in ("SPTF", "C-LOOK", "SSTF_LBN")

    def test_sstf_alias(self):
        assert SCHEDULERS.canonical_name("SSTF") == "SSTF_LBN"


class TestMakeScheduler:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("LIFO", MEMSDevice())

    def test_kwargs_forwarded(self):
        scheduler = make_scheduler("ASPTF", MEMSDevice(), age_weight=0.07)
        assert scheduler.age_weight == 0.07

    @pytest.mark.parametrize(
        "name, options",
        [
            ("ASPTF", {"age_wieght": 0.5}),
            ("SPTF", {"cache": False}),
            ("SPTF", {"prune": "never"}),
            ("ASPTF", {"prune": True}),
            ("C-LOOK", {"age_weight": 0.5}),
        ],
    )
    def test_unknown_option_names_key_and_policy(self, name, options):
        (key,) = options
        canonical = SCHEDULERS.canonical_name(name)
        with pytest.raises(ValueError, match=f"'{key}'.*'{canonical}'"):
            make_scheduler(name, MEMSDevice(), **options)

    def test_sectors_per_cylinder_ignored_by_other_policies(self):
        # Sweeps pass the SXTF constant to every policy.
        for name in SCHEDULERS.names():
            scheduler = make_scheduler(
                name, MEMSDevice(), sectors_per_cylinder=100
            )
            assert scheduler.name == name

    def test_config_holding_unknown_option_fails_at_build(self):
        from repro.sim.config import SimConfig

        config = SimConfig(scheduler_params={"prune": "never"})
        assert SimConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="'prune'.*'SPTF'"):
            config.build_scheduler(config.build_device())


class TestSXTFAutoGeometry:
    def test_mems_derives_from_geometry(self):
        device = MEMSDevice()
        scheduler = make_scheduler("SXTF", device)
        assert (
            scheduler._spc
            == device.geometry.sectors_per_cylinder
        )

    def test_disk_derives_from_cylinders(self):
        device = DiskDevice(atlas_10k())
        scheduler = make_scheduler("SXTF", device)
        expected = device.capacity_sectors // device.params.cylinders
        assert scheduler._spc == expected

    def test_explicit_override_wins(self):
        scheduler = make_scheduler(
            "SXTF", MEMSDevice(), sectors_per_cylinder=1234
        )
        assert scheduler._spc == 1234

    def test_default_sectors_per_cylinder_values(self):
        mems = MEMSDevice()
        assert (
            default_sectors_per_cylinder(mems)
            == mems.geometry.sectors_per_cylinder
        )
        disk = DiskDevice(atlas_10k())
        assert default_sectors_per_cylinder(disk) > 0

    def test_geometry_free_device_rejected(self):
        class Bare:
            pass

        with pytest.raises(ValueError):
            default_sectors_per_cylinder(Bare())
