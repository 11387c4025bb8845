"""Unit tests for smaller pieces: recorder semantics, scaling math, CLI."""

import pytest

from repro.arch import PAGE_SHIFT, PageSize
from repro.hw.config import xeon_gold_6138
from repro.kernel.kernel import Kernel
from repro.sim.simulator import tlb_accept_rates
from repro.translation.base import (
    MemorySubsystem,
    WalkRecorder,
    WalkResult,
    pwc_accept_rates,
)
from repro.translation.dmt import machine_reader
from repro.virt.hypervisor import Hypervisor

MB = 1 << 20
GB = 1 << 30


class TestWalkRecorder:
    def _memsys(self):
        return MemorySubsystem(xeon_gold_6138())

    def test_sequential_fetches_sum(self):
        rec = WalkRecorder(self._memsys())
        rec.fetch(0x1000, "a")
        rec.fetch(0x2000, "b")
        assert rec.finish() == 400  # two cold memory accesses

    def test_grouped_fetches_take_max(self):
        memsys = self._memsys()
        memsys.caches.warm(0x1000)  # one probe will be fast
        rec = WalkRecorder(memsys)
        rec.fetch_grouped(0x1000, "fast", group=1)
        rec.fetch_grouped(0x9000, "slow", group=1)
        assert rec.finish() == 200  # slowest member of the group

    def test_group_boundary_closes(self):
        rec = WalkRecorder(self._memsys())
        rec.fetch_grouped(0x1000, "a", group=1)
        rec.fetch_grouped(0x9000, "b", group=2)  # new group: sequential
        assert rec.finish() == 400

    def test_charge_adds_flat_cycles(self):
        rec = WalkRecorder(self._memsys())
        rec.charge(7)
        assert rec.finish() == 7

    def test_record_refs_off_skips_memrefs(self):
        memsys = MemorySubsystem(xeon_gold_6138(), record_refs=False)
        rec = WalkRecorder(memsys)
        rec.fetch(0x1000, "a")
        assert rec.refs == [] and rec.finish() == 200


class TestWalkResultSteps:
    def test_sequential_steps_collapse_groups(self):
        from repro.translation.base import MemRef
        refs = [
            MemRef(1, "a", 10, "L2", group=1),
            MemRef(2, "a", 10, "L2", group=1),
            MemRef(3, "b", 10, "L2"),
            MemRef(4, "c", 10, "L2", group=2),
        ]
        assert WalkResult(0, 0, refs).sequential_steps == 3


class TestScalingMath:
    def test_pwc_rates_match_reach_ratio(self):
        machine = xeon_gold_6138()
        rates = pwc_accept_rates(machine.pwc, 256 * MB, 128 * GB)
        # L4-level PWC (2 entries x 512 GB) hits at both scales: rate 1
        assert rates[0] == pytest.approx(1.0)
        # bottom level: 64 MB reach; paper hit 64M/128G, sim hit 64M/256M
        expected = (64 * MB / (128 * GB)) / (64 * MB / (256 * MB))
        assert rates[2] == pytest.approx(expected)
        assert all(0 < r <= 1 for r in rates)

    def test_tlb_rates_per_page_size(self):
        machine = xeon_gold_6138()
        rates = tlb_accept_rates(machine, 256 * MB, 128 * GB)
        assert rates[PageSize.SIZE_4K] < rates[PageSize.SIZE_2M] <= 1.0
        # 1 GB entries reach 1.5 TB: hit at both scales
        assert rates[PageSize.SIZE_1G] == pytest.approx(1.0)

    def test_no_thinning_at_paper_scale(self):
        machine = xeon_gold_6138()
        rates = pwc_accept_rates(machine.pwc, 128 * GB, 128 * GB)
        assert all(r == pytest.approx(1.0) for r in rates)

    @pytest.mark.parametrize("ws", [128 * GB, 128 * GB + 4096, 1 << 50])
    def test_rates_are_exactly_one_at_or_above_paper_scale(self, ws):
        """A working set at least the paper's is not thinned: every
        rate is exactly 1.0 (a PWC credit then stays at 0.0)."""
        machine = xeon_gold_6138()
        paper = 128 * GB
        assert pwc_accept_rates(machine.pwc, ws, paper) == [1.0, 1.0, 1.0]
        assert tlb_accept_rates(machine, ws, paper) == \
            {size: 1.0 for size in PageSize}
        memsys = MemorySubsystem(machine, ws_bytes=ws, paper_ws_bytes=paper)
        assert memsys.nested_pwc.batch_view().accept == 1.0
        for pwc in (memsys.pwc, memsys.guest_pwc):
            assert pwc.batch_view().accept == [1.0, 1.0, 1.0]


class TestMachineReader:
    def test_single_level_chain(self):
        host = Kernel(memory_bytes=128 * MB)
        vm = Hypervisor(host).create_vm(32 * MB)
        vm.guest_memory.write_word(0x5000, 0xCAFE)
        hpa = vm.gpa_to_hpa(0x5000)
        reader = machine_reader(host.memory, [vm])
        assert reader(hpa) == 0xCAFE

    def test_host_addresses_read_host_store(self):
        host = Kernel(memory_bytes=128 * MB)
        vm = Hypervisor(host).create_vm(32 * MB)
        host.memory.write_word(0x7000, 0xBEEF)
        reader = machine_reader(host.memory, [vm])
        assert reader(0x7000) == 0xBEEF

    def test_two_level_chain(self):
        from repro.virt.nested import NestedSetup
        host = Kernel(memory_bytes=256 * MB)
        nested = NestedSetup(host, 64 * MB, 32 * MB)
        nested.l2_vm.guest_memory.write_word(0x3000, 0x1234)
        l0pa = nested.l2pa_to_l0pa(0x3000)
        reader = machine_reader(host.memory, [nested.l1_vm, nested.l2_vm])
        assert reader(l0pa) == 0x1234


class TestCLI:
    def test_list_command(self, capsys):
        from repro.__main__ import main
        assert main(["list", "--scale", "4096"]) == 0
        out = capsys.readouterr().out
        assert "GUPS" in out and "pvdmt" in out

    def test_table1_command(self, capsys):
        from repro.__main__ import main
        assert main(["table1"]) == 0
        assert "Memcached" in capsys.readouterr().out

    def test_run_command(self, capsys):
        from repro.__main__ import main
        code = main(["run", "--workload", "GUPS", "--env", "native",
                     "--designs", "vanilla,dmt", "--nrefs", "2000",
                     "--scale", "8192"])
        assert code == 0
        out = capsys.readouterr().out
        assert "walk speedup" in out

    def test_run_rejects_unknown_design(self, capsys):
        from repro.__main__ import main
        code = main(["run", "--workload", "GUPS", "--env", "native",
                     "--designs", "wat", "--nrefs", "1000",
                     "--scale", "8192"])
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flags", [["--register-count", "0"],
                                       ["--nrefs", "0"]])
    def test_bad_config_flag_exits_2_with_one_error_line(
            self, capsys, tmp_path, command, flags):
        """A config SimConfig rejects ends like an unknown design: one
        ``error:`` line and exit 2, not a traceback."""
        from repro.__main__ import main
        grid = (["--workload", "GUPS"] if command == "run" else
                ["--workloads", "GUPS", "--out", str(tmp_path / "s.json")])
        code = main([command, *grid, "--nrefs", "1000", "--scale", "8192",
                     "--no-artifact-cache", *flags])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_run_exposes_levels_and_register_count(self, capsys):
        from repro.__main__ import main
        code = main(["run", "--workload", "GUPS", "--env", "native",
                     "--designs", "vanilla,dmt", "--nrefs", "1500",
                     "--scale", "8192", "--levels", "5",
                     "--register-count", "8"])
        assert code == 0
        assert "walk speedup" in capsys.readouterr().out

    def test_run_fails_on_an_error_cell(self, capsys):
        """An unknown workload makes the group an error cell: run
        prints the error and exits 1 (CI's sanitized run steps rely on
        a failing cell failing the command)."""
        from repro.__main__ import main
        code = main(["run", "--workload", "NoSuchWorkload", "--env",
                     "native", "--designs", "vanilla,dmt", "--nrefs",
                     "1500", "--scale", "8192"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown workload 'NoSuchWorkload'" in err

    def test_sanitized_run_leaves_the_sanitizer_off(self, capsys):
        """``--sanitize`` turns the process-wide checks on only around
        the sanitized simulation's work: a plain simulation after an
        in-process sanitized run is not sanitized."""
        from repro.__main__ import main
        from repro.analysis import sanitizer
        from repro.sim.machine import ENVIRONMENTS, SimConfig
        from repro.sim.walk_vec import unsupported_reason

        code = main(["run", "--workload", "GUPS", "--env", "virt",
                     "--designs", "vanilla,pvdmt", "--nrefs", "1500",
                     "--scale", "8192", "--sanitize"])
        assert code == 0, capsys.readouterr().err
        assert not sanitizer.active()
        sim = ENVIRONMENTS["native"]("GUPS", SimConfig(scale=8192,
                                                        nrefs=1500))
        assert unsupported_reason(sim.walker("vanilla")) is None
        assert not sanitizer.active()

    def test_run_trace_records_sweep_and_replay_spans(self, capsys,
                                                      tmp_path):
        import json

        from repro.__main__ import main
        trace = tmp_path / "run.jsonl"
        code = main(["run", "--workload", "GUPS", "--env", "native",
                     "--designs", "dmt", "--nrefs", "1500",
                     "--scale", "8192", "--trace", str(trace)])
        assert code == 0
        names = [json.loads(line)["name"]
                 for line in trace.read_text().splitlines()]
        assert names.count("sweep.run_group") == 1
        assert names.count("stage2.replay") == 2  # dmt and vanilla
        out = capsys.readouterr().out
        assert "dmt" in out and f"trace spans appended to {trace}" in out

    def test_sweep_command_writes_cell_telemetry(self, capsys, tmp_path):
        import json

        from repro.__main__ import main
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--env", "native", "--workloads", "GUPS",
                     "--designs", "vanilla,dmt", "--nrefs", "1500",
                     "--scale", "8192", "--workers", "1",
                     "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["meta"]["cells"] == 2
        by_design = {cell["design"]: cell for cell in document["cells"]}
        assert set(by_design) == {"vanilla", "dmt"}
        for cell in by_design.values():
            assert cell["walks"] > 0
            assert cell["replay_seconds"] > 0
            assert cell["walks_per_second"] > 0
            assert cell["peak_rss_kb"] > 0
        assert by_design["vanilla"]["walk_speedup"] == pytest.approx(1.0)

    def test_sweep_rejects_unknown_env(self, capsys):
        from repro.__main__ import main
        assert main(["sweep", "--env", "marsbase", "--workers", "1"]) == 2
