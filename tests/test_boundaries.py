"""Boundary-condition tests across the stack."""

import pytest

from repro.beffio import BeffIOConfig, run_beffio
from repro.mpi import World
from repro.net import Fabric, NetParams
from repro.pfs import FileSystem, PFSConfig
from repro.sim import Simulator
from repro.topology import Crossbar, Torus
from repro.util import KB, MB


def env_factory(nprocs):
    def make():
        sim = Simulator()
        fabric = Fabric(sim, Torus((nprocs,), link_bw=500 * MB), NetParams())
        world = World(fabric)
        fs = FileSystem(sim, PFSConfig(
            num_servers=2, stripe_unit=64 * KB, disk_bw=50 * MB,
            ingest_bw=400 * MB, seek_time=2e-3, request_overhead=1e-4,
            disk_block=4 * KB, cache_bytes=64 * MB, client_bw=200 * MB,
            server_net_bw=200 * MB, call_overhead=3e-5,
        ))
        return world, fs

    return make


class TestSingleProcess:
    def test_beffio_runs_on_one_process(self):
        # every collective degenerates to a no-op; the benchmark must
        # still produce a value (a workstation-with-a-disk scenario)
        res = run_beffio(env_factory(1), 256 * MB, BeffIOConfig(T=0.8))
        assert res.nprocs == 1
        assert res.b_eff_io > 0
        assert len({t.pattern_type for t in res.type_results}) == 5

    def test_single_process_world_collectives(self):
        sim = Simulator()
        fabric = Fabric(sim, Torus((1,), link_bw=MB), NetParams())
        world = World(fabric)
        got = []

        def program(comm):
            yield from comm.barrier()
            v = yield from comm.allreduce(8, 42, max)
            g = yield from comm.gather(root=0, nbytes=8, value="x")
            b = yield from comm.bcast(root=0, nbytes=8, data="y")
            got.append((v, g, b))

        world.run(program)
        assert got == [(42, ["x"], "y")]


class TestTinyResources:
    def test_one_server_one_byte_stripe(self):
        sim = Simulator()
        fs = FileSystem(sim, PFSConfig(
            num_servers=1, stripe_unit=1, disk_bw=100.0, ingest_bw=1000.0,
            seek_time=0.0, request_overhead=0.0, disk_block=1,
            cache_bytes=1000, client_bw=1000.0, server_net_bw=1000.0,
            call_overhead=0.0,
        ))
        f = fs.open("tiny")
        from repro.sim import Process

        done = []

        def prog():
            n = yield from fs.write(0, f, 0, 10)
            done.append(n)

        Process(sim, prog())
        sim.run_to_completion()
        assert done == [10]

    def test_zero_byte_file_operations(self):
        world, fs = env_factory(2)()
        from repro.mpiio import IOFile

        f = IOFile(world.comm_world, fs, "empty")

        def program(comm):
            n = yield from f.write(comm.rank, 0)
            m = yield from f.read(comm.rank, 0)
            yield from f.close(comm.rank)
            return n + m

        assert world.run(program) == [0, 0]
        assert f.pfsfile.size == 0

    def test_two_proc_crossbar_minimal(self):
        sim = Simulator()
        fabric = Fabric(sim, Crossbar(2, port_bw=MB), NetParams(copy_bw=MB))
        world = World(fabric)

        def program(comm):
            other = 1 - comm.rank
            status = yield from comm.sendrecv(other, 1, other)
            return status.nbytes

        assert world.run(program) == [1, 1]


class TestOversizeRequests:
    def test_write_far_beyond_cache(self):
        world, fs = env_factory(2)()
        from repro.mpiio import IOFile

        f = IOFile(world.comm_world, fs, "big", sync_drains=True)

        def program(comm):
            if comm.rank == 0:
                yield from f.write(0, 200 * MB)  # 3x the 64 MB cache
            yield from f.sync(comm.rank)

        world.run(program)
        assert fs.total_dirty == 0
        assert fs.bytes_to_disk >= 200 * MB - 64 * MB


class TestExecutorFlagBounds:
    """Invalid executor flags are usage errors on every CLI: exit 2 with
    one ``error:`` line, never a traceback, and nothing runs."""

    CLIS = {
        "repro": ["sweep-grid", "--machines", "t3e", "--benchmarks", "b_eff",
                  "--partitions", "2"],
        "repro-beff": ["--machine", "t3e", "--partitions", "2",
                       "--backend", "analytic"],
        "repro-beffio": ["--machine", "t3e", "--partitions", "2", "--T", "0.5",
                         "--types", "0"],
    }

    @pytest.mark.parametrize("cli", sorted(CLIS))
    @pytest.mark.parametrize("flags, reason", [
        (["--max-failures", "0"], "max_failures"),
        (["--deadline", "0"], "deadline_s"),
        (["--heartbeat-timeout", "0.01"], "heartbeat_timeout_s"),
        (["--jobs", "0"], "jobs"),
        (["--retries", "-1"], "retries"),
        (["--backoff", "-1"], "backoff"),
    ])
    def test_rejected_with_exit_2(self, cli, flags, reason, capsys):
        from repro.cli import main_beff, main_beffio, main_repro

        main = {"repro": main_repro, "repro-beff": main_beff,
                "repro-beffio": main_beffio}[cli]
        with pytest.raises(SystemExit) as exit_info:
            main(self.CLIS[cli] + flags)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and reason in errors[0]
        assert "Traceback" not in captured.err
