"""The command-line front ends: the toolchain (the lds wrapper surface)
and the host tools' argument handling."""

import io
import os
import subprocess
import sys

import pytest

import repro
from repro.disk import BlockDevice
from repro.tools.cli import (
    UsageError,
    ar_main,
    asm_main,
    lds_main,
    main,
    nm_main,
    objdump_main,
    reprochaos_main,
    reprofsck_main,
    repronet_main,
    reprorr_main,
    reprotrace_main,
    toycc_main,
)


@pytest.fixture
def workspace(kernel, shell, dirs):
    """Sources on the simulated FS, ready for the toolchain."""
    kernel.vfs.write_whole("/src/main.c", b"""
extern int shared_fn();
int main() { return shared_fn(); }
""")
    kernel.vfs.write_whole("/shared/lib/shared1.c", b"""
int shared_fn() { return 6; }
""")
    kernel.vfs.write_whole("/src/util.s", b"""
        .text
        .globl util_fn
util_fn:
        li v0, 3
        jr ra
""")
    return dirs


class TestCompilers:
    def test_toycc(self, kernel, shell, workspace):
        out = toycc_main(kernel, shell, ["-o", "/src/main.o",
                                         "/src/main.c"])
        assert out == "/src/main.o"
        assert kernel.vfs.exists("/src/main.o")

    def test_toycc_default_output(self, kernel, shell, workspace):
        out = toycc_main(kernel, shell, ["/src/main.c"])
        assert out == "/src/main.o"

    def test_as(self, kernel, shell, workspace):
        out = asm_main(kernel, shell, ["-o", "/src/util.o",
                                       "/src/util.s"])
        assert kernel.vfs.exists(out)

    def test_bad_option(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            toycc_main(kernel, shell, ["--frob", "/src/main.c"])

    def test_exactly_one_input(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            toycc_main(kernel, shell, ["/src/main.c", "/src/other.c"])


class TestLds:
    def _build(self, kernel, shell):
        toycc_main(kernel, shell, ["/src/main.c"])
        toycc_main(kernel, shell, ["-o", "/shared/lib/shared1.o",
                                   "/shared/lib/shared1.c"])

    def test_full_link_and_run(self, kernel, shell, workspace):
        self._build(kernel, shell)
        result = lds_main(kernel, shell, [
            "-o", "/bin/prog",
            "-L", "/shared/lib",
            "/src/main.o",
            "--dynamic-public", "shared1.o",
        ])
        proc = kernel.create_machine_process("p", result.executable)
        assert kernel.run_until_exit(proc) == 6

    def test_class_short_flags(self, kernel, shell, workspace):
        self._build(kernel, shell)
        result = lds_main(kernel, shell, [
            "-o", "/bin/prog", "-L", "/shared/lib",
            "/src/main.o", "-sp", "shared1.o",
        ])
        # static public: created at link time, refs resolved.
        assert kernel.vfs.exists("/shared/lib/shared1")
        assert result.retained_relocations == 0

    def test_entry_option(self, kernel, shell, workspace):
        self._build(kernel, shell)
        result = lds_main(kernel, shell, [
            "-o", "/bin/prog", "-L", "/shared/lib", "--no-crt0",
            "/src/main.o", "-dp", "shared1.o", "-e", "main",
        ])
        assert result.executable.entry_symbol == "main"

    def test_strict_flag(self, kernel, shell, workspace):
        self._build(kernel, shell)
        from repro.errors import ModuleNotFoundLinkError

        with pytest.raises(ModuleNotFoundLinkError):
            lds_main(kernel, shell, [
                "-o", "/bin/prog", "/src/main.o",
                "--strict", "-dp", "ghost.o",
            ])

    def test_archives(self, kernel, shell, workspace):
        asm_main(kernel, shell, ["/src/util.s"])
        ar_main(kernel, shell, ["/src/libutil.a", "/src/util.o"])
        kernel.vfs.write_whole("/src/uses_util.c", b"""
extern int util_fn();
int main() { return util_fn(); }
""")
        toycc_main(kernel, shell, ["/src/uses_util.c"])
        result = lds_main(kernel, shell, [
            "-o", "/bin/prog", "/src/uses_util.o",
            "-l", "/src/libutil.a",
        ])
        proc = kernel.create_machine_process("p", result.executable)
        assert kernel.run_until_exit(proc) == 3

    def test_no_inputs(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            lds_main(kernel, shell, ["-o", "/bin/prog"])

    def test_missing_value(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            lds_main(kernel, shell, ["/src/x.o", "-o"])

    def test_unknown_option(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            lds_main(kernel, shell, ["--wat", "/src/x.o"])


class TestInspectors:
    def test_nm(self, kernel, shell, workspace):
        toycc_main(kernel, shell, ["/src/main.c"])
        text = nm_main(kernel, shell, ["/src/main.o"])
        assert "T main" in text
        assert "U shared_fn" in text

    def test_objdump_disassembly(self, kernel, shell, workspace):
        asm_main(kernel, shell, ["/src/util.s"])
        text = objdump_main(kernel, shell, ["-d", "/src/util.o"])
        assert "jr ra" in text

    def test_nm_rejects_non_object(self, kernel, shell, workspace):
        from repro.errors import LinkError

        with pytest.raises(LinkError):
            nm_main(kernel, shell, ["/src/main.c"])

    def test_nm_usage(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            nm_main(kernel, shell, [])


class TestSegls:
    def test_lists_segments_with_addresses(self, kernel, shell, dirs):
        from repro.runtime.libshared import runtime_for
        from repro.tools.cli import segls_main

        runtime = runtime_for(kernel, shell)
        base = runtime.create_segment("/shared/lib/data1", 4096)
        runtime.create_segment("/shared/lib/data2", 8192)
        listing = segls_main(kernel, shell)
        assert "/shared/lib/data1" in listing
        assert "/shared/lib/data2" in listing
        assert f"0x{base:012x}" in listing

    def test_long_form_tags_modules(self, kernel, shell, workspace):
        from repro.tools.cli import segls_main

        toycc_main(kernel, shell, ["-o", "/shared/lib/shared1.o",
                                   "/shared/lib/shared1.c"])
        toycc_main(kernel, shell, ["/src/main.c"])
        lds_main(kernel, shell, [
            "-o", "/bin/prog", "-L", "/shared/lib",
            "/src/main.o", "-sp", "shared1.o",
        ])
        from repro.runtime.libshared import runtime_for

        runtime_for(kernel, shell).create_segment("/shared/plain", 4096)
        listing = segls_main(kernel, shell, ["-l"])
        module_lines = [l for l in listing.splitlines()
                        if "/shared1" in l and ".o" not in l]
        assert any("[module]" in l for l in module_lines)
        assert any("[data]" in l for l in listing.splitlines()
                   if "/plain" in l)


class TestHostUsageErrors:
    """Bad host-tool command lines raise a UsageError naming the tool,
    and reach the shell as one line on stderr with exit status 2."""

    @pytest.mark.parametrize("command", [
        "reprochaos --seed",
        "reprochaos --seed abc s.py",
        "reprorr seek --cycle x r.rrr",
        "repronet run --nodes two",
        "reprotrace --capacity 0 s.py",
        "repronet topo --nodes 0",
        "reprotrace --kinds BOGUS s.py",
        "reprorr record --kinds BOGUS s.py",
    ])
    def test_usage_error_names_the_tool(self, command, tmp_path,
                                        monkeypatch):
        mains = {"reprochaos": reprochaos_main, "repronet": repronet_main,
                 "reprorr": reprorr_main, "reprotrace": reprotrace_main}
        tool, *argv = command.split()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.py").write_text("")
        with pytest.raises(UsageError) as caught:
            mains[tool](argv)
        assert str(caught.value).startswith(tool)

    def test_options_after_the_script_reach_the_script(self, tmp_path):
        script = tmp_path / "argv.py"
        script.write_text("import sys\n"
                          "with open(sys.argv[0] + '.out', 'w') as f:\n"
                          "    f.write(' '.join(sys.argv[1:]))\n")
        reprotrace_main([str(script), "--top", "3", "-o", "x"],
                        stdout=io.StringIO())
        assert (tmp_path / "argv.py.out").read_text() == "--top 3 -o x"

    def test_console_script_name_picks_the_tool(self, capsys):
        assert main(["/usr/local/bin/reprofsck", "/no/such.img"]) == 2
        assert capsys.readouterr().err == \
            "reprofsck: no such image: /no/such.img\n"

    def test_entry_point_exits_2_with_one_line(self, tmp_path):
        (tmp_path / "s.py").write_text("")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.tools.cli", "reprochaos", "--seed", "abc", "s.py"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("reprochaos: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr


class TestReprofsck:
    @pytest.fixture
    def clean_image(self, tmp_path):
        device = BlockDevice(nblocks=2048)
        system = repro.boot(disk=device)
        system.vfs.write_whole("/shared/seg", b"payload")
        system.kernel.shutdown()
        path = str(tmp_path / "clean.hdsk")
        device.save(path)
        return path

    def test_clean_image(self, clean_image, capsys):
        assert reprofsck_main([clean_image]) == 0
        assert capsys.readouterr().out == f"{clean_image}: clean\n"

    def test_damaged_image(self, tmp_path, capsys):
        path = str(tmp_path / "blank.hdsk")
        BlockDevice(nblocks=64).save(path)  # never formatted
        assert reprofsck_main([path]) == 1
        assert "DSK001" in capsys.readouterr().out

    def test_verbose_prints_statistics(self, clean_image, capsys):
        assert reprofsck_main(["--verbose", clean_image]) == 0
        out = capsys.readouterr().out
        assert "  generation " in out
        assert "  inodes: " in out

    def test_unreadable_file_counts_as_dirty(self, clean_image, tmp_path,
                                             capsys):
        garbage = tmp_path / "garbage.hdsk"
        garbage.write_bytes(b"not a device image")
        assert reprofsck_main([clean_image, str(garbage)]) == 1
        assert f"{garbage}: unreadable" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="^reprofsck: no such image"):
            reprofsck_main([str(tmp_path / "absent.hdsk")])
