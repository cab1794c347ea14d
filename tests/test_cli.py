"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from factories import build_random_circuit
from repro.cli import main
from repro.experiments.harness import prepare_locked
from repro.netlist import parse_bench_file, write_bench_file

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def host_file(tmp_path):
    host = build_random_circuit(n_inputs=10, n_gates=50, n_outputs=5, seed=121)
    path = tmp_path / "host.bench"
    write_bench_file(host, path)
    return path


class TestLockCommand:
    def test_lock_and_keyfile(self, host_file, tmp_path):
        out = tmp_path / "locked.bench"
        rc = main(["lock", str(host_file), "-o", str(out),
                   "-t", "sarlock", "-k", "8", "--seed", "1"])
        assert rc == 0
        locked = parse_bench_file(out)
        assert sum(1 for s in locked.inputs if s.startswith("keyinput")) == 8
        key_lines = (tmp_path / "locked.bench.key").read_text().splitlines()
        assert len(key_lines) == 8
        assert all("=" in line for line in key_lines)

    def test_lock_resynth(self, host_file, tmp_path):
        out = tmp_path / "locked.bench"
        rc = main(["lock", str(host_file), "-o", str(out),
                   "-t", "ttlock", "-k", "8", "--resynth"])
        assert rc == 0
        locked = parse_bench_file(out)
        internals = set(locked.signals) - set(locked.inputs) - set(locked.outputs)
        assert not any(s.startswith("ttl_") for s in internals)


def _ol_attack(host_file, tmp_path, capsys, technique, *attack_args):
    """Lock the host with ``technique`` (8 key bits, seed 2), run the
    oracle-less ``repro attack`` and return its summary, the found key
    and the true key."""
    locked_path = tmp_path / "locked.bench"
    main(["lock", str(host_file), "-o", str(locked_path),
          "-t", technique, "-k", "8", "--seed", "2"])
    capsys.readouterr()  # drain the lock command's output
    key_out = tmp_path / "found.key"
    rc = main(["attack", str(locked_path), "--key-out", str(key_out), *attack_args])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.split("wrote")[0])
    found = dict(l.split("=") for l in key_out.read_text().split())
    expected = dict(l.split("=") for l in
                    (tmp_path / "locked.bench.key").read_text().split())
    return summary, found, expected


class TestAttackCommand:
    def test_ol_attack_json(self, host_file, tmp_path, capsys):
        summary, found, expected = _ol_attack(host_file, tmp_path, capsys,
                                              "sarlock", "--qbf-limit", "3")
        assert summary["method"] == "qbf"
        assert summary["deciphered"] == 8
        assert found == expected

    def test_ol_attack_scope_path(self, host_file, tmp_path, capsys):
        """A DFLT lock takes the subcircuit-SCOPE path with the CLI's
        default SCOPE settings."""
        summary, found, expected = _ol_attack(host_file, tmp_path, capsys, "ttlock")
        assert summary["method"] == "subcircuit-scope"
        assert summary["deciphered"] == 8
        assert found == expected

    def test_og_attack(self, host_file, tmp_path, capsys):
        locked_path = tmp_path / "locked.bench"
        main(["lock", str(host_file), "-o", str(locked_path),
              "-t", "ttlock", "-k", "8", "--seed", "2"])
        capsys.readouterr()  # drain the lock command's output
        rc = main(["attack", str(locked_path), "--oracle", str(host_file),
                   "--qbf-limit", "1"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["success"] is True

    def test_missing_keys_rejected(self, host_file):
        with pytest.raises(SystemExit):
            main(["attack", str(host_file)])


class TestOtherCommands:
    def test_info(self, host_file, capsys):
        rc = main(["info", str(host_file)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["inputs"] == 10 and stats["gates"] == 50

    def test_gen(self, tmp_path, capsys):
        out = tmp_path / "c6288.bench"
        rc = main(["gen", "c6288", "-o", str(out), "--scale", "tiny"])
        assert rc == 0
        circuit = parse_bench_file(out)
        assert circuit.num_gates > 0

    def test_removal(self, host_file, tmp_path):
        locked_path = tmp_path / "locked.bench"
        main(["lock", str(host_file), "-o", str(locked_path),
              "-t", "antisat", "-k", "8", "--seed", "3"])
        out = tmp_path / "unlocked.bench"
        rc = main(["removal", str(locked_path), "-o", str(out)])
        assert rc == 0
        recovered = parse_bench_file(out)
        host = parse_bench_file(host_file)
        from repro.netlist import check_equivalent

        assert check_equivalent(host, recovered)[0] is True


class TestEnvironment:
    def test_malformed_cache_caps_do_not_crash(self):
        """The cone-memo, prep-cache and prep-store caps are constants,
        not knobs."""
        env = dict(os.environ, REPRO_CONE_MEMO_CAP="lots",
                   REPRO_PREP_CACHE_CAPACITY="lots",
                   REPRO_PREP_STORE_CAPACITY="lots")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
        )
        for argv in (["--help"], ["prepstore", "info"]):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], env=env, cwd=REPO_ROOT,
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr

    def test_prepstore_info_counts_and_clear_removes(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        for technique in ("sarlock", "antisat"):
            prepare_locked("c6288", technique, scale="tiny", cache=False)
        assert main(["prepstore", "info"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 2
        assert main(["prepstore", "clear"]) == 0
        assert capsys.readouterr().out.strip() == "removed 2 entries"
        assert main(["prepstore", "info"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_tune_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
