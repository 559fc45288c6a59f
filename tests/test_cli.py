import json
import os
import subprocess
import sys

import pytest

from paulidecomp import cli
from paulidecomp.cli import main, parse_spec

CLI = [sys.executable, "-m", "paulidecomp.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_parse_spec_defaults():
    kind, spec = parse_spec("pauli:p=2,n=1")
    assert kind == "pauli"
    assert (spec.carrier.p, spec.carrier.m, spec.n) == (2, 1, 1)
    kind, spec = parse_spec("heis:R=gf(3)")
    assert kind == "heis" and spec.carrier.size == 3
    kind, spec = parse_spec("lifted:p=3,m=2,n=1")
    assert kind == "lifted" and spec.carrier.size == 9


def test_build_json():
    r = run_cli("build", "pauli:p=2,n=1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["order"] == 16
    assert doc["center_order"] == 4


def test_build_text_format():
    r = run_cli("build", "d8", "--format", "text")
    assert r.returncode == 0
    assert "order: 8" in r.stdout


def test_parse_error_exit_2():
    assert run_cli("build", "nosuch").returncode == 2
    assert run_cli("build", "pauli:p=2,n=1,bogus=3").returncode == 2
    assert run_cli("build", "pauli:p=4,n=1").returncode == 2
    assert run_cli("build", "e1:p=3,p=5").returncode == 2
    assert run_cli("build", "heis:R=z(9),reduced=true").returncode == 2
    assert run_cli("verify", "nosuchclaim").returncode == 2


def test_cap_exceeded_exit_3():
    r = run_cli("build", "pauli:p=2,n=2", "--cap-closure", "10")
    assert r.returncode == 3
    assert r.stderr == ("error: cap exceeded: group of order 64 exceeds "
                        "the closure cap 10\n")
    # refused from the spec's order: no closure has run
    r = run_cli("build", "pauli:p=2,n=99")
    assert r.returncode == 3
    assert r.stderr == (f"error: cap exceeded: group of order {4 ** 100} "
                        "exceeds the closure cap 4096\n")
    r = run_cli("census", "pauli:p=2,n=2", "--cap-subgroups", "10")
    assert r.returncode == 3
    assert r.stderr == ("error: cap exceeded: group of order 64 exceeds "
                        "the subgroup-enumeration cap 10\n")


def test_census_d8():
    r = run_cli("census", "d8")
    assert json.loads(r.stdout)["c_ab"] == 8


def test_decompose_chain():
    r = run_cli("decompose", "pauli:p=2,n=2")
    doc = json.loads(r.stdout)
    assert doc["classification"] == "weak_central"
    assert doc["links"][0]["order"] == 4


def test_lattice_dot_and_figures():
    r = run_cli("lattice", "d8", "--format", "dot")
    assert r.stdout.startswith("digraph")
    r = run_cli("lattice", "d8", "--filter", "paper_figure")
    doc = json.loads(r.stdout)
    assert len(doc["nodes"]) == 10 and len(doc["edges"]) == 15
    r = run_cli("lattice", "q8", "--filter", "paper_figure")
    assert r.returncode == 2


def test_lifted_subcommand():
    r = run_cli("lifted", "p=3,m=2,n=1")
    doc = json.loads(r.stdout)
    assert doc["order"] == 729
    assert doc["kernel_order"] == 3
    assert doc["image_order"] == 243


def test_verify_single_claim():
    r = run_cli("verify", "lemma3.1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc) == 1
    entry = doc[0]
    for key in ("claim", "locator", "status", "witness", "wall_time_s"):
        assert key in entry
    assert entry["status"] == "confirmed"


def test_out_flag(tmp_path):
    out = tmp_path / "g.json"
    assert main(["build", "d8", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["order"] == 8


def test_out_to_missing_directory_refused_before_work(tmp_path, monkeypatch,
                                                     capsys):
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(cli, "build_group", refuse)
    out = tmp_path / "missing" / "g.json"
    assert main(["build", "d8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_build_deterministic():
    a = run_cli("build", "pauli:p=3,n=1").stdout
    b = run_cli("build", "pauli:p=3,n=1").stdout
    assert a == b


def test_help_documents_grammar():
    r = run_cli("--help")
    assert "spec" in r.stdout.lower()
    for sub in ("build", "decompose", "census", "lattice", "verify", "lifted"):
        assert sub in r.stdout


# argv, exit code
EXIT_CODES = [
    (["build", "d8"], 0),
    (["build", "d8", "--format", "text"], 0),
    (["lattice", "heis:R=gf(3),n=1", "--format", "dot"], 0),
    (["build", "pauli:p=2,n=1", "--cap-closure", "4096"], 0),
    # bad specs
    (["build", "nosuch"], 2),
    (["build", "pauli:p=2,n=1,bogus=3"], 2),
    (["build", "pauli:p=4,n=1"], 2),
    (["build", "e1:p=3,p=5"], 2),
    (["build", "heis:R=z(9),reduced=true"], 2),
    (["build", "heis:R=gf(6)"], 2),
    (["build", "heis:R=gf(3),reduced=yes"], 2),
    (["verify", "nosuchclaim"], 2),
    (["verify", "eq19", "--out", "no-such-directory/claims.json"], 2),
    (["verify", "eq19", "--out", "."], 2),
    # removed flags and formats a subcommand does not produce
    (["build", "d8", "--seed", "1"], 2),
    (["build", "d8", "--exhaustive"], 2),
    (["build", "d8", "--cap-subgroups", "10"], 2),
    (["build", "d8", "--format", "dot"], 2),
    (["lattice", "d8", "--format", "text"], 2),
    (["census", "d8", "--format", "json"], 2),
    (["decompose", "d8", "--format", "json"], 2),
    (["lifted", "p=3,m=1,n=1", "--format", "json"], 2),
    (["verify", "eq19", "--format", "json"], 2),
    (["verify", "eq19", "--cap-closure", "10"], 2),
    (["verify", "eq19", "--cap-subgroups", "10"], 2),
    # non-positive cap flags
    (["build", "d8", "--cap-closure", "0"], 2),
    (["build", "d8", "--cap-closure", "-3"], 2),
    (["census", "d8", "--cap-subgroups", "0"], 2),
    (["lattice", "d8", "--cap-subgroups", "-3"], 2),
    (["build", "trivial", "--cap-closure", "0"], 2),
    (["build", "e1:p=4"], 2),
    # well-formed groups that are not extraspecial: one factor, "none"
    (["decompose", "heis:R=gf(4),n=1"], 0),
    (["decompose", "heis:R=z(9),n=1"], 0),
    (["decompose", "trivial"], 0),
    # caps and size limits
    (["build", "pauli:p=2,n=2", "--cap-closure", "10"], 3),
    (["build", "pauli:p=2,n=1", "--cap-closure", "10"], 3),
    (["census", "pauli:p=2,n=2", "--cap-subgroups", "10"], 3),
    # Z_2^7: 29,211 nontrivial subgroups; no limit on the subgroup count
    (["census", "heis:R=gf(2),n=3"], 0),
    (["decompose", "pauli:p=2,n=4"], 0),
    (["decompose", "pauli:p=2,n=3", "--cap-closure", "10"], 3),
    (["decompose", "heis:R=gf(2),n=4,cocycle=polarized"], 0),
    (["decompose", "pauli:p=2,n=6"], 3),
    (["decompose", "heis:R=gf(2),n=6,cocycle=polarized"], 3),
    # reference specs obey the closure cap at their exact order
    (["build", "e1:p=3", "--cap-closure", "26"], 3),
    (["build", "e1:p=3", "--cap-closure", "27"], 0),
    (["build", "q8", "--cap-closure", "7"], 3),
    (["build", "q8", "--cap-closure", "8"], 0),
    (["build", "e2:p=31"], 3),
    (["build", "d8", "--cap-closure", "5"], 3),
    (["build", "e1:p=7", "--cap-closure", "10"], 3),
    (["census", "q8", "--cap-closure", "2"], 3),
    (["decompose", "e2:p=3", "--cap-closure", "5"], 3),
    (["lattice", "d8", "--filter", "paper_figure", "--cap-closure", "7"],
     3),
    # the subgroup cap holds on both lattice paths, and lifted obeys its
    # closure cap
    (["lattice", "d8", "--filter", "paper_figure", "--cap-subgroups", "7"],
     3),
    (["lattice", "pauli:p=2,n=2", "--cap-subgroups", "10"], 3),
    (["lifted", "p=3,m=1,n=1", "--cap-closure", "26"], 3),
]


@pytest.mark.parametrize("argv,code", EXIT_CODES,
                         ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_codes(argv, code):
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        got = exc.code
    assert got == code


@pytest.mark.parametrize("args", [("verify", "all"),
                                  ("lattice", "pauli:p=2,n=2")])
def test_command_leaves_numpy_ma_unimported(args):
    # np.unique without return_index or return_counts asks np.ma whether
    # its input is masked, which imports numpy.ma on first use: 12-18 ms
    # of start-up in every process under numpy 2.4.  Nor may a command
    # start a thread: numpy loads OpenBLAS, whose pthreads build starts a
    # worker unless OPENBLAS_NUM_THREADS is 1, which main() defaults to.
    code = ("import os, sys\n"
            "from paulidecomp.cli import main\n"
            f"assert main({list(args)!r}) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
            "if os.path.isdir('/proc/self/task'):\n"
            "    threads = len(os.listdir('/proc/self/task'))\n"
            "    assert threads == 1, f'{threads} threads'\n")
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr


def test_help_and_unknown_spec_leave_numpy_unimported():
    # the parser's defaults and the error types live in the numpy-free
    # reports module, so neither --help nor a spec error pays for numpy
    code = ("import sys\n"
            "from paulidecomp.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert main(['build', 'nosuch']) == 2\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr


def test_openblas_default_set_only_by_main():
    # importing the package changes no environment variable (a program
    # that imports it, such as a benchmark harness, passes its own
    # environment on to its children), and main() keeps a value the user
    # set
    code = ("import os\n"
            "before = dict(os.environ)\n"
            "import paulidecomp.claims, paulidecomp.cli\n"
            "assert dict(os.environ) == before, 'os.environ changed'\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
            "assert paulidecomp.cli.main(['build', 'd8']) == 0\n"
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n")
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
