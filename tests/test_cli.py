import json
import os
import subprocess
import sys

import pytest

from paulidecomp import cli
from paulidecomp.algebra import CentralExtension
from paulidecomp.census import hasse
from paulidecomp.cli import build_group, main, parse_spec
from paulidecomp.reports import dump_json

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


@pytest.mark.parametrize("text", ["d8", "q8", "e1:p=5"])
def test_reference_specs_parse_to_central_extensions(text):
    kind, spec = parse_spec(text)
    assert kind == "reference" and isinstance(spec, CentralExtension)
    g = build_group(kind, spec)
    assert (spec.order, spec.name) == (g.order, g.name)


def test_build_json():
    r = run_cli("build", "pauli:p=2,n=1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["order"] == 16
    assert doc["center_order"] == 4


BUILD_TEXT = {
    "d8": """\
order: 8
exponent: 4
center_order: 2
derived_order: 2
fingerprint: {'order': 8, 'exponent': 4, 'order_sequence': [[1, 1], [2, 5], \
[4, 2]], 'center_order': 2, 'derived_order': 2, 'abelianization': [2, 2], \
'nilpotency_class': 2}
order_sequence: [[1, 1], [2, 5], [4, 2]]
frattini_order: 2
""",
    "pauli:p=3,n=1": """\
order: 27
exponent: 3
center_order: 3
derived_order: 3
fingerprint: {'order': 27, 'exponent': 3, 'order_sequence': [[1, 1], \
[3, 26]], 'center_order': 3, 'derived_order': 3, 'abelianization': [3, 3], \
'nilpotency_class': 2}
order_sequence: [[1, 1], [3, 26]]
frattini_order: 3
""",
}


def test_build_text_format():
    r = run_cli("build", "d8", "--format", "text")
    assert r.returncode == 0
    assert "order: 8" in r.stdout


@pytest.mark.parametrize("spec", sorted(BUILD_TEXT))
def test_build_text_stdout(spec, capsys):
    # the whole text report, fingerprint line included, byte for byte
    assert main(["build", spec, "--format", "text"]) == 0
    assert capsys.readouterr().out == BUILD_TEXT[spec]


def test_parse_error_exit_2():
    assert run_cli("build", "nosuch").returncode == 2
    assert run_cli("build", "pauli:p=2,n=1,bogus=3").returncode == 2
    assert run_cli("build", "pauli:p=4,n=1").returncode == 2
    assert run_cli("build", "e1:p=3,p=5").returncode == 2
    assert run_cli("build", "heis:R=z(9),reduced=true").returncode == 2
    assert run_cli("verify", "nosuchclaim").returncode == 2


def test_bad_exponent_names_the_exponent(capsys):
    # m = 0 is refused as such, before the qubit rule for m is read
    assert main(["build", "pauli:p=2,m=0,n=1"]) == 2
    assert capsys.readouterr().err == "error: m and n must be >= 1\n"


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


@pytest.mark.parametrize("spec", ["heis:R=z(3),n=1",
                                  "heis:R=gf(3),n=1,reduced=true"])
def test_paper_figure_is_found_by_law(spec, capsys):
    # a spec of H(GF(3))'s law draws H(GF(3))'s figure
    figures = []
    for text in ("heis:R=gf(3),n=1", spec):
        assert main(["lattice", text, "--filter", "paper_figure"]) == 0
        doc = json.loads(capsys.readouterr().out)
        figures.append((doc["nodes"], doc["edges"]))
    assert figures[0] == figures[1]
    assert (len(figures[0][0]), len(figures[0][1])) == (7, 9)


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


@pytest.mark.parametrize("spec", ["q8", "e1:p=3", "e2:p=3", "trivial"])
def test_paper_figure_refused_before_any_group_is_built(spec, monkeypatch,
                                                        capsys):
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(cli, "build_group", refuse)
    assert main(["lattice", spec, "--filter", "paper_figure"]) == 2
    assert capsys.readouterr().err == (
        "error: paper_figure filter applies to d8, pauli:p=2,n=1 and "
        "heis:R=gf(3),n=1 and every spec of the same law\n")


def test_out_write_failure_exits_2_and_leaves_no_file(tmp_path, monkeypatch,
                                                     capsys):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "g.json"
    assert main(["build", "d8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_build_deterministic():
    a = run_cli("build", "pauli:p=3,n=1").stdout
    b = run_cli("build", "pauli:p=3,n=1").stdout
    assert a == b


def test_lattice_help_documents_format_and_filter():
    r = run_cli("lattice", "--help")
    assert r.returncode == 0
    text = " ".join(r.stdout.split())
    assert "json: nodes and covering edges as JSON" in text
    assert "dot: a Graphviz digraph" in text
    assert ("paper_figure: the named-subgroup diagram, for d8, "
            "pauli:p=2,n=1 and heis:R=gf(3),n=1 and every spec of the same "
            "law (heis:R=z(3),n=1 and heis:R=gf(3),n=1,reduced=true draw "
            "H(GF(3))'s), exit 2 for any other spec") in text


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
    (["build", "pauli:p=2,m=0,n=1"], 2),
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
    # the paper figure is drawn only for the spec it names
    (["lattice", "heis:R=gf(3),n=1,cocycle=polarized", "--filter",
      "paper_figure"], 2),
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
    # a huge prime is refused at the cap, not after trial division
    (["build", "pauli:p=100000000000000003,n=1"], 3),
    (["build", "heis:R=z(100000000000000003)"], 3),
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
    # no group has more than 65,536 elements, so no cap may be larger
    (["build", "d8", "--cap-closure", "65536"], 0),
    (["build", "d8", "--cap-closure", "65537"], 2),
    (["census", "d8", "--cap-subgroups", "65537"], 2),
    (["lattice", "d8", "--cap-subgroups", "65536"], 0),
    (["lattice", "d8", "--cap-closure", str(2**64)], 2),
    (["build", "pauli:p=2,n=8", "--cap-closure", "65536"], 3),
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


# each spec parameter is checked once, by the spec constructors and the
# carrier, whose ValueError main() reports as exit 2; a prime too large
# to tabulate passes and is refused at the closure cap
REFUSED_SPECS = [("pauli:p=4", 2), ("lifted:p=9", 2), ("pauli:p=2,m=2", 2),
                 ("heis:R=gf(9),cocycle=x", 2), ("e1:p=4", 2),
                 ("e2:p=2", 2), ("pauli:p=100000000000000003,n=1", 3)]


@pytest.mark.parametrize("spec,code", REFUSED_SPECS,
                         ids=[spec for spec, _ in REFUSED_SPECS])
def test_refused_spec_exit_code(spec, code, capsys):
    assert main(["build", spec]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_and_unknown_spec_leave_numpy_unimported():
    # the parser's defaults and the error types live in the numpy-free
    # reports module, and the family specs in the numpy-free algebra, so
    # neither --help, a spec error, a cap above the largest order, a family
    # spec refused for its order nor a spec with no paper figure pays for
    # numpy, and a spec answers its scalar law without it
    refused = [(["--help"], 0), (["build", "nosuch"], 2),
               (["build", "d8", "--cap-closure", "65537"], 2),
               (["build", "pauli:p=2,n=99"], 3),
               (["build", "pauli:p=4,n=1"], 2),
               (["build", "heis:R=gf(4096),n=1"], 3),
               (["census", "lifted:p=3,m=9,n=9"], 3),
               (["lifted", "pauli:p=3,n=1"], 2),
               (["lattice", "q8", "--filter", "paper_figure"], 2)]
    # argparse exits with SystemExit on --help and on a bad cap value
    cli_code = ("from paulidecomp.cli import main\n"
                "def run(argv):\n"
                "    try:\n"
                "        return main(argv)\n"
                "    except SystemExit as exc:\n"
                "        return exc.code\n"
                + "".join(f"assert run({argv!r}) == {code}\n"
                          for argv, code in refused))
    spec_code = (
        "from paulidecomp.algebra import (field_make, heis_spec,\n"
        "                                 lifted_spec, pauli_spec)\n"
        "for s in (pauli_spec(3, 1, 1), heis_spec(field_make(3, 2)),\n"
        "          lifted_spec(2, 2, 1)):\n"
        "    keys = s.elements()\n"
        "    assert len(keys) == s.order\n"
        "    assert s.mul(keys[1], keys[-1]) in keys\n")
    for code in (cli_code, spec_code):
        r = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code
             + "assert 'numpy' not in sys.modules, 'numpy imported'\n"],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr


def test_help_loads_no_spec_layer():
    # the spec constructors are imported by the parsers that call them
    code = ("import sys\n"
            "from paulidecomp.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert 'paulidecomp.algebra' not in sys.modules, "
            "'algebra imported'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["build"], 2),
                                        (["build", "nosuch"], 2)])
def test_help_and_usage_error_load_no_dataclasses(argv, code):
    # the records live beside their builders, so the start-up front
    # ``reports`` pays for neither ``dataclasses`` nor the ``inspect`` it
    # imports, and it quotes strings with ``_json``, not ``json``; an
    # unknown spec head is refused before the spec layer, which imports
    # ``dataclasses``, loads
    script = ("import sys\n"
              "from paulidecomp.cli import main\n"
              "try:\n"
              f"    code = main({argv!r})\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              f"assert code == {code}, code\n"
              "loaded = {'dataclasses', 'inspect', 'json'} & set(sys.modules)\n"
              "assert not loaded, sorted(loaded)\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
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


def test_main_leaves_the_collector_working_in_process():
    # main registers its exit hook and freezes nothing before the exit, so
    # a caller that runs commands in process (the tests, a traced benchmark)
    # keeps a working collector; the leak tests rely on it
    code = ("import gc\n"
            "from paulidecomp.cli import main\n"
            "assert main(['build', 'd8']) == 0\n"
            "assert main(['lattice', 'd8']) == 0\n"
            "assert gc.isenabled()\n"
            "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr


def test_exit_hook_freezes_before_the_hooks_registered_earlier():
    # atexit hooks run last in, first out, so a hook registered before
    # main runs after main's gc.freeze, however often main ran
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print('frozen:', gc.get_freeze_count()"
            " > 0))\n"
            "from paulidecomp.cli import main\n"
            "assert main(['build', 'd8']) == 0\n"
            "assert main(['build', 'q8']) == 0\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.endswith("frozen: True\n")


def test_command_process_writes_its_whole_output(tmp_path):
    # the exit hook leaves the file written and stdout flushed
    out = tmp_path / "d8.json"
    r = run_cli("build", "d8", "--out", str(out))
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "")
    assert out.read_text() == dump_json(build_group(*parse_spec("d8"))
                                        .report()) + "\n"
    r = run_cli("lattice", "pauli:p=2,n=2")
    assert r.returncode == 0, r.stderr
    g = build_group(*parse_spec("pauli:p=2,n=2"))
    assert r.stdout == dump_json(hasse(g)) + "\n"
