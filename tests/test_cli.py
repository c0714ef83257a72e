"""Command-line behavior: payload shapes, exit codes, IO plumbing."""

import hashlib
import importlib
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import shardcalc.cli as cli
from shardcalc import audit
from shardcalc.cli import main
from shardcalc.arrangement import enumerate_shards
from shardcalc.calculus import (
    Functional,
    InvariantViolation,
    ShardVector,
    dual_forest_derivative,
    forest_derivative,
)
from shardcalc.forests import parse_forest
from shardcalc.ground import GroundSet, Partition

G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------- enumerate

def test_enumerate_jsonl_matches_library(capsys):
    code, out, _ = run_main(capsys, ["enumerate", "--n", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    shards = enumerate_shards(Partition.one_block(G3))
    assert len(lines) == len(shards) == 6
    for line, X in zip(lines, shards):
        obj = json.loads(line)
        assert obj == X.to_json_obj()
        assert list(obj) == ["support", "signs"]


def test_enumerate_partition_and_text_format(capsys):
    code, out, _ = run_main(
        capsys, ["enumerate", "--partition", "(12|34)", "--format", "text"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    assert all(line.startswith("(12|34) ") for line in lines)
    ids = [line.split()[1] for line in lines]
    assert ids == sorted(ids)


def test_enumerate_explicit_labels(capsys):
    # the (ab|c) flat is a line cut by one wall class, hence two shards
    code, out, _ = run_main(
        capsys,
        ["enumerate", "--partition", "(ab|c)", "--labels", "a,b,c"])
    assert code == 0
    lines = [json.loads(t) for t in out.strip().split("\n")]
    assert [obj["signs"] for obj in lines] == [{"a": "+"}, {"a": "-"}]


def test_braced_blocks_infer_the_same_ground_as_explicit_labels(
        tmp_path, capsys):
    # braces group a block's labels and are no part of any label
    braced = run_main(capsys, ["enumerate", "--partition", "({a1,b}|c)"])
    assert braced[0] == 0
    assert braced == run_main(
        capsys, ["enumerate", "--partition", "({a1,b}|c)",
                 "--labels", "a1,b,c"])
    P = Partition.parse(G3, "(12|3)")
    values = {X.id(): str(k + 1) for k, X in enumerate(enumerate_shards(P))}
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"support": "({1,2}|3)", "values": values}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(values))
    derived = run_main(capsys, ["derive", "--forest", "[1,2]|3", str(path)])
    assert derived[0] == 0
    assert derived == run_main(
        capsys, ["derive", "--forest", "[1,2]|3", "--support", "(12|3)",
                 str(bare)])


@pytest.mark.parametrize("labels", ["a,b,a", ""])
def test_enumerate_refuses_labels_without_partition(capsys, labels):
    # --labels names the ground of --partition; with --n it was ignored
    code, out, err = run_main(
        capsys, ["enumerate", "--labels", labels, "--n", "3"])
    assert (code, out) == (2, "")
    assert "argument --labels: not allowed without argument --partition" in err


def test_enumerate_refuses_empty_labels(capsys):
    # an empty --labels is bad input, as for stein-rank, not a silent
    # fall back to the labels the partition names
    code, out, err = run_main(
        capsys, ["enumerate", "--partition", "(ab|c)", "--labels", ""])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_enumerate_zero_dimensional_support(capsys):
    code, out, _ = run_main(capsys, ["enumerate", "--partition", "(1|2|3)"])
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["signs"] == {}


def test_enumerate_large_guard(capsys):
    code, _, err = run_main(capsys, ["enumerate", "--n", "6"])
    assert code == 2
    assert "--allow-large" in err


def test_enumerate_requires_exactly_one_source(capsys):
    assert run_main(capsys, ["enumerate"])[0] == 2
    assert run_main(
        capsys, ["enumerate", "--n", "3", "--partition", "(123)"])[0] == 2


# -------------------------------------------------------------- derive

def _functional_file(tmp_path, support_text, ground):
    one = Partition.parse(ground, support_text)
    values = {X.id(): str(k - 2) for k, X in enumerate(enumerate_shards(one))}
    payload = {"kind": "functional", "support": support_text,
               "values": values}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    return path, Functional(one, values)


def test_derive_functional_matches_library(tmp_path, capsys):
    path, f = _functional_file(tmp_path, "(123)", G3)
    code, out, _ = run_main(
        capsys, ["derive", "--forest", "[[1,2],3]", str(path)])
    assert code == 0
    obj = json.loads(out)
    F = parse_forest(G3, "[[1,2],3]")
    want = forest_derivative(F, f)
    assert obj["schema"] == 1
    assert obj["kind"] == "functional"
    assert obj["support"] == "(1|2|3)"
    assert obj["values"] == want.to_json_obj()["values"]


def test_derive_dual_vector(tmp_path, capsys):
    payload = {"kind": "shard_vector", "support": "(1|2|3)",
               "values": {"": "2"}}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_main(
        capsys, ["derive", "--dual", "--forest", "[[1,2],3]", str(path)])
    assert code == 0
    obj = json.loads(out)
    F = parse_forest(G3, "[[1,2],3]")
    zero_dim = enumerate_shards(Partition.singletons(G3))[0]
    want = dual_forest_derivative(F, ShardVector.basis(zero_dim, 2))
    assert obj["values"] == want.to_json_obj()["values"]
    assert set(obj["values"].values()) == {"2", "-2"}


def test_derive_accepts_bare_map_with_support_flag(tmp_path, capsys):
    path, f = _functional_file(tmp_path, "(123)", G3)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads(path.read_text())["values"]))
    code, out, _ = run_main(
        capsys, ["derive", "--forest", "[[1,2],3]", "--support", "(123)",
                 str(bare)])
    assert code == 0
    F = parse_forest(G3, "[[1,2],3]")
    want = forest_derivative(F, f)
    assert json.loads(out)["values"] == want.to_json_obj()["values"]


def test_derive_bare_map_without_support_is_an_error(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"+++": "1"}))
    code, _, err = run_main(
        capsys, ["derive", "--forest", "[[1,2],3]", str(bare)])
    assert code == 2
    assert "support" in err


def test_derive_support_mismatch(tmp_path, capsys):
    path, _ = _functional_file(tmp_path, "(123)", G3)
    code, _, err = run_main(
        capsys, ["derive", "--forest", "[[1,2],3]", "--support", "(12|3)",
                 str(path)])
    assert code == 2
    assert "does not match" in err


def test_derive_wrong_boundary(tmp_path, capsys):
    path, _ = _functional_file(tmp_path, "(12|3)", G3)
    code, _, err = run_main(
        capsys, ["derive", "--forest", "[[1,2],3]", str(path)])
    assert code == 2
    assert "source" in err


def test_derive_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    payload = {"kind": "shard_vector", "support": "(1|2|3)",
               "values": {"": "1"}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, _ = run_main(
        capsys, ["derive", "--dual", "--forest", "[[1,2],3]", "-"])
    assert code == 0
    assert json.loads(out)["support"] == "(123)"


def test_derive_ambiguous_layering_is_usage_error(tmp_path, capsys):
    path, _ = _functional_file(tmp_path, "(1234)", G4)
    code, _, err = run_main(
        capsys, ["derive", "--forest", "[[1,2],[3,4]]", str(path)])
    assert code == 2
    assert "layering" in err


# ----------------------------------------------------------- stein-rank

def test_stein_rank_payloads(capsys):
    expected = {2: (2, 0, 2, 2), 3: (6, 0, 6, 6), 4: (32, 6, 26, 26)}
    for n, (shards, rank, qdim, oracle) in expected.items():
        code, out, _ = run_main(capsys, ["stein-rank", "--n", str(n)])
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["shards"] == shards
        assert obj["relation_rank"] == rank
        assert obj["quotient_dim"] == qdim
        assert obj["oracle_dim"] == oracle
        assert obj["agree"] is True


def test_stein_rank_text(capsys):
    code, out, _ = run_main(
        capsys, ["stein-rank", "--n", "4", "--format", "text"])
    assert code == 0
    assert "agree: yes" in out


def test_stein_rank_labels(capsys):
    code, out, _ = run_main(capsys, ["stein-rank", "--labels", "x,y,z"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ground"] == ["x", "y", "z"]
    assert obj["quotient_dim"] == 6


@pytest.mark.parametrize("argv", [
    ["stein-rank", "--labels", ""],
    ["stein-rank", "--labels", "a,,b"],
    ["enumerate", "--partition", "(ab|c)", "--labels", "a,,b,c"],
])
def test_empty_label_is_reported_as_such(capsys, argv):
    code, out, err = run_main(capsys, argv)
    assert (code, out, err) == (2, "", "error: labels must be nonempty\n")


# --------------------------------------------------------------- verify

def test_verify_passes_and_writes_json(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run_main(
        capsys, ["verify", "--n", "2", "--suite", "lie",
                 "--json", str(out_file), "--format", "text"])
    assert code == 0
    assert out.startswith("suite lie at n=2: PASS")
    report = json.loads(out_file.read_text())
    assert report["schema"] == 1
    assert report["passed"] is True
    assert report["suite"] == "lie"


def test_verify_json_stdout(capsys):
    code, out, _ = run_main(
        capsys, ["verify", "--n", "2", "--suite", "module"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert all(e["passed"] for e in obj["entries"])


def test_verify_seed_threads_through(capsys):
    for seed in ("0", "271828"):
        code, out, _ = run_main(
            capsys, ["verify", "--n", "2", "--suite", "lie",
                     "--seed", seed])
        assert code == 0


def test_verify_rejects_oversized_seed(capsys):
    code, _, _ = run_main(
        capsys, ["verify", "--n", "2", "--seed", str(1 << 64)])
    assert code == 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    class FakeReport:
        passed = False

        def to_json_obj(self):
            return {"suite": "lie", "n": 2, "passed": False, "entries": []}

        def format_text(self):
            return "suite lie at n=2: FAIL"

    monkeypatch.setattr(cli, "full_audit", lambda *a, **k: FakeReport())
    code, out, _ = run_main(capsys, ["verify", "--n", "2"])
    assert code == 1
    assert json.loads(out)["passed"] is False


# --------------------------------------------------------------- oracle

def test_oracle_values(capsys):
    series = {1: 1, 2: 2, 3: 6, 4: 26, 5: 150, 6: 1082}
    chambers = {1: 1, 2: 2, 3: 6, 4: 32, 5: 370, 6: 11292}
    for n, dim in series.items():
        code, out, _ = run_main(capsys, ["oracle", "--n", str(n)])
        assert code == 0
        obj = json.loads(out)
        assert obj["zie_dimension"] == dim
        assert obj["chamber_count"] == chambers[n]


def test_oracle_beyond_chamber_table(capsys):
    code, out, _ = run_main(capsys, ["oracle", "--n", "8"])
    assert code == 0
    obj = json.loads(out)
    assert obj["chamber_count"] is None
    assert obj["zie_dimension"] > 0
    for n in ("0", "13"):
        code, _, _ = run_main(capsys, ["oracle", "--n", n])
        assert code == 2


# --------------------------------------------------------------- render

def test_render_subcommand_writes_svg(tmp_path, capsys):
    out_file = tmp_path / "pic.svg"
    code, _, _ = run_main(
        capsys, ["render", "--n", "3", "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<?xml")
    assert text.rstrip().endswith("</svg>")


def test_render_vector_file(tmp_path, capsys):
    zero_dim = enumerate_shards(Partition.singletons(G3))[0]
    F = parse_forest(G3, "[[1,2],3]")
    v = dual_forest_derivative(F, ShardVector.basis(zero_dim))
    path = tmp_path / "v.json"
    path.write_text(json.dumps(v.to_json_obj()))
    code, out, _ = run_main(
        capsys, ["render", "--n", "3", "--vector", str(path)])
    assert code == 0
    forest_out = main(["render", "--n", "3", "--forest", "[[1,2],3]",
                       "--out", str(tmp_path / "f.svg")])
    assert forest_out == 0
    assert out == (tmp_path / "f.svg").read_text()


def test_render_rejects_both_highlight_sources(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text("{}")
    code, _, _ = run_main(
        capsys, ["render", "--n", "3", "--forest", "[[1,2],3]",
                 "--vector", str(path)])
    assert code == 2


def test_render_rejects_wrong_vector_support(tmp_path, capsys):
    payload = {"kind": "shard_vector", "support": "(1|2|3)",
               "values": {"": "1"}}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_main(
        capsys, ["render", "--n", "3", "--vector", str(path)])
    assert code == 2
    assert "one-block" in err


def test_render_names_an_unrealizable_pattern_by_its_labels(tmp_path, capsys):
    # lambda_3 = -lambda_12, so 1, 2 and 3 all positive is the pattern ++-
    # over the canonical keys 1, 2 and 12, which no point realizes
    path = tmp_path / "v.json"
    path.write_text(json.dumps(
        {"support": "(123)", "signs": {"1": "+", "2": "+", "3": "+"}}))
    code, out, err = run_main(
        capsys, ["render", "--n", "3", "--vector", str(path)])
    assert code == 2 and out == ""
    assert err == "error: sign pattern 1:+ 2:+ 12:- is not realizable over (123)\n"
    assert "Traceback" not in err and "++-" not in err


# ------------------------------------------------------------ plumbing

def test_outdir_env_for_bare_names(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHARDCALC_OUTDIR", str(tmp_path))
    code, _, _ = run_main(
        capsys, ["oracle", "--n", "3", "--out", "oracle.json"])
    assert code == 0
    assert json.loads((tmp_path / "oracle.json").read_text())["n"] == 3


def test_outdir_env_ignored_for_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHARDCALC_OUTDIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.json"
    code, _, _ = run_main(
        capsys, ["oracle", "--n", "3", "--out", str(target)])
    assert code == 0
    assert target.exists()


def test_invariant_violation_writes_replay_bundle(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHARDCALC_OUTDIR", str(tmp_path))

    def boom(*args, **kwargs):
        exc = InvariantViolation("routes disagree")
        exc.counterexample = {"support": "(123)"}
        raise exc

    monkeypatch.setattr(cli, "enumerate_shards", boom)
    code, _, err = run_main(capsys, ["enumerate", "--n", "3"])
    assert code == 3
    assert "replay bundle" in err
    bundles = list(tmp_path.glob("replay-*.json"))
    assert len(bundles) == 1
    text = bundles[0].read_text()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    assert bundles[0].name == "replay-%s.json" % digest
    obj = json.loads(text)
    assert obj["argv"] == ["enumerate", "--n", "3"]
    assert obj["counterexample"] == {"support": "(123)"}
    assert obj["kind"] == "replay"


def test_cli_runs_without_loading_openssl():
    # hashlib maps OpenSSL's libcrypto (about 3.6 MB of RSS); only the
    # exit-3 replay bundle needs it, so a passing run never imports it
    code = ("import sys, shardcalc\n"
            "from shardcalc import cli\n"
            "assert cli.main(['verify', '--n', '3']) == 0\n"
            "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout.decode().splitlines()[-1] == "[]"


def test_internal_assertion_writes_replay_bundle(
        tmp_path, capsys, monkeypatch):
    # a plain AssertionError (an internal re-check or an unreachable
    # branch) is an internal fault too: exit 3 with a bundle, no traceback
    monkeypatch.setenv("SHARDCALC_OUTDIR", str(tmp_path))

    def boom(*args, **kwargs):
        raise AssertionError("simplex witness failed re-verification")

    monkeypatch.setattr(cli, "enumerate_shards", boom)
    code, _, err = run_main(capsys, ["enumerate", "--n", "3"])
    assert code == 3
    assert "replay bundle" in err and "Traceback" not in err
    bundles = list(tmp_path.glob("replay-*.json"))
    assert len(bundles) == 1
    obj = json.loads(bundles[0].read_text())
    assert obj["argv"] == ["enumerate", "--n", "3"]
    assert obj["error"] == "simplex witness failed re-verification"
    assert obj["counterexample"] is None
    assert obj["kind"] == "replay"


def test_internal_assertion_exits_3_when_no_bundle_can_be_written(
        tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing"
    monkeypatch.setenv("SHARDCALC_OUTDIR", str(missing))

    def boom(*args, **kwargs):
        raise AssertionError("simplex witness failed re-verification")

    monkeypatch.setattr(cli, "enumerate_shards", boom)
    code, _, err = run_main(capsys, ["enumerate", "--n", "3"])
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("invariant violation: simplex witness failed")
    assert "no replay bundle written: " in err and str(missing) in err
    assert not missing.exists() and not list(tmp_path.rglob("replay-*.json"))


def test_deeply_nested_forest_is_usage_error(capsys):
    code, out, err = run_main(
        capsys, ["render", "--n", "3", "--forest", "[" * 3000])
    assert code == 2 and out == ""
    assert err.startswith("error: brackets nested deeper than 2")


def test_missing_input_file_is_usage_error(capsys):
    code, _, err = run_main(
        capsys, ["derive", "--forest", "[[1,2],3]", "/nonexistent.json"])
    assert code == 2


def test_bad_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run_main(
        capsys, ["derive", "--forest", "[[1,2],3]", str(path)])
    assert code == 2


@pytest.mark.parametrize("value", [1.5, True, "1/0"],
                         ids=["float", "bool", "zero-denominator"])
def test_non_exact_value_is_usage_error(tmp_path, capsys, value):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        {"support": "(12)", "values": {"+": value, "-": 1}}))
    code, out, err = run_main(capsys, ["derive", "--forest", "[1,2]", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, payload", [
    (["derive", "--forest", "[1,2]"], {"support": 5, "values": {}}),
    (["derive", "--dual", "--forest", "[1,2]"], {"support": 5, "values": {}}),
    (["render", "--n", "4", "--vector"], {"support": 5, "values": {}}),
    (["derive", "--dual", "--forest", "[1,2]"],
     {"support": "(1|2)", "signs": 5}),
    (["derive", "--dual", "--forest", "[12,3]"],
     {"support": "(12|3)", "signs": {"1": "x"}}),
    # over (12|3) the subsets 1 and 2 name the same key
    (["derive", "--dual", "--forest", "[12,3]"],
     {"support": "(12|3)", "signs": {"1": "+", "2": "+"}}),
    (["derive", "--dual", "--forest", "[12,3]"],
     {"support": "(12|3)", "signs": {"1": True}}),
    (["derive", "--dual", "--forest", "[12,3]"],
     {"support": "(12|3)", "signs": {"1": 1.0}}),
    # sign strings of the right length that name no face of the support
    (["derive", "--dual", "--forest", "[12,34]"],
     {"support": "(12|34)", "values": {"++-+": 1}}),
    (["render", "--n", "4", "--vector"],
     {"support": "(1234)", "values": {"++++++-": 5}}),
], ids=["support-number", "dual-support-number", "render-support-number",
        "signs-number", "sign-value", "sign-key-twice", "sign-bool",
        "sign-float", "derive-no-face", "render-no-face"])
def test_malformed_payload_is_usage_error(tmp_path, capsys, argv, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_main(capsys, argv + [str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["render", "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# -------------------------------------------------------- subprocesses

def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "shardcalc", *args], capture_output=True)


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "7", "--allow-large"],
    ["stein-rank", "--n", "13", "--allow-large"],
    ["derive", "--allow-large", "--forest", "[123456,7]", "-"],
    ["derive", "--forest", "[12345,6]", "-"],
])
def test_oversized_ground_is_refused_even_with_allow_large(argv):
    # derive reads an all-zero-map functional over the forest's labels
    # from stdin; six labels without the flag are refused by the size
    # guard, not later by the value check after the 11,292-shard walk
    labels = "".join(c for c in argv[-2] if c.isdigit()) if argv[0] == "derive" else ""
    payload = json.dumps({"support": "(%s)" % labels, "values": {}}).encode()
    r = subprocess.run([sys.executable, "-m", "shardcalc", *argv],
                       input=payload, capture_output=True, timeout=60)
    assert r.returncode == 2
    assert r.stdout == b""
    err = r.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if "--allow-large" in argv:
        assert "above %d labels are refused, even with --allow-large" \
            % cli.MAX_GROUND in err[0]
    else:
        assert "above %d labels are slow; pass --allow-large" \
            % cli.LARGE_GROUND in err[0]


def test_max_ground_does_not_follow_the_chamber_table(monkeypatch, capsys):
    # a count recorded for seven labels must not admit seven-label runs
    monkeypatch.setitem(audit.CHAMBER_COUNTS, 7, 1066044)
    try:
        importlib.reload(cli)
        code, out, err = run_main(
            capsys, ["enumerate", "--n", "7", "--allow-large"])
    finally:
        monkeypatch.undo()
        importlib.reload(cli)
    assert code == 2 and out == ""
    assert err == "error: ground sets above 6 labels are refused, " \
                  "even with --allow-large\n"


def test_module_entry_point_round_trip():
    r = _run_cli(["oracle", "--n", "4"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["zie_dimension"] == 26



# ------------------------------------------------- any argv, any payload

_PAYLOAD = object()  # stands for the path of the drawn JSON payload
_NS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "x", ""])
_PARTITIONS = st.sampled_from([
    "(1)", "(12)", "(1|2)", "(123)", "(13|2)", "(1|2|3)", "(1234)",
    "(12|34)", "(1|23|4)", "(ab|c)", "(a1,a2|b)", "(12|", "()", "(1|1)",
    "12", "(1|2|5)", ""])
_FORESTS = st.sampled_from([
    "[1,2]", "[[1,2],3]", "[12,3]", "[3,12]", "[[1,2],[3,4]]@L",
    "[[1,2],[3,4]]", "[[1,2],[3,4]]@10", "[[1,2],[3,4]]@9", "[1,[2",
    "[1,1]", "[12,34]", "[12,34]|5", "[a,b]", ""])
_IDS = st.text("+-", max_size=7)
_VALUES = st.one_of(
    st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "1/0", "x", ""]),
    st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
    st.none(), st.lists(st.integers(), max_size=1))
# well-formed calls: (forest, --dual, payload)
_WELL_FORMED = st.sampled_from([
    ("[[1,2],3]", False, {"support": "(123)", "values": {
        X.id(): k for k, X in enumerate(
            enumerate_shards(Partition.one_block(G3)))}}),
    ("[[1,2],3]", True, {"support": "(1|2|3)", "signs": ""}),
    ("[1,2]", False, {"support": "(12)", "values": {"+": 1, "-": "1/2"}}),
    ("[12,34]", True, {"kind": "shard_vector", "support": "(12|34)",
                       "values": {X.id(): "1/3" for X in enumerate_shards(
                           Partition.parse(G4, "(12|34)"))}}),
    ("[[1,2],[3,4]]@L", True, {"support": "(1|2|3|4)", "signs": {}})])
_PAYLOADS = st.one_of(
    _WELL_FORMED.map(lambda call: call[2]),
    st.fixed_dictionaries(
        {"support": st.one_of(_PARTITIONS, st.integers(), st.none())},
        optional={"values": st.one_of(
                      st.dictionaries(_IDS, _VALUES, max_size=4),
                      st.integers()),
                  "kind": st.sampled_from(["functional", "shard_vector"])}),
    st.fixed_dictionaries(
        {"support": _PARTITIONS,
         "signs": st.one_of(
             _IDS, st.integers(), st.dictionaries(
                 st.sampled_from(["1", "2", "3", "12", "34", "5", ""]),
                 st.sampled_from(["+", "-", 1, -1, 0, "x", None]),
                 max_size=3))}),
    st.dictionaries(_IDS, _VALUES, max_size=3),
    st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=4))


@st.composite
def _invocations(draw):
    """(argv, payload) of one CLI call over ground sets of at most four
    labels; argv holds _PAYLOAD where the payload file goes."""
    cmd = draw(st.sampled_from(["enumerate", "derive", "stein-rank",
                                "verify", "oracle", "render", "frobnicate"]))
    argv, payload = [cmd], None
    if cmd == "enumerate":
        argv += (["--n", draw(_NS)] if draw(st.booleans())
                 else ["--partition", draw(_PARTITIONS)])
        if draw(st.booleans()):
            argv += ["--labels", draw(st.sampled_from(
                ["a,b,c", "1,2,3,4", "1,1", "", "a|b"]))]
    elif cmd == "derive":
        forest, dual, payload = draw(st.one_of(_WELL_FORMED, st.tuples(
            _FORESTS, st.booleans(), _PAYLOADS)))
        argv += ["--forest", forest] + ["--dual"] * dual
        if draw(st.booleans()):
            argv += ["--support", draw(_PARTITIONS)]
        argv.append(_PAYLOAD)
    elif cmd == "stein-rank":
        argv += (["--n", draw(_NS)] if draw(st.booleans())
                 else ["--labels", draw(st.sampled_from(
                     ["a,b,c", "1,2", "x,x", ""]))])
    elif cmd == "verify":
        argv += ["--n", draw(_NS)]
        if draw(st.booleans()):
            argv += ["--suite", draw(st.sampled_from(
                ["lie", "module", "kernel", "factorization", "all", "x"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(
                ["0", "7", "-1", str(1 << 64), "x"]))]
    elif cmd == "oracle":
        argv += ["--n", draw(st.sampled_from(["-1", "0", "1", "4", "12",
                                              "13", "x"]))]
    elif cmd == "render":
        argv += ["--n", draw(st.sampled_from(["2", "3", "4", "x"]))]
        if draw(st.booleans()):
            argv += ["--forest", draw(_FORESTS)]
        if draw(st.booleans()):
            payload = draw(_PAYLOADS)
            argv += ["--vector", _PAYLOAD]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text", "xml"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "--n", "-", "--help"])))
    return argv, payload


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=_invocations())
def test_any_argv_and_payload_keeps_the_exit_code_contract(
        invocation, tmp_path, capsys, monkeypatch):
    # bad input exits 2 and a broken invariant 3 (its replay bundle lands
    # in the temporary directory); nothing escapes as a traceback
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    argv, payload = invocation
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = cli.main([str(path) if a is _PAYLOAD else a for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
