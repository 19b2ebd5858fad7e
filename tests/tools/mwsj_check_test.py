#!/usr/bin/env python3
"""Tests for tools/mwsj_check.py against the golden check fixtures.

Run via ctest (tools_mwsj_check_test) or directly:
    python3 tests/tools/mwsj_check_test.py

The fixtures under tests/tools/check_fixtures/ are analyzer inputs, never
compiled by the build. Each call-graph rule has a violating, a clean, and a
suppressed fixture. The per-file rules key on the path relative to --root,
so their fixtures live in a miniature tree (check_fixtures/tree/, with src/
and tools/ subdirectories) analyzed with --root pointing at it. The suite
always runs the textual frontend (available everywhere); when the python
clang bindings are importable it re-runs the call-graph fixtures under the
libclang frontend against a generated compilation database and asserts the
two frontends agree.

Every case calls mwsj_check.main() in this interpreter, capturing its
stdout and stderr, instead of starting one interpreter per case.
"""

import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))
import mwsj_check  # noqa: E402  (path set up above)

FIXTURES = REPO_ROOT / "tests" / "tools" / "check_fixtures"
TREE = FIXTURES / "tree"
BASELINE = REPO_ROOT / "tools" / "mwsj_check_baseline.txt"

DIAG_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z0-9\-]+)\] ")

# fixture (relative to the fixture root) -> the one rule it violates.
BAD_FIXTURES = {
    "alloc_free_bad.cc": "alloc-free-reach",
    "alloc_free_direct_bad.cc": "alloc-free-reach",
    "shared_write_bad.cc": "shared-write-reach",
    "emit_determinism_bad.cc": "emit-determinism",
    "blocking_bad.cc": "blocking-reach",
    "lock_order_bad.cc": "lock-order",
    "bad_suppression.cc": "bad-suppression",
}

CLEAN_FIXTURES = [
    "alloc_free_clean.cc",
    "alloc_free_suppressed.cc",
    "shared_write_clean.cc",
    "shared_write_suppressed.cc",
    "emit_determinism_clean.cc",
    "emit_determinism_suppressed.cc",
    "blocking_clean.cc",
    "blocking_suppressed.cc",
    "lock_order_clean.cc",
    "lock_order_suppressed.cc",
]

# Per-file rule fixtures (relative to TREE) -> (rule, line of the one
# finding).
TREE_BAD_FIXTURES = {
    "src/core/bad_hot_path.cc": ("hot-path-std-function", 7),
    "src/core/bad_rng.cc": ("rng-outside-common", 7),
    "src/core/bad_spill_unbounded.cc": ("spill-unbounded", 15),
    "src/core/bad_stdout.cc": ("stdout-in-library", 7),
    "src/core/bad_trace_span.cc": ("trace-span-temporary", 12),
    "src/core/bad_unordered_emit.cc": ("unordered-emit", 13),
    "src/io/bad_engine_run.cc": ("engine-run-outside-scheduler", 15),
}

# Clean, suppressed, and path-exempt inputs for the per-file rules.
TREE_CLEAN_FIXTURES = [
    "src/core/clean.cc",
    "src/core/suppressed.cc",
    "src/common/rng_ok.cc",
    "src/io/engine_types_ok.cc",
    "src/io/spill_budgeted_ok.cc",
    "src/queries/knn_mr_ok.cc",
    "tools/stdout_ok.cc",
]


def run_check(*args, frontend="textual"):
    """Runs the analyzer's CLI entry point in-process; returns its exit
    status and output as a CompletedProcess."""
    out, err = io.StringIO(), io.StringIO()
    argv = [f"--frontend={frontend}", *args]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mwsj_check.main(argv)
        except SystemExit as e:
            # As the interpreter would end the process: an int is the
            # status (argparse exits 2), a message goes to stderr with 1.
            if e.code is None or isinstance(e.code, int):
                code = e.code or 0
            else:
                print(e.code, file=sys.stderr)
                code = 1
    return subprocess.CompletedProcess(argv, code, out.getvalue(),
                                       err.getvalue())


def parse_diags(stdout):
    diags = []
    for line in stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            diags.append((m.group("path"), int(m.group("line")),
                          m.group("rule")))
    return diags


def have_libclang():
    return mwsj_check.load_cindex() is not None


class MwsjCheckFixtureTest(unittest.TestCase):
    def check_fixture(self, rel, *extra, root=FIXTURES):
        return run_check("--root", str(root), *extra, rel)

    def test_each_bad_fixture_violates_exactly_its_rule(self):
        for rel, rule in BAD_FIXTURES.items():
            with self.subTest(fixture=rel):
                proc = self.check_fixture(rel)
                self.assertEqual(proc.returncode, 1,
                                 f"{rel}: expected exit 1, got "
                                 f"{proc.returncode}\n{proc.stdout}"
                                 f"{proc.stderr}")
                diags = parse_diags(proc.stdout)
                self.assertEqual(len(diags), 1,
                                 f"{rel}: expected exactly one diagnostic, "
                                 f"got: {proc.stdout}")
                path, line, got_rule = diags[0]
                self.assertEqual(got_rule, rule, f"{rel}: wrong rule id")
                self.assertTrue(path.endswith(rel),
                                f"{rel}: diagnostic names wrong file {path}")
                self.assertGreater(line, 0)

    def test_clean_and_suppressed_fixtures_pass(self):
        for rel in CLEAN_FIXTURES:
            with self.subTest(fixture=rel):
                proc = self.check_fixture(rel)
                self.assertEqual(proc.returncode, 0,
                                 f"{rel}: expected exit 0\n{proc.stdout}"
                                 f"{proc.stderr}")
                self.assertEqual(parse_diags(proc.stdout), [],
                                 f"{rel}: unexpected diagnostics: "
                                 f"{proc.stdout}")

    def test_fixture_tree_reports_exactly_the_bad_fixtures(self):
        # The per-file rules see one file at a time, so one run over the
        # whole tree pins every bad fixture to its single finding and every
        # clean, suppressed, or path-exempt fixture to none.
        for rel in TREE_CLEAN_FIXTURES:
            self.assertTrue((TREE / rel).is_file(), rel)
        proc = self.check_fixture(str(TREE), root=TREE)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(
            sorted(parse_diags(proc.stdout)),
            sorted((rel, line, rule)
                   for rel, (rule, line) in TREE_BAD_FIXTURES.items()),
            proc.stdout)

    def test_removing_suppressions_reveals_the_findings(self):
        # Guards against the allow grammar silently matching everything:
        # the suppressed fixture really violates three rules.
        src = (TREE / "src/core/suppressed.cc").read_text()
        stripped = re.sub(r"//\s*mwsj-check:\s*allow\(.*", "", src)
        with tempfile.TemporaryDirectory() as tmp:
            target = pathlib.Path(tmp) / "src" / "core" / "unsuppressed.cc"
            target.parent.mkdir(parents=True)
            target.write_text(stripped)
            proc = self.check_fixture(str(target), root=tmp)
        self.assertEqual(proc.returncode, 1)
        self.assertEqual({d[2] for d in parse_diags(proc.stdout)},
                         {"rng-outside-common", "stdout-in-library",
                          "hot-path-std-function"})

    def test_missing_path_is_a_usage_error(self):
        proc = run_check("no/such/dir")
        self.assertEqual(proc.returncode, 2)

    def test_disabling_a_rule_silences_exactly_its_fixture(self):
        # Proves each bad fixture's diagnostic comes from its rule alone —
        # and pins that the rule is what keeps the fixture failing: if the
        # rule stopped firing, test_each_bad_fixture... would fail too.
        cases = [(FIXTURES, rel, rule) for rel, rule in BAD_FIXTURES.items()
                 if rule != "bad-suppression"]  # guards the allow grammar
        cases.append((TREE, "src/core/bad_rng.cc", "rng-outside-common"))
        for root, rel, rule in cases:
            with self.subTest(fixture=rel):
                proc = self.check_fixture(rel, "--disable", rule, root=root)
                self.assertEqual(proc.returncode, 0,
                                 f"{rel}: still failing with {rule} "
                                 f"disabled:\n{proc.stdout}{proc.stderr}")
                self.assertEqual(parse_diags(proc.stdout), [])

    def test_unknown_disable_rule_is_a_usage_error(self):
        proc = self.check_fixture("alloc_free_clean.cc",
                                  "--disable", "no-such-rule")
        self.assertEqual(proc.returncode, 2)

    def test_baseline_suppresses_justified_findings(self):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "baseline.txt"
            bl.write_text(
                "# fixture baseline\n"
                "alloc-free-reach|alloc_free_bad.cc|Accumulate|"
                "fixture: growth is bounded by the test harness\n")
            proc = self.check_fixture("alloc_free_bad.cc",
                                      "--baseline", str(bl))
            self.assertEqual(proc.returncode, 0,
                             f"baselined finding still reported:\n"
                             f"{proc.stdout}{proc.stderr}")

    def test_baseline_wildcard_function_matches(self):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "baseline.txt"
            bl.write_text("emit-determinism|emit_determinism_bad.cc|*|"
                          "fixture: wildcard entry\n")
            proc = self.check_fixture("emit_determinism_bad.cc",
                                      "--baseline", str(bl))
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_stale_baseline_entry_fails_the_run(self):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "baseline.txt"
            bl.write_text("lock-order|no_such_file.cc|*|stale entry\n")
            proc = self.check_fixture("alloc_free_clean.cc",
                                      "--baseline", str(bl))
            self.assertEqual(proc.returncode, 1,
                             "stale baseline entry must fail the run")
            self.assertIn("stale-baseline", proc.stdout)

    def test_baseline_entry_without_justification_is_rejected(self):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "baseline.txt"
            bl.write_text("alloc-free-reach|alloc_free_bad.cc|Accumulate|\n")
            proc = self.check_fixture("alloc_free_bad.cc",
                                      "--baseline", str(bl))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIn("justification", proc.stdout + proc.stderr)

    def test_report_file_is_written(self):
        with tempfile.TemporaryDirectory() as td:
            rp = pathlib.Path(td) / "report.txt"
            proc = self.check_fixture("lock_order_bad.cc",
                                      "--report", str(rp))
            self.assertEqual(proc.returncode, 1)
            self.assertTrue(rp.exists())
            self.assertIn("lock-order", rp.read_text())

    def test_real_tree_is_clean_under_baseline(self):
        # The same gate CI applies (and the mwsj_check_tree ctest): src/
        # and tools/ analyze clean modulo the justified baseline.
        proc = run_check("--baseline", str(BASELINE), "src", "tools")
        self.assertEqual(proc.returncode, 0,
                         f"unbaselined findings:\n{proc.stdout}"
                         f"{proc.stderr}")

    def test_list_rules_names_every_rule(self):
        proc = run_check("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in set(BAD_FIXTURES.values()) | {
                rule for rule, _line in TREE_BAD_FIXTURES.values()}:
            self.assertIn(rule, proc.stdout)


@unittest.skipUnless(have_libclang(),
                     "python clang bindings / libclang unavailable")
class MwsjCheckLibclangParityTest(unittest.TestCase):
    """The libclang frontend must agree with the textual one on the
    call-graph fixtures. The per-file rules read only FileInfo text, which
    both frontends fill alike, so the tree fixtures are not compiled."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        compdb = []
        for cc in sorted(FIXTURES.glob("*.cc")):
            compdb.append({
                "directory": str(FIXTURES),
                "file": str(cc),
                "command": (f"clang++ -std=c++20 -I{REPO_ROOT / 'src'} "
                            f"-c {cc}"),
            })
        cls.compdb_path = pathlib.Path(cls.tmp.name)
        (cls.compdb_path / "compile_commands.json").write_text(
            json.dumps(compdb))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check_libclang(self, rel):
        return run_check("--compdb", str(self.compdb_path),
                         "--root", str(FIXTURES), rel, frontend="libclang")

    def test_frontends_agree_on_fixtures(self):
        for rel, rule in BAD_FIXTURES.items():
            with self.subTest(fixture=rel):
                proc = self.check_libclang(rel)
                self.assertEqual(proc.returncode, 1,
                                 f"{rel}: libclang frontend disagrees:\n"
                                 f"{proc.stdout}{proc.stderr}")
                rules = {r for _p, _l, r in parse_diags(proc.stdout)}
                self.assertEqual(rules, {rule}, f"{rel}: {proc.stdout}")
        for rel in CLEAN_FIXTURES:
            with self.subTest(fixture=rel):
                proc = self.check_libclang(rel)
                self.assertEqual(proc.returncode, 0,
                                 f"{rel}: libclang frontend disagrees:\n"
                                 f"{proc.stdout}{proc.stderr}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
