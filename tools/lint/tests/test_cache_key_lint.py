#!/usr/bin/env python3
"""Fixture tests for tools/lint/cache_key_lint.py.

Negative coverage: a mini repo tree seeds a violation of every rule,
and a copy of the real tree with one field-list entry deleted must be
reported. Positive coverage: a clean fixture tree and the real
repository must both pass.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "..", "cache_key_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
REPO = os.path.normpath(os.path.join(HERE, "..", "..", ".."))


def run_lint(repo):
    return subprocess.run(
        [sys.executable, LINT, "--repo", repo],
        capture_output=True, text=True, check=False)


class CacheKeyLintTest(unittest.TestCase):

    def test_seeded_violations_all_reported(self):
        res = run_lint(os.path.join(FIXTURES, "cache_key_bad"))
        self.assertEqual(res.returncode, 1, res.stdout + res.stderr)
        out = res.stdout
        # Rule 1: members bound by no entry (top-level and nested)
        # and by two.
        self.assertIn("member 'fooKnob' is bound by 0", out)
        self.assertIn("member 'moveCfg.allocHysteresis' is bound by 0",
                      out)
        self.assertIn("member 'seed' is bound by 2", out)
        # Rule 2: an entry binding no member.
        self.assertIn("entry 'ghost' binds c.ghostField", out)
        # Rule 3: a study knob without a reason.
        self.assertIn("study knob 'mystery' needs a one-line reason", out)
        # Rule 4: cacheKey naming a field itself.
        self.assertIn("cacheKey names cfg.meshWidth", out)
        # No false positives on the well-formed entries.
        self.assertNotIn("'meshWidth' is bound", out)
        self.assertNotIn("'mixes'", out)

    def test_clean_fixture_passes(self):
        res = run_lint(os.path.join(FIXTURES, "cache_key_good"))
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)

    def test_missing_list_is_an_error(self):
        res = run_lint(os.path.join(FIXTURES, "determinism_bad"))
        self.assertEqual(res.returncode, 2, res.stdout + res.stderr)

    def test_real_repository_is_clean(self):
        res = run_lint(REPO)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)

    def test_entry_deleted_from_real_list_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(REPO, "src"),
                            os.path.join(tmp, "src"))
            path = os.path.join(tmp, "src", "sim", "system_config.hh")
            with open(path, encoding="utf-8") as f:
                text = f.read()
            entry = '    visit("seed", c.seed, R());\n'
            self.assertIn(entry, text)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace(entry, ""))
            res = run_lint(tmp)
        self.assertEqual(res.returncode, 1, res.stdout + res.stderr)
        self.assertIn("member 'seed' is bound by 0", res.stdout)


if __name__ == "__main__":
    unittest.main()
