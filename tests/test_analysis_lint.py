"""Tests for the AST determinism lint, static-analysis rule DET-001.

Each case scans a file laid out in a pseudo-package under ``tmp_path``
with only DET-001 (and SYN-001, for unparsable files) selected, and
asserts the historical sub-codes (``RNG001`` .. ``TIME001``, ``SYN001``)
the rule reports in each finding's ``code``.
"""

import os

import repro
from repro.analysis.static.engine import analyze_paths


def run_lint(paths):
    return analyze_paths(paths, select=["DET-001", "SYN-001"]).findings


def _lint_source(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([str(tmp_path)])


def _codes(violations):
    return [v.code for v in violations]


class TestRepoIsClean:
    def test_repro_package_passes(self):
        violations = run_lint([os.path.dirname(repro.__file__)])
        assert violations == [], "\n".join(str(v) for v in violations)


class TestRNGRules:
    def test_global_random_in_kernel_path(self, tmp_path):
        violations = _lint_source(
            tmp_path, "aco/bad.py", "import random\nx = random.random()\n"
        )
        assert _codes(violations) == ["RNG001"]

    def test_global_random_outside_kernel_path_allowed(self, tmp_path):
        violations = _lint_source(
            tmp_path, "viz/ok.py", "import random\nx = random.random()\n"
        )
        assert violations == []

    def test_injected_random_instance_allowed(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            "aco/good.py",
            "import random\nrng = random.Random(7)\nx = rng.random()\n",
        )
        assert violations == []

    def test_legacy_numpy_random_anywhere(self, tmp_path):
        violations = _lint_source(
            tmp_path, "viz/bad.py", "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert _codes(violations) == ["RNG002"]

    def test_unseeded_default_rng_in_kernel_path(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            "parallel/bad.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert _codes(violations) == ["RNG003"]

    def test_seeded_default_rng_allowed(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            "parallel/good.py",
            "import numpy as np\nrng = np.random.default_rng(42)\n",
        )
        assert violations == []

    def test_global_seeding_forbidden(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            "viz/bad.py",
            "import random\nimport numpy as np\n"
            "random.seed(0)\nnp.random.seed(0)\n",
        )
        assert _codes(violations) == ["RNG004", "RNG004"]


class TestTelemetryRules:
    def test_telemetry_importing_rng(self, tmp_path):
        violations = _lint_source(tmp_path, "telemetry/bad.py", "import random\n")
        assert _codes(violations) == ["TEL001"]

    def test_telemetry_importing_scheduler_state(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            "telemetry/bad.py",
            "from ..parallel.colony import Colony\n",
        )
        assert _codes(violations) == ["TEL002"]

    def test_telemetry_importing_errors_allowed(self, tmp_path):
        violations = _lint_source(
            tmp_path, "telemetry/ok.py", "from ..errors import ReproError\n"
        )
        assert violations == []


class TestWallClockRule:
    def test_wall_clock_in_kernel_path(self, tmp_path):
        violations = _lint_source(
            tmp_path, "gpusim/bad.py", "import time\nt = time.time()\n"
        )
        assert _codes(violations) == ["TIME001"]

    def test_wall_clock_in_cli_allowed(self, tmp_path):
        violations = _lint_source(
            tmp_path, "cli.py", "import time\nt = time.time()\n"
        )
        assert violations == []


class TestSuppressionsAndErrors:
    def test_lint_allow_comment(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            "aco/excused.py",
            "import random\nx = random.random()  # lint: allow\n",
        )
        assert violations == []

    def test_syntax_error_reported(self, tmp_path):
        violations = _lint_source(tmp_path, "aco/broken.py", "def f(:\n")
        assert _codes(violations) == ["SYN001"]

    def test_directory_target(self, tmp_path):
        path = tmp_path / "rp" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text("import random\nrandom.shuffle([1])\n")
        assert _codes(run_lint([str(tmp_path)])) == ["RNG001"]

    def test_single_file_target(self, tmp_path):
        path = tmp_path / "loose.py"
        path.write_text("import numpy as np\nnp.random.seed(1)\n")
        violations = run_lint([str(path)])
        assert _codes(violations) == ["RNG004"]
