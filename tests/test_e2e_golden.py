"""`tableqa bench --mock` on the shared e2e fixture writes the same bytes
every time: each file of the out-dir (profile cache, the run log
`trace/runs.jsonl`, predictions and report) is pinned by its sha256.

A change that means to alter these outputs rewrites `e2e_golden.json`
from a run of the same command and says why.
"""

import hashlib
import json
import pathlib

from click.testing import CliRunner

import e2e_fixtures
from tableqa.cli import main as cli_main

GOLDEN = pathlib.Path(__file__).with_name("e2e_golden.json")


def digests(root: pathlib.Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_bench_outputs_match_recorded_digests(tmp_path):
    tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
    out_dir = tmp_path / "bench_out"
    result = CliRunner().invoke(cli_main, [
        "bench", questions_path, "--tables-dir", tables_dir,
        "--mock", mock_path, "--repetitions", "8", "--out-dir", str(out_dir),
    ])
    assert result.exit_code == 0, result.output
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) == 4
    assert digests(out_dir) == expected
