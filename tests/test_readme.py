"""The README's library example runs as written, so the documented calls
cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

TWEETS = (
    '{"author": "alice", "text": "great take @bob", "timestamp": 100}\n'
    '{"author": "bob", "text": "@alice always on point", "timestamp": 200}\n'
)


def test_library_example_runs(tmp_path, monkeypatch):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tweets.jsonl").write_text(TWEETS, encoding="utf-8")
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert namespace["post_count"] == 2
    assert sorted(namespace["ranking"].nodes) == ["alice", "bob"]
    assert namespace["report"].relevant_total == 1
