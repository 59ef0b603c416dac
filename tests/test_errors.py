import json
import os
import tempfile

from plane_layers.errors import DUMP_DIR_ENV, InternalAssertionError, write_dump


def test_write_dump_honors_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(DUMP_DIR_ENV, str(tmp_path))
    err = InternalAssertionError("unit", "boom", {"points": "0 0 0\n", "extra": [1, 2]})
    path = write_dump(err)
    assert path.startswith(str(tmp_path))
    data = json.loads(open(path).read())
    assert data["stage"] == "unit"
    assert data["message"] == "boom"
    assert data["points"] == "0 0 0\n"


def test_write_dump_defaults_to_tempdir(monkeypatch, tmp_path):
    monkeypatch.delenv(DUMP_DIR_ENV, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    err = InternalAssertionError("unit", "boom")
    path = write_dump(err)
    assert path.endswith(".json")
    assert os.path.dirname(os.path.dirname(path)) == str(tmp_path)
    assert os.path.basename(os.path.dirname(path)).startswith("plane-layers-dump-")
