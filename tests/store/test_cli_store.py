"""The ``repro-failures store`` command group, end to end."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.io import write_csv
from tests.store.conftest import split_log


@pytest.fixture
def halves(tmp_path, t2_small):
    """The t2_small log written to disk as two CSV halves."""
    paths = []
    for index, batch in enumerate(split_log(t2_small, 2)):
        path = tmp_path / f"half{index}.csv"
        write_csv(batch, path)
        paths.append(path)
    return paths


class TestLifecycle:
    def test_full_cycle(self, tmp_path, t2_small, halves, capsys):
        store = tmp_path / "events.store"

        assert main(["store", "init", str(store),
                     "--machine", "tsubame2"]) == 0
        assert "initialized tsubame2 store" in capsys.readouterr().out

        for path in halves:
            assert main(["store", "append", str(store), str(path)]) == 0
        out = capsys.readouterr().out
        assert f"({len(t2_small)} total" in out

        assert main(["store", "info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "machine:          tsubame2" in out
        assert f"rows:             {len(t2_small)}" in out
        assert "segments:         2" in out
        assert "fingerprint:      store-" in out

        assert main(["store", "query", str(store)]) == 0
        out = capsys.readouterr().out
        assert "MTBF:" in out
        assert "MTTR:" in out
        assert "availability:" in out
        assert "dominant:" in out

        assert main(["store", "compact", str(store)]) == 0
        assert "compacted 2 segments" in capsys.readouterr().out
        # Compacting again is a no-op, not an error.
        assert main(["store", "compact", str(store)]) == 0
        assert "nothing to compact" in capsys.readouterr().out

        # Query still answers identically after compaction.
        assert main(["store", "query", str(store)]) == 0
        assert "MTBF:" in capsys.readouterr().out

    def test_query_as_of(self, tmp_path, t2_small, halves, capsys):
        store = tmp_path / "events.store"
        main(["store", "init", str(store), "--machine", "tsubame2"])
        for path in halves:
            main(["store", "append", str(store), str(path)])
        capsys.readouterr()

        half = len(t2_small) // 2
        cutoff = t2_small.records[half - 1].timestamp
        assert main(["store", "query", str(store),
                     "--as-of", cutoff.isoformat()]) == 0
        out = capsys.readouterr().out
        visible = sum(
            1 for r in t2_small.records if r.timestamp <= cutoff
        )
        assert f"({visible} failures)" in out
        assert cutoff.isoformat() in out


    def test_info_reads_neither_views_nor_columns(
        self, tmp_path, t2_small, halves, capsys, monkeypatch
    ):
        # Served from the handle and its manifest, so O(1) in the
        # store's size.
        from repro.store.store import FailureStore

        store = tmp_path / "events.store"
        main(["store", "init", str(store), "--machine", "tsubame2"])
        for path in halves:
            main(["store", "append", str(store), str(path)])
        capsys.readouterr()

        def refuse(self):
            raise AssertionError("store info must not load the log")

        monkeypatch.setattr(FailureStore, "views", refuse)
        monkeypatch.setattr(FailureStore, "log", refuse)
        assert main(["store", "info", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"rows:             {len(t2_small)}" in out
        assert "window:           " in out
        assert "watermark:        " in out


class TestErrors:
    def test_reappend_same_file_is_a_domain_error(
        self, tmp_path, halves, capsys
    ):
        store = tmp_path / "events.store"
        main(["store", "init", str(store), "--machine", "tsubame2"])
        assert main(["store", "append", str(store),
                     str(halves[0])]) == 0
        capsys.readouterr()
        # Appending the same half again breaks time-monotonicity.
        assert main(["store", "append", str(store),
                     str(halves[0])]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "not time-monotone" in err

    def test_tz_aware_csv_is_a_domain_error(
        self, tmp_path, halves, capsys
    ):
        # The same rows with every stamp and window line at +00:00.
        lines = halves[0].read_text().splitlines()
        aware = []
        for line in lines:
            if line.startswith("# window_"):
                line += "+00:00"
            elif line[:1].isdigit():
                fields = line.split(",")
                fields[1] += "+00:00"
                line = ",".join(fields)
            aware.append(line)
        csv_path = tmp_path / "tz.csv"
        csv_path.write_text("\n".join(aware) + "\n")
        store = tmp_path / "events.store"
        main(["store", "init", str(store), "--machine", "tsubame2"])
        capsys.readouterr()
        assert main(["store", "append", str(store), str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "naive timestamps" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(store.glob("seg-*"))

    def test_double_init_is_a_domain_error(self, tmp_path, capsys):
        store = tmp_path / "events.store"
        assert main(["store", "init", str(store),
                     "--machine", "tsubame2"]) == 0
        assert main(["store", "init", str(store),
                     "--machine", "tsubame2"]) == 1
        assert "already holds a store" in capsys.readouterr().err

    def test_missing_store_is_a_domain_error(self, tmp_path, capsys):
        assert main(["store", "info", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_as_of_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "query", str(tmp_path / "s"),
                  "--as-of", "not-a-date"])
