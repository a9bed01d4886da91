"""Size-capped rotation: RotatingSink and the JSONL span exporter."""

import json
import os
import threading

from repro.obs import JsonlExporter, RotatingSink, Span, Tracer


def write_lines(sink, count, width=20):
    for index in range(count):
        sink.write(f"{index:0{width}d}")


class TestRotatingSink:
    def test_uncapped_sink_never_rotates(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = RotatingSink(str(path))
        write_lines(sink, 100)
        sink.close()
        assert sink.rotations == 0
        assert len(path.read_text().splitlines()) == 100
        assert not (tmp_path / "out.jsonl.1").exists()

    def test_rotation_ladder_shifts_and_prunes(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = RotatingSink(str(path), max_bytes=100, backups=2)
        write_lines(sink, 30)  # 21 bytes/line -> rotates every 4-5 lines
        sink.close()
        assert sink.rotations > 2
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["out.jsonl", "out.jsonl.1", "out.jsonl.2"]
        # newest data in the live file, older in .1, oldest in .2
        newest = int(path.read_text().splitlines()[-1])
        oldest = int((tmp_path / "out.jsonl.2").read_text().splitlines()[0])
        assert newest == 29 and oldest < newest
        # no line was lost or torn across the rotation boundary
        kept = [line for name in names
                for line in (tmp_path / name).read_text().splitlines()]
        assert sorted(int(line) for line in kept) == \
            list(range(30 - len(kept), 30))

    def test_zero_backups_truncates_in_place(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = RotatingSink(str(path), max_bytes=60, backups=0)
        write_lines(sink, 10)
        sink.close()
        assert sink.rotations > 0
        assert list(tmp_path.iterdir()) == [path]
        assert os.path.getsize(path) <= 60

    def test_oversize_line_still_lands(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = RotatingSink(str(path), max_bytes=10, backups=1)
        sink.write("x" * 50)  # larger than the whole cap
        sink.close()
        assert path.read_text() == "x" * 50 + "\n"

    def test_size_resumes_from_an_existing_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("a" * 90 + "\n")
        sink = RotatingSink(str(path), max_bytes=100, backups=1)
        sink.write("b" * 20)  # 91 + 21 > 100 -> must rotate first
        sink.close()
        assert sink.rotations == 1
        assert (tmp_path / "out.jsonl.1").read_text().startswith("a")
        assert path.read_text().startswith("b")

    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = RotatingSink(str(path), max_bytes=400, backups=5)
        errors = []

        def worker(tag):
            try:
                for index in range(50):
                    sink.write(f"{tag}:{index:04d}:" + "p" * 10)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in "abcd"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        assert errors == []
        lines = [line for p in tmp_path.iterdir()
                 for line in p.read_text().splitlines()]
        # every surviving line is whole — never torn mid-rotation; the
        # ladder prunes oldest backups, so the count is bounded not exact
        expected_len = len("a:0000:" + "p" * 10)
        assert lines and all(len(line) == expected_len for line in lines)
        # per thread, whatever survived is a suffix of its writes — a
        # rotation may prune old lines but never reorders or skips
        for tag in "abcd":
            indexes = sorted(int(line.split(":")[1]) for line in lines
                             if line.startswith(tag))
            if indexes:  # a fast finisher can be pruned out entirely
                assert indexes == list(range(min(indexes), 50))


class TestJsonlExporterRotation:
    def test_exporter_rotates_and_keeps_valid_json(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = JsonlExporter(str(path), max_bytes=2000, backups=3)
        tracer = Tracer([exporter])
        for _ in range(30):
            span = tracer.begin("rule", attributes={"rule": "r"})
            tracer.finish(span)
        exporter.close()
        assert exporter.rotations > 0
        total = 0
        for candidate in tmp_path.iterdir():
            for line in candidate.read_text().splitlines():
                assert json.loads(line)["name"] == "rule"
                total += 1
        assert 0 < total <= 30

    def test_exporter_default_is_unrotated(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = JsonlExporter(str(path))
        exporter.export([Span("s", "t", "i", None, 0.0)])
        exporter.close()
        assert exporter.rotations == 0
        assert len(list(tmp_path.iterdir())) == 1
