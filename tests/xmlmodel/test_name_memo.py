"""The parser's shared name memo: bounded, fault-free and thread-safe.

``repro.xmlmodel.parser`` resolves a raw name against a namespace scope
once per process, not once per parse.  That only stays an optimisation
if input cannot grow it, a name that does not resolve is never remembered,
and parses on different threads can share it.
"""

import subprocess
import sys
import threading

import pytest

from repro.xmlmodel import XMLSyntaxError, parse, parser, serialize


def memo_sizes():
    tables = [table for pair in parser._SCOPES.values() for table in pair]
    return len(parser._SCOPES), max(map(len, tables), default=0)


class TestBounds:
    def test_distinct_prefixes_and_names_stay_under_the_caps(self):
        parser._SCOPES.clear()
        for index in range(10_000):
            root = parse(f'<p{index}:a xmlns:p{index}="urn:scope:{index}"/>')
            assert root.name.uri == f"urn:scope:{index}"
            scopes, _ = memo_sizes()
            assert scopes <= parser._MAX_SCOPES
        for index in range(10_000):
            root = parse(f'<a><n{index} k{index}="v"/></a>')
            assert root.children[0].name.local == f"n{index}"
        scopes, names = memo_sizes()
        assert 0 < scopes <= parser._MAX_SCOPES
        assert names == parser._MAX_NAMES

    def test_long_names_and_uris_are_resolved_but_not_remembered(self):
        parser._SCOPES.clear()
        long_name = "n" * (parser._MAX_NAME_LENGTH + 1)
        long_uri = "urn:" + "u" * parser._MAX_URI_LENGTH
        assert parse(f"<{long_name}/>").name.local == long_name
        assert all(long_name not in table
                   for pair in parser._SCOPES.values() for table in pair)
        before = len(parser._SCOPES)
        root = parse(f'<p:a xmlns:p="{long_uri}"><p:b/></p:a>')
        assert root.children[0].name.uri == long_uri
        assert len(parser._SCOPES) == before

    def test_memory_does_not_grow_with_input(self):
        # A fresh interpreter, so the high-water mark is this work's own:
        # the same 2 000 documents first, then ten times as many distinct
        # scopes and names.  Without the caps the second figure is several
        # MB above the first.
        script = """
import resource, sys
from repro.xmlmodel import parse

def run(count):
    for index in range(count):
        parse(f'<p{index}:a xmlns:p{index}="urn:scope:{index}"/>')
        parse(f'<a><some-element-name-{index} attribute-{index}="v"/></a>')
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

print(run(2_000), run(20_000))
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={"PYTHONPATH": ":".join(sys.path)})
        assert result.returncode == 0, result.stderr
        warm, full = map(int, result.stdout.split())
        assert full - warm < 2048, (warm, full)          # kilobytes


class TestFaultsAreNotRemembered:
    @pytest.mark.parametrize("text, message", [
        ("<a>\n  <q:b/></a>", "undeclared namespace prefix: 'q'"),
        ('<a xmlns:p="http://www.w3.org/2000/xmlns/">\n <b p:x="1"/></a>',
         "xmlns is not a usable prefix"),
    ])
    def test_same_error_at_the_same_place_every_time(self, text, message):
        parser._SCOPES.clear()
        faults = []
        for _ in range(3):
            with pytest.raises(XMLSyntaxError) as caught:
                parse(text)
            faults.append((str(caught.value), caught.value.line,
                           caught.value.column))
        assert message in faults[0][0]
        assert faults[0] == faults[1] == faults[2]
        assert all("q:b" not in table and "p:x" not in table
                   for pair in parser._SCOPES.values() for table in pair)


class TestThreads:
    def test_parses_sharing_a_scope_build_equal_trees(self):
        text = ('<log:answers xmlns:log="urn:log" xmlns="urn:default">'
                + "".join(f'<log:answer n{index}="{index}"><item{index}/>'
                          f'<log:variable name="v{index}">{index}'
                          '</log:variable></log:answer>'
                          for index in range(60))
                + '</log:answers>')
        parser._SCOPES.clear()
        expected = parse(text)
        wire = serialize(expected)
        failures = []

        def work():
            try:
                for _ in range(40):
                    tree = parse(text)
                    if tree != expected or serialize(tree) != wire:
                        failures.append("unequal tree")
            except Exception as exc:        # a test thread must report, not die
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                parser._SCOPES.clear()      # every round races on a cold memo
                threads = [threading.Thread(target=work) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
