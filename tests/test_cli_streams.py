"""The line-streaming commands, `time shield` and `sensors gen`: every
output byte pinned, partial output before a bad line, a reader that goes
away early, and hostile numeric options; hostile numbers and text for
`farble geo` and `nbs check` too."""

import hashlib
import math
import os
import pty
import random
import select
import socket
import subprocess
import sys
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from webshield.cli import main

FIXED_SESSION = "00" * 32
ORIGIN = "https://a.example"
KEYS = ["--origin", ORIGIN, "--session", FIXED_SESSION]


@pytest.fixture
def runner():
    return CliRunner()


def timestamp_lines():
    """10k seeded timestamps in 10 ms buckets: runs inside one bucket,
    steps to the next bucket and skips of up to 40 buckets, in about equal
    parts.  Only ``Random.random`` is used, whose sequence Python keeps
    stable."""
    rng = random.Random(8)
    bucket, lines = 0, []
    for _ in range(10_000):
        step = rng.random()
        if step >= 0.7:
            bucket += 2 + int(rng.random() * 40)
        elif step >= 0.4:
            bucket += 1
        lines.append(f"{(bucket + rng.random()) * 10.0:.4f}\n")
    return "".join(lines)


# SHA-256 of stdout for the 10k timestamps above, at the default quantum
TIME_SHIELD_SHA = "58844c35b8ecfbaf99f22e0bde0c2e11107069cf35817742c6c311dd1c525f09"
# (sensor, format) -> SHA-256 of stdout at --rate 50 --duration 20
SENSORS_GEN_SHA = {
    ("magnetometer", "csv"):
        "413e19e86d6a08df51740b92e7dbf953797b214f8e1a55e69bfd1eeb87cc0248",
    ("magnetometer", "jsonl"):
        "15e72a80fb908384d088758a5021db04a92625d091e70c611b2cffd09fee257c",
    ("accelerometer", "csv"):
        "d79ea37199d8dca9b74243463704565c43ae9e3cee0f72e3104748c11e640567",
    ("accelerometer", "jsonl"):
        "237a7376086a8f89aa49562b9f08da62e26666bc10b8a34474006edda11138d7",
    ("orientation_abs", "csv"):
        "6ee10ce6d369ffd325276179a71c626e2a4d12eb52415f88afbc69d82f0cbc4f",
    ("orientation_abs", "jsonl"):
        "decc62db375971309fd3227f48469298c6c81ccb2e7b4976ca63d9bbf80e40c0",
    ("gravity", "csv"):
        "a304cbb6282ee1aa519b28072beb97739bf8928a3e4c70f0702d96ae2f527796",
    ("linear_acceleration", "csv"):
        "3369ef6d6210af1cc96fa02f8df03ce1ba234154fdf62f19ef6535c77a25eb01",
    ("gyroscope", "csv"):
        "e78c51b2115d73848babbca07159136d13756ffd351fef476516a28006c5ef78",
    ("orientation_rel", "csv"):
        "d2b0c46bc408e8df135533c728beb94994d207e9505ef19549860cef6b4a4f6a",
    ("ambient_light", "csv"):
        "6ca081ba707ee901f252c68e3c1ed9b04a677b13b41324d603f45a4754cd3ec4",
}


class TestStreamGolden:
    def test_time_shield_bytes(self, runner):
        result = runner.invoke(main, ["time", "shield", *KEYS], input=timestamp_lines())
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 10_000
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == TIME_SHIELD_SHA

    @pytest.mark.parametrize("sensor, fmt", sorted(SENSORS_GEN_SHA))
    def test_sensors_gen_bytes(self, runner, sensor, fmt):
        result = runner.invoke(main, ["sensors", "gen", "--sensor", sensor, "--rate", "50",
                                      "--duration", "20", "--format", fmt, *KEYS])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == SENSORS_GEN_SHA[sensor, fmt]


def webshield(args, unbuffered=False, **kwargs):
    """Start ``python -m webshield ARGS`` with the interpreter's default
    buffering: stdout on a pipe is block-buffered, as in a shell pipeline.
    ``unbuffered`` sets PYTHONUNBUFFERED, so each line is its own write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "webshield", *args, *KEYS], env=env,
                            text=True, **kwargs)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestPartialOutput:
    @pytest.mark.parametrize("bad, message", [
        ("x", "not a timestamp: 'x'"),
        ("inf", "timestamp must be finite and >= 0, got inf"),
    ])
    def test_lines_before_a_bad_line_come_out_before_the_error(self, tmp_path, bad, message,
                                                               unbuffered):
        """As in ``webshield time shield <in >out 2>&1``: stdout is a pipe,
        so block-buffered unless ``unbuffered``, and stderr shares it."""
        path = tmp_path / "in.txt"
        path.write_text(f"5\n6\n{bad}\n")
        with open(path) as stdin:
            process = webshield(["time", "shield"], unbuffered, stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 1
        assert output == "5.408292027151002\n" * 2 + f"Error: {message}\n"

    def test_sensor_rows_before_an_overflowing_timestamp_come_out_before_the_error(self,
                                                                                   unbuffered):
        """The second reading's bucket index overflows: the header and the
        first row still come out, in order, before the error."""
        process = webshield(["sensors", "gen", "--sensor", "magnetometer", "--rate", "1",
                             "--duration", "3", "--quantum", "5e-324"], unbuffered,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 1
        assert output == (
            "t_ms,x,y,z\n0.000000,2.00496108,30.2542311,13.8906842\n"
            "Error: timestamp 1000.0 over quantum 5e-324 overflows the bucket index\n")


class TestTerminal:
    def test_time_shield_prints_each_line_as_its_timestamp_arrives(self):
        """As in typing timestamps at a terminal: the shielded line comes
        back while stdin is still open."""
        master, slave = pty.openpty()
        process = webshield(["time", "shield"], stdin=subprocess.PIPE, stdout=slave,
                            stderr=subprocess.DEVNULL)
        os.close(slave)
        try:
            process.stdin.write("5\n")
            process.stdin.flush()
            output = b""
            while b"\n" not in output:
                ready, _, _ = select.select([master], [], [], 60)
                assert ready, f"no line within 60 s, got {output!r}"
                output += os.read(master, 1024)
            assert output == b"5.408292027151002\r\n"  # the terminal adds the \r
        finally:
            process.stdin.close()
            process.wait(timeout=60)
            os.close(master)


class TestClosedReader:
    @pytest.mark.parametrize("args, n_lines", [
        (["time", "shield"], 50_000),
        (["sensors", "gen", "--sensor", "magnetometer", "--rate", "1000", "--duration", "60"],
         0),
    ], ids=["time-shield", "sensors-gen"])
    def test_reader_closing_after_one_line_exits_1_quietly(self, tmp_path, args, n_lines):
        """As in ``webshield ... | head -1``: EPIPE ends the command with
        exit 1 and nothing on stderr."""
        path = tmp_path / "in.txt"
        path.write_text("".join(f"{i * 0.7:.1f}\n" for i in range(n_lines)))
        with open(path) as stdin:
            process = webshield(args, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert process.stdout.readline()
        process.stdout.close()
        _, stderr = process.communicate(timeout=60)
        assert (process.returncode, stderr) == (1, "")


# any float, with the edges named so that every run tries them
ANY_FLOAT = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-320, -1.0, 1e308, math.inf, -math.inf, math.nan])


def assert_clean(result):
    """Exit 0, 1 or 2 through click; an escaped exception is a traceback
    in a real run."""
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    assert "Traceback" not in result.output


class TestHostileNumbers:
    @given(rate=ANY_FLOAT, duration=ANY_FLOAT, quantum=ANY_FLOAT)
    @example(rate=1.0, duration=3.0, quantum=5e-324)  # the bucket index overflowed
    @settings(max_examples=100, deadline=None)
    def test_sensors_gen_options(self, rate, duration, quantum):
        assume(not (0 < rate < math.inf and 0 <= duration < math.inf
                    and rate * duration > 200))
        result = CliRunner().invoke(main, [
            "sensors", "gen", "--sensor", "magnetometer", f"--rate={rate!r}",
            f"--duration={duration!r}", f"--quantum={quantum!r}", *KEYS])
        assert_clean(result)

    @given(quantum=ANY_FLOAT, randomize=st.booleans())
    @example(quantum=5e-324, randomize=True)  # the bucket index overflowed
    @example(quantum=5e-324, randomize=False)
    @settings(max_examples=100, deadline=None)
    def test_time_shield_quantum(self, quantum, randomize):
        flags = [] if randomize else ["--no-randomize"]
        result = CliRunner().invoke(main, ["time", "shield", f"--quantum={quantum!r}",
                                           *flags, *KEYS], input="0\n5\n1e6\n")
        assert_clean(result)

    @given(lat=ANY_FLOAT, lon=ANY_FLOAT, accuracy=ANY_FLOAT, precision=ANY_FLOAT,
           profile=st.sampled_from(["p1", "p2", "p3"]))
    @example(lat=0.0, lon=0.0, accuracy=0.0, precision=5e-324, profile="p1")  # cell of 0 degrees
    @settings(max_examples=100, deadline=None)
    def test_farble_geo_numbers(self, lat, lon, accuracy, precision, profile):
        result = CliRunner().invoke(main, [
            "farble", "geo", f"--lat={lat!r}", f"--lon={lon!r}", f"--accuracy={accuracy!r}",
            f"--precision={precision!r}", f"--profile={profile}", *KEYS])
        assert_clean(result)


def fake_getaddrinfo(host, port, *args, **kwargs):
    """A resolver that never leaves the process: odd-length names fail."""
    if len(host) % 2:
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
    return [(socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", port))]


class TestHostileText:
    @given(target=st.text(max_size=40) | st.from_regex(r"\[?[0-9a-f:.]{0,20}\]?(:[0-9]{0,6})?"),
           resolved=st.none() | st.text(max_size=20) | st.sampled_from(["127.0.0.1", "::1"]),
           mode=st.sampled_from(["preresolve", "learn"]))
    @example(target="a::b..c", resolved=None, mode="preresolve")  # skipped the parser
    @settings(max_examples=100, deadline=None)
    def test_nbs_check_target(self, target, resolved, mode):
        args = ["nbs", "check", f"--target={target}", f"--mode={mode}"]
        if resolved is not None:
            args.append(f"--resolved={resolved}")
        with mock.patch.object(socket, "getaddrinfo", fake_getaddrinfo):
            result = CliRunner().invoke(main, args)
        assert_clean(result)
