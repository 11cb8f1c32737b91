"""Command-line entry point wiring every subsystem together.

All keyed randomness flows through one session key and origin, so any
invocation with a pinned ``--session`` is byte-for-byte reproducible.
Exit codes: 0 on success (a fingerprinting detection is a result, not a
failure), 1 on domain errors and on files that cannot be read or written,
2 on usage errors.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import CONFIG_SCHEMA_VERSION, TABLE_SCHEMA_VERSION, __version__

# Each command imports the subsystems it runs when it runs, so that a
# command loads only its own and ``--version`` and ``--help`` load none.
# For the same reason the options spell out their enums' values and the
# quantum default; a test holds them to the subsystems' own.  A name
# imported at call time is the one its module holds then, so a wrapper or
# a test patch installed on a subsystem's function sees the CLI's calls.

VERSION_TEXT = (
    f"webshield {__version__} "
    f"(fpd-config-schema {CONFIG_SCHEMA_VERSION}, profile-table-schema {TABLE_SCHEMA_VERSION})"
)


def _parse_session(ctx, param, value):
    from .keyrand import SessionKey, new_session_key

    if value is None:
        key = new_session_key()
        click.echo(f"session={key.hex()}", err=True)
        return key
    try:
        return SessionKey.from_hex(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _parse_origin(ctx, param, value):
    from .keyrand import Origin

    try:
        return Origin.parse(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


session_option = click.option(
    "--session",
    metavar="HEX64",
    callback=_parse_session,
    help="Session key as 64 hex chars; generated (and echoed) if omitted.",
)
origin_option = click.option(
    "--origin",
    metavar="ORIGIN",
    required=True,
    callback=_parse_origin,
    help="Origin the lies are keyed to, e.g. https://site.example.",
)
profile_option = click.option(
    "--profile",
    type=click.Choice(["p1", "p2", "p3"]),
    default="p1",
    show_default=True,
    help="Protection profile.",
)


class _DomainError(click.ClickException):
    exit_code = 1


class _Main(click.Group):
    """The root group: a ValueError or OSError from any command exits 1 as a
    domain error.  A broken pipe is left to click, which exits 1 silently."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (ValueError, OSError) as exc:
            raise _DomainError(str(exc))


def _protect(profile: str, group: str, payload, little_lie):
    """Announce the profile's action for ``group`` on stderr, then apply it.

    Each command imports its little lie's function from ``farble`` when
    it runs, so a wrapper installed on ``farble`` sees the call.
    """
    from .profiles import PROFILES, protect

    action = PROFILES[profile].actions[group]
    click.echo(f"action={action.value} group={group}", err=True)
    return protect(action, group, payload, little_lie)


@click.group(cls=_Main)
@click.version_option(version=__version__, message=VERSION_TEXT)
def main():
    """Anti-fingerprinting engine: farbled values, fake sensors, shielded
    timestamps, fingerprinting detection, and boundary filtering."""


# ----------------------------------------------------------------------
# farble: little-lie transforms over media payloads


@main.group()
def farble():
    """Perturb readable media payloads with per-origin little lies."""


@farble.command("canvas")
@click.option("--in", "in_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@session_option
@origin_option
@profile_option
def farble_canvas(in_path, out_path, session, origin, profile):
    """Farble an RGBA bitmap file (LE32 w, LE32 h, RGBA bytes)."""
    from . import formats
    from .farble import farble_bitmap
    from .keyrand import derive_seed

    bitmap = formats.read_bitmap(in_path)
    out = _protect(profile, "canvas", bitmap,
                   lambda b: farble_bitmap(derive_seed(session, origin, "canvas"), b))
    if out is not None:
        formats.write_bitmap(out_path, out)


@farble.command("audio")
@click.option("--in", "in_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@session_option
@origin_option
@profile_option
def farble_audio_cmd(in_path, out_path, session, origin, profile):
    """Farble a raw audio file (LE32 rate, LE32 ch, LE32 frames, f32 LE)."""
    from . import formats
    from .farble import farble_audio
    from .keyrand import derive_seed

    audio = formats.read_audio(in_path)
    out = _protect(profile, "audio", audio,
                   lambda a: farble_audio(derive_seed(session, origin, "audio"), a))
    if out is not None:
        formats.write_audio(out_path, out)


@farble.command("geo")
@click.option("--lat", type=float, required=True)
@click.option("--lon", type=float, required=True)
@click.option("--accuracy", type=float, default=10.0, show_default=True)
@click.option("--precision", type=float, default=10000.0, show_default=True,
              help="Grid cell size in meters.")
@session_option
@origin_option
@profile_option
def farble_geo(lat, lon, accuracy, precision, session, origin, profile):
    """Degrade a coordinate to origin-keyed grid precision."""
    from .farble import GeoCoordinate, degrade_geolocation, validate_geo_request
    from .keyrand import derive_seed

    coord = GeoCoordinate(lat, lon, accuracy)
    validate_geo_request(precision)
    out = _protect(
        profile, "geolocation", coord,
        lambda c: degrade_geolocation(derive_seed(session, origin, "geo"), c, precision),
    )
    if out is not None:
        click.echo(json.dumps(
            {"latitude": out.latitude, "longitude": out.longitude, "accuracy": out.accuracy}
        ))


# ----------------------------------------------------------------------
# spoof: generated identity surfaces


@main.group()
def spoof():
    """Generate spoofed identity values (GPU strings, device ids)."""


@spoof.command("gl")
@session_option
@origin_option
@profile_option
def spoof_gl(session, origin, profile):
    """Emit the four spoofed GPU identity strings as JSON."""
    from .farble import spoof_gl_strings
    from .keyrand import derive_seed

    strings = _protect(profile, "webgl", None,
                       lambda _: spoof_gl_strings(derive_seed(session, origin, "webgl")))
    if strings is not None:
        click.echo(json.dumps(strings.as_dict()))


@spoof.command("devices")
@click.option("--count", type=int, default=3, show_default=True)
@session_option
@origin_option
@profile_option
def spoof_devices(count, session, origin, profile):
    """Emit spoofed media device identifiers, one per line."""
    from .farble import spoof_device_ids, validate_device_count
    from .keyrand import derive_seed

    validate_device_count(count)
    ids = _protect(profile, "mediadevices", None,
                   lambda _: spoof_device_ids(derive_seed(session, origin, "mediadevices"), count))
    for device_id in ids or ():
        click.echo(device_id)


# ----------------------------------------------------------------------
# sensors


@main.group()
def sensors():
    """Fake sensor streams for the simulated stationary device."""


@sensors.command("gen")
@click.option("--sensor", "kind", required=True, type=click.Choice(  # sensorsim.SensorKind
    ["magnetometer", "accelerometer", "linear_acceleration", "gravity", "gyroscope",
     "orientation_abs", "orientation_rel", "ambient_light"]
))
@click.option("--rate", type=float, required=True, help="Sample rate in Hz.")
@click.option("--duration", type=float, required=True, help="Trace length in seconds.")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv",
              show_default=True)
@click.option("--quantum", type=float, default=10.0, show_default=True,  # DEFAULT_QUANTUM_MS
              help="Timestamp shield quantum in ms.")
@session_option
@origin_option
def sensors_gen(kind, rate, duration, fmt, quantum, session, origin):
    """Generate a sensor trace at a fixed rate."""
    from .keyrand import derive_seed
    from .sensorsim import SensorKind, init_device_state, sample_many
    from .timeshield import ShieldConfig

    if not (0 < rate < math.inf and 0 <= duration < math.inf and rate * duration < math.inf):
        raise _DomainError(
            "rate must be finite and > 0, duration finite and >= 0, and their product finite"
        )
    state = init_device_state(derive_seed(session, origin, "sensor"))
    shield_cfg = ShieldConfig(quantum_ms=quantum)
    kind = SensorKind(kind)
    if fmt == "csv":
        if kind in (SensorKind.ORIENTATION_ABS, SensorKind.ORIENTATION_REL):
            click.echo("t_ms,qw,qx,qy,qz")
        elif kind is SensorKind.AMBIENT_LIGHT:
            click.echo("t_ms,value")
        else:
            click.echo("t_ms,x,y,z")
    times = (i * 1000.0 / rate for i in range(int(rate * duration)))
    write = sys.stdout.write
    try:
        for reading in sample_many(state, kind, times, shield_cfg):
            value = reading.value
            if fmt == "jsonl":
                write(json.dumps(
                    {"t_ms": reading.timestamp_ms, "kind": kind.value, "value": value}
                ) + "\n")
            else:
                cells = value if isinstance(value, tuple) else (value,)
                write(",".join([f"{reading.timestamp_ms:.6f}"] + [f"{c:.9g}" for c in cells])
                      + "\n")
    finally:
        sys.stdout.flush()  # a pipe or file is block-buffered


# ----------------------------------------------------------------------
# time


@main.group()
def time():
    """Timestamp shielding."""


@time.command("shield")
@click.option("--quantum", type=float, default=10.0, show_default=True)  # DEFAULT_QUANTUM_MS
@click.option("--no-randomize", is_flag=True, default=False)
@session_option
@origin_option
def time_shield(quantum, no_randomize, session, origin):
    """Shield newline-separated millisecond timestamps from stdin."""
    from .keyrand import derive_seed
    from .timeshield import ShieldConfig, shield_stream

    cfg = ShieldConfig(quantum_ms=quantum, randomize=not no_randomize)
    seed = derive_seed(session, origin, "time")

    def parse_lines():
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                yield float(line)
            except ValueError:
                raise ValueError(f"not a timestamp: {line!r}") from None

    write = sys.stdout.write
    try:
        for shielded in shield_stream(seed, parse_lines(), cfg):
            write(f"{shielded!r}\n")
    finally:
        sys.stdout.flush()  # a pipe or file is block-buffered


# ----------------------------------------------------------------------
# fpd


@main.group()
def fpd():
    """Fingerprinting detection over API-call traces."""


@fpd.command("analyze")
@click.option("--trace", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path))
@click.option("--mode", type=click.Choice(["passive", "notify", "block"]),  # fpd.FpdMode
              default="passive", show_default=True)
@click.option("--report", "report_path", type=click.Path(path_type=Path))
def fpd_analyze(trace, config_path, mode, report_path):
    """Analyze a trace file and render the detection report."""
    from .fpd import analyze_trace, block_directives, default_config, load_fpd_config

    cfg = load_fpd_config(config_path) if config_path else default_config()
    _state, verdict, report = analyze_trace(trace, cfg)
    click.echo(report.to_text())
    if report_path:
        report_path.write_text(report.to_json() + "\n")
    for directive in block_directives(verdict, mode):
        click.echo(f"directive: {directive.value}")


# ----------------------------------------------------------------------
# nbs


@main.group()
def nbs():
    """Network boundary decisions and the filtering proxy."""


origin_class_option = click.option(
    "--origin-class", default="public", show_default=True,
    type=click.Choice(  # nbs.AddressClass
        ["loopback", "private", "link_local", "unique_local", "unspecified", "public"]
    ),
)
nbs_mode_option = click.option(
    "--mode", type=click.Choice(["preresolve", "learn"]),  # nbs.NbsMode
    default="preresolve", show_default=True,
)


@nbs.command("check")
@origin_class_option
@click.option("--target", required=True, metavar="HOST[:PORT]")
@click.option("--resolved", metavar="IP", help="Resolved address (preresolve mode only).")
@nbs_mode_option
def nbs_check(origin_class, target, resolved, mode):
    """Decide one request and print the decision."""
    from .nbs import AddressClass, LearnCache, NbsMode, decide, gate, parse_ip, split_authority

    mode = NbsMode(mode)
    origin = AddressClass(origin_class)
    if target.count(":") > 1 and not target.startswith("["):
        parse_ip(target)  # bare IPv6 literal: its colons separate no port
        host, port = target, 0
    else:
        host, port = split_authority(target, 0)
    if resolved is not None and mode is NbsMode.LEARN_ON_REPLY:  # a bad target still exits 1
        raise click.UsageError("--resolved applies only to --mode preresolve")
    if resolved is not None or mode is NbsMode.LEARN_ON_REPLY:  # learn mode never connects
        decision = decide(mode, origin, host, resolved, LearnCache())
    else:
        try:
            decision, _ = gate(mode, origin, host, port, LearnCache())
        except OSError as exc:
            raise _DomainError(f"resolver failure for {host!r}: {exc}")
    suffix = f": {decision.reason}" if decision.reason else ""
    click.echo(f"{decision.value.value}{suffix}")


@nbs.command("proxy")
@click.option("--listen", default="127.0.0.1:8080", show_default=True,
              metavar="ADDR:PORT")
@nbs_mode_option
@origin_class_option
@click.option("--log", "log_path", type=click.Path(path_type=Path),
              help="JSONL decision log.")
def nbs_proxy(listen, mode, origin_class, log_path):
    """Run the filtering forward proxy until interrupted."""
    from .nbs import AddressClass, NbsMode
    from .proxy import ProxyConfig, run_proxy

    host, _, port_text = listen.rpartition(":")
    if not (port_text.isascii() and port_text.isdigit() and int(port_text) < 65536):
        raise click.BadParameter(f"invalid listen address: {listen!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]  # bracketed IPv6
    config = ProxyConfig(
        listen_host=host or "127.0.0.1",
        listen_port=int(port_text),
        mode=NbsMode(mode),
        origin_class=AddressClass(origin_class),
        log_path=log_path,
    )
    try:
        service = run_proxy(config)
    except OSError as exc:
        raise _DomainError(f"cannot start the proxy on {listen!r}: {exc}")
    import signal
    import threading

    # handlers go in before the banner: a caller may signal once it reads it
    stopping = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stopping.set())
    bound_host, bound_port = service.address
    if ":" in bound_host:
        bound_host = f"[{bound_host}]"
    click.echo(f"listening on {bound_host}:{bound_port} mode={mode}")
    sys.stdout.flush()
    try:
        stopping.wait()
    finally:
        service.stop()  # flushes pending coalesced log windows
