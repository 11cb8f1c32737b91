"""webshield: browser-independent anti-fingerprinting engine.

Subsystems:

* ``keyrand``   - deterministic keyed randomness, per origin and session
* ``farble``    - little-lie transforms for canvas, audio, GPU strings,
                  device identifiers, and geolocation
* ``profiles``  - protection profiles mapping endpoint groups to actions
* ``timeshield``- timestamp quantization and keyed randomization
* ``sensorsim`` - fake readings for a simulated stationary device
* ``fpd``       - heuristic fingerprinting detection over call traces
* ``nbs``       - network boundary classification and decisions
* ``proxy``     - filtering forward proxy enforcing those decisions
"""

__version__ = "0.1.0"

from .keyrand import (  # noqa: F401
    FarbleSeed,
    Origin,
    SessionKey,
    derive_seed,
    keystream_bytes,
    new_session_key,
    normalize_origin,
    uniform01,
    uniform_range,
)
