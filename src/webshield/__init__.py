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
# Schema versions ``--version`` prints beside the package version; kept
# here so that printing them loads no subsystem.
CONFIG_SCHEMA_VERSION = 1  # versions the FPD config format (``fpd``)
TABLE_SCHEMA_VERSION = 1  # versions the PROFILES table (``profiles``)
