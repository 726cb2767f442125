"""Regenerate the scripted fixtures and golden decode results.

Run from the repository root:

    python3 tests/make_fixtures.py

Fixtures are full scripted candidate trees (see fixture_specs.py); goldens
are the canonical-JSON DecodeResult of each method on each fixture. Both
are checked in; tests replay the fixtures and demand byte equality with
the goldens, so regenerating after an intentional engine change is the
only time this script should produce a diff.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from fixture_specs import (  # noqa: E402
    FIXTURE_DIR,
    GOLDEN_DIR,
    METHODS,
    SPECS,
    build_fixture_records,
    decode_config_for,
    phi_config_for,
)

from driftbeam.backends.scripted import ScriptedModel, save_fixture  # noqa: E402
from driftbeam.metrics import canonical_json  # noqa: E402
from driftbeam.runner import decode_with  # noqa: E402


def run_method(method: str, spec, records) -> bytes:
    model = ScriptedModel(records)
    config = decode_config_for(spec)
    result = decode_with(method, model, spec.prompt, config, phi_config_for(spec))
    return canonical_json(result.to_dict())


def main() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for spec in SPECS:
        records = build_fixture_records(spec)
        save_fixture(spec.fixture_path, records)
        for method in METHODS:
            payload = run_method(method, spec, records)
            spec.golden_path(method).write_bytes(payload + b"\n")
        print(f"{spec.name}: {len(records)} records, goldens for {', '.join(METHODS)}")


if __name__ == "__main__":
    main()
