"""``python -m repro <tool>`` — the one entry point of the six tools.

The repository has no packaging metadata, so no console scripts are
installed: with the package on ``PYTHONPATH=src`` (the CI and laptop
workflow) this module runs ``align``, ``bella``, ``bench``, ``service``,
``fuzz`` and ``obs``, whose usage lines call them ``repro-<tool>``:

.. code-block:: console

   python -m repro fuzz --seed 0 --count 500
   python -m repro align --pairs 10 --json
"""

from __future__ import annotations

import sys

from .cli import (
    main_align,
    main_bella,
    main_bench,
    main_fuzz,
    main_obs,
    main_service,
)

_TOOLS = {
    "align": main_align,
    "bella": main_bella,
    "bench": main_bench,
    "service": main_service,
    "fuzz": main_fuzz,
    "obs": main_obs,
}


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``python -m repro <tool> [args...]`` to the tool's main."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        names = ", ".join(sorted(_TOOLS))
        print(f"usage: python -m repro <tool> [args...]\n\ntools: {names}")
        return 0 if argv else 2
    tool = _TOOLS.get(argv[0])
    if tool is None:
        names = ", ".join(sorted(_TOOLS))
        print(f"unknown tool {argv[0]!r}; available: {names}", file=sys.stderr)
        return 2
    return tool(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
