"""Suite-wide pytest hooks.

The report header names the ``slabel`` package the tests imported.
``pyproject.toml``'s ``pythonpath`` puts the checkout's own ``src/`` ahead
of ``PYTHONPATH``, so a run started in one checkout tests that checkout's
code whatever ``PYTHONPATH`` says; the header shows which tree a run
tested.  pytest prints it at the default verbosity and above (``-q``
hides the header).
"""

from pathlib import Path


def pytest_report_header(config):
    import slabel

    return f"slabel: {Path(slabel.__file__).resolve().parent}"
