"""Repository tooling: the ``reprolint`` analyzer.

``tools`` is a plain package so CI and the test suite can run the static
analyzer as a module from the repository root::

    python -m tools.reprolint src
"""
