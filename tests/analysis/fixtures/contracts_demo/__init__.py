"""Seeded contract violations — one per C-rule — for the analyzer tests.

Every module here contains both a deliberate violation and a nearby
correct twin, so the tests pin false-negative AND false-positive
behavior.  A repo-wide run reads this tree only as a reference root
(its strings count as read sites; ``[tool.detlint] exclude`` keeps the
D-rules off it); only ``tests/analysis/test_contracts.py`` analyzes it
as a program.
"""
