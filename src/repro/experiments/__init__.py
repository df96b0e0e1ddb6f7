"""Per-table/figure experiment harness (see DESIGN.md section 4).

The package re-exports nothing, so importing the registry loads only
the registry: import from the defining modules.
"""

__all__: list = []
