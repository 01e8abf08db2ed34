"""Correctness tooling for the STM runtime and the paper's API discipline.

Three coordinated passes, one ``Finding`` model, one CLI::

    python -m repro.analysis                 # static passes on src/ + examples/
    python -m repro.analysis --list-rules    # the rule catalog
    STMSAN=1 python -m pytest ...            # dynamic sanitizer (lock order,
                                             # kernel mutations, use-after-reclaim)

* :mod:`repro.analysis.lockcheck` — static lock-discipline pass (STM101-103).
* :mod:`repro.analysis.absint` — CFG-based abstract interpreter: the
  path-sensitive STM201-205 protocol checker (backing the ``protolint``
  pass) plus the STM601-604 symbolic virtual-time rules (``absint``
  subcommand).
* :mod:`repro.analysis.sanitizer` — runtime shim recording dynamic findings
  (STM301-303) when ``STMSAN=1`` or :func:`sanitizer.enable` is called.
* :mod:`repro.analysis.stmgraph` — whole-program channel dataflow graph and
  the interprocedural STM501-505 rules (``stmgraph`` subcommand, with
  ``--format dot|json`` topology export).

All passes emit :class:`repro.analysis.findings.Finding` records with stable
rule ids; :mod:`repro.analysis.baseline` lets CI be strict on new code while
grandfathering documented findings, and :mod:`repro.analysis.sarif` renders
any finding list as SARIF 2.1.0 for code-scanning upload.
"""

from repro.analysis.findings import Finding, Rule, RULES, Severity
from repro.analysis.cli import main, run_static_passes

__all__ = ["Finding", "Rule", "RULES", "Severity", "main", "run_static_passes"]
