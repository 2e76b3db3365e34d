#!/usr/bin/env python3
"""Alias of ``zdx audit-family``, the family-wide balance audit: same options,
output and exit codes.  perfbench's certify workload runs this path."""

import sys

from zdx.cli import cli

if __name__ == "__main__":
    cli(["audit-family", *sys.argv[1:]], prog_name="zdx")
