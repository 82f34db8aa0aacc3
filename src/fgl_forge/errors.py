"""Exception taxonomy shared by every module in the package.

Two families matter to callers.  A *usage* error is a ValueError: an
operation was handed something outside its contract, or input past a size
window.  A *consistency* error is a ConsistencyFailure: a theorem or a second
internal route failed on values the code computed itself, which signals a
bug, never a false claim.  A false claim is no exception: its verifier
returns a failed report.  The command line (`cli`) maps both families to
exit code 2.
"""


class ConsistencyFailure(Exception):
    """Two internally computed routes to the same value disagree."""
