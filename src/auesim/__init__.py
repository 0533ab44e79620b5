"""Counting active users from the 2 x 2 pilot covariance under carrier frequency offsets.

The package simulates a grant-free uplink where every active user sends the
same two-symbol pilot, forms the sample covariance of the two received symbol
snapshots, and compares four integer counting schemes on it, together with the
closed-form error curve of the eigenvalue-sum scheme.  The package itself
re-exports nothing; import the layers as submodules.
"""

__version__ = "0.4.1"
