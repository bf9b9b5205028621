"""Full-enumeration IK round trip: the reference for the hinted one.

``ik._roundtrip`` passes FK the solution's own t and alpha, so that FK
builds one candidate where no other root can compete.  This is the round
trip it replaced: it solves every t root and alpha root of the solution's
planar-loop elbow and reads the solution nearest the target pose.  The
hinted round trip must give the same verdict and the same residual, bit
for bit.
"""

import math

from trirail import fk, ik


def roundtrip(pose, solution, params, closure_tol=fk.CLOSURE_TOL,
              roundtrip_tol=ik.ROUNDTRIP_TOL):
    """``(roundtrip, roundtrip_residual)`` of ``solution`` by full enumeration."""
    inputs = solution.inputs
    y_c1 = pose.y + params.l3 / 2.0
    z_c1 = pose.z - params.l4 * math.sin(solution.alpha)
    if solution.parallel_singular:
        cos_gamma = (y_c1 - inputs.yA1) / params.l2
        sin_gamma = (z_c1 - params.l1) / params.l2
        mode = "singular-family"
    else:
        cos_gamma, (sin_gamma, _) = fk.solve_gamma(inputs, params)
        if z_c1 < params.l1 and sin_gamma:
            sin_gamma = -sin_gamma
        mode = "direct"
    best = math.inf
    for sol in fk.solve_at_gamma(inputs, params, cos_gamma, sin_gamma, closure_tol=closure_tol):
        dev = max(abs(sol.pose.x - pose.x), abs(sol.pose.y - pose.y), abs(sol.pose.z - pose.z))
        if dev < best:
            best = dev
    return (mode if best <= roundtrip_tol else "failed"), best
