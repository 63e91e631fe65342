"""Self-similar blowup profiles of the focusing semilinear wave equation.

The profile equation for u(rho) on the backward light cone of a blowup
point is solved by double shooting: series launches at the two singular
endpoints (center and cone), high-order integration toward a matching
radius, and Newton refinement of the parameter pair (c, b) = (u(0), u(1)).
The package computes the countable family u_n, its nodal structure, the
monotone functionals that constrain it, the large-amplitude limit and
cone linearization whose ringdowns set the family's geometric scaling,
and a CLI that exports all of it deterministically.
"""

__version__ = "0.1.0"
