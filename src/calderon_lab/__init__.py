"""Numerical laboratory for Dirichlet-to-Neumann maps on cylinder metrics.

The package builds finite-element DN maps for Laplace-Beltrami operators
on [0,1] x T^{n-1}, checks the conformal and diffeomorphism gauge
identities that leave those maps invariant, and studies coefficient
datasets whose rough t-only parts break unique continuation: the gap
between the DN maps of a metric and its conformal rescalings is measured
directly, together with the volume obstruction showing the rescaled
family is not isometric to the base.
"""
