"""Physical constants in SI units: the exact values of the 2019 SI."""
import math

E_CHARGE = 1.602176634e-19  # elementary charge, C
K_B = 1.380649e-23  # Boltzmann constant, J/K
HBAR = 6.62607015e-34 / (2 * math.pi)  # reduced Planck constant, J s
