/// \file steady_state.h
/// \brief Steady-state solution of the thermal network: G·θ = p (Eq. 4 with
/// i = 0, i.e. no Peltier coupling; the TEC-coupled system is solved by
/// tec::ElectroThermalSystem).
#pragma once

#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"
#include "thermal/package_model.h"

namespace tfc::thermal {

/// Solve G·θ = rhs for an assembled network matrix by sparse Cholesky.
/// Throws std::runtime_error if the matrix is not positive definite.
linalg::Vector solve_steady_state(const linalg::SparseMatrix& g,
                                  const linalg::Vector& rhs);

/// Convenience: assemble and solve a package model at its current power
/// settings. Returns full node temperatures [K].
linalg::Vector solve_steady_state(const PackageModel& model);

}  // namespace tfc::thermal
