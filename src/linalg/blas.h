// Level-1 vector kernels of the iterative solvers (Lanczos, ACA). Every
// matrix product goes through the blocked, SIMD-dispatched kernels of
// linalg/gemm.h.
#pragma once

#include <cstddef>

#include "linalg/matrix.h"

namespace sckl::linalg {

/// Dot product of two equal-length vectors.
double dot(const Vector& x, const Vector& y);

/// Euclidean norm.
double norm2(const Vector& x);

/// y += alpha * x.
void axpy(double alpha, const Vector& x, Vector& y);

/// x *= alpha.
void scale(double alpha, Vector& x);

}  // namespace sckl::linalg
