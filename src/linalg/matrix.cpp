#include "edgedrift/linalg/matrix.hpp"

#include "edgedrift/util/rng.hpp"

namespace edgedrift::linalg {

// The rng-dependent factories live here so matrix.hpp does not pull in the
// Rng header; everything else is inline in the header since the
// templatization. The static_cast matters only for the int8 instantiation
// (test fixtures drawing small integer payloads); double/float narrow as
// usual.
template <typename T>
MatrixT<T> MatrixT<T>::random_uniform(std::size_t rows, std::size_t cols,
                                      util::Rng& rng, double lo, double hi) {
  MatrixT out(rows, cols);
  for (auto& v : out.data_) v = static_cast<T>(rng.uniform(lo, hi));
  return out;
}

template <typename T>
MatrixT<T> MatrixT<T>::random_gaussian(std::size_t rows, std::size_t cols,
                                       util::Rng& rng, double stddev) {
  MatrixT out(rows, cols);
  for (auto& v : out.data_) v = static_cast<T>(rng.gaussian(0.0, stddev));
  return out;
}

// The f64 and f32 tier scalars (linalg/numerics.hpp).
template class MatrixT<double>;
template class MatrixT<float>;

}  // namespace edgedrift::linalg
