// Span-based vector kernels. These are the distance/accumulation primitives
// the sequential detector runs per sample, so they are kept allocation-free.
#pragma once

#include <cstddef>
#include <span>

namespace edgedrift::linalg {

/// Dot product of equally sized spans.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> a);

/// Sum of |a_i|.
double norm1(std::span<const double> a);

/// L2 distance between two points.
double l2_distance(std::span<const double> a, std::span<const double> b);

/// Squared L2 distance (no sqrt; used in argmin loops).
double squared_l2_distance(std::span<const double> a,
                           std::span<const double> b);

/// f32-tier squared L2 distance: float lane set, float accumulators. Used
/// by the tiered scoring paths; error-bounded, not bit-comparable to the
/// double overload.
float squared_l2_distance(std::span<const float> a, std::span<const float> b);

/// out[c] = double(squared_l2_distance(a, block c)) / a.size() for every
/// c < out.size(), where block c is blocks[c*n, (c+1)*n) with n = a.size():
/// the per-label MSE scores of one fused f32 reconstruction row, all in one
/// loop. Each block runs the float squared_l2_distance's body op for op, so
/// out[c] has the bits of the single call's score.
void block_mse(std::span<const float> a, std::span<const float> blocks,
               std::span<double> out);

/// dst[i] = (float)src[i] — the f64 -> f32 tier boundary crossing (hidden
/// activations, probe rows). Sizes must match.
void narrow(std::span<const double> src, std::span<float> dst);

/// L1 (Manhattan) distance — the metric of the paper's Algorithm 1 line 14.
double l1_distance(std::span<const double> a, std::span<const double> b);

/// Float overloads of l1_distance, copy, running_mean_update and
/// ewma_update for the float32 MCU profile (drift/steps.hpp at float):
/// plain ascending loops, not bit-comparable to the double overloads.
float l1_distance(std::span<const float> a, std::span<const float> b);
void copy(std::span<const float> src, std::span<float> dst);
void running_mean_update(std::span<float> mean, std::span<const float> x,
                         std::size_t count);
void ewma_update(std::span<float> mean, std::span<const float> x,
                 float decay);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// dst = src.
void copy(std::span<const double> src, std::span<double> dst);

/// Sets every element of `v` to `value`.
void fill(std::span<double> v, double value);

/// Running-mean update: mean = (mean * count + x) / (count + 1), the
/// sequential centroid update of Algorithm 1 line 12 / Algorithm 4 line 3.
void running_mean_update(std::span<double> mean, std::span<const double> x,
                         std::size_t count);

/// Exponentially weighted mean update: mean = decay*mean + (1-decay)*x.
/// The paper notes newer samples may be weighted higher when forming the
/// "recent" test centroids; this is that variant.
void ewma_update(std::span<double> mean, std::span<const double> x,
                 double decay);

/// Mean of `v`.
double mean(std::span<const double> v);

/// Population standard deviation of `v` (the paper's Eq. 1 uses 1/N).
double stddev_population(std::span<const double> v);

}  // namespace edgedrift::linalg
