// AccumulateRows: the dense similarity-weighted row sum at the heart of
// the A_R reconstruction (Algorithm 1 lines 8-20) —
//
//     out[i] += scales[k] * rows[k][i]    for k in row order, all items i
//
// factored out of artifact/reconstruct.h so the reconstruction loop
// (serving::ReconstructTopN, the one implementation of the Cluster
// mechanism) and the kernel benchmarks share one kernel.
//
// Determinism contract: for each item i the terms are added in row order
// k = 0..num_rows-1, exactly one rounding per multiply and one per add —
// the FP accumulation order of the original scalar loop. The AVX2 path
// vectorizes across *items* (independent accumulators) with separate
// mul/add intrinsics (no FMA contraction), so it is bit-identical to the
// scalar path; kernels_test pins exact equality at every tail length.
// The scalar path is compiled with auto-vectorization off so it stays a
// genuinely scalar reference: an exact-equality failure bisects to the
// SIMD lanes, never to the autovectorizer.
//
// SumBlock is the short-range form the pruned reconstruction runs: the
// same sum over a range of items from an offset, onto +0.0 instead of
// onto `out`. Per element it is the same add sequence, so it leaves the
// bits AccumulateRows leaves in a zeroed buffer.
//
// Both are one sum, with one body per row type and level: the scalar
// body sums the whole range; the AVX2 body sums a chunk of at most
// kSumBlockMaxItems items with every lane accumulator in a register
// across all rows, so each chunk of `out` is read at most once and
// written once, and each row element read once. AccumulateRows runs it
// chunk after chunk; per element the order over k is unchanged.

#ifndef PRIVREC_KERNELS_ACCUMULATE_H_
#define PRIVREC_KERNELS_ACCUMULATE_H_

#include <cstdint>

namespace privrec::kernels {

// The most items one AVX2 body call sums: eight 4-wide f64 lanes, which
// stay in registers with the row operand and the broadcast scale.
inline constexpr int64_t kSumBlockMaxItems = 32;

// out[i] += scales[k] * rows[k][i], dispatched (ActiveDispatchLevel).
// `out` must hold num_items finite doubles (callers zero-fill first);
// num_rows == 0 is a no-op. Rows are f64 [num_items] each.
void AccumulateRows(const double* const* rows, const double* scales,
                    int64_t num_rows, int64_t num_items, double* out);

// Same accumulation from f32-quantized rows: each element is widened to
// f64 (exact) before the f64 multiply/add, so scalar and SIMD agree
// bitwise here too.
void AccumulateRowsF32(const float* const* rows, const double* scales,
                       int64_t num_rows, int64_t num_items, double* out);

// The scalar reference paths, exposed so tests and benches can compare
// against the dispatched entry points directly.
void AccumulateRowsScalar(const double* const* rows, const double* scales,
                          int64_t num_rows, int64_t num_items, double* out);
void AccumulateRowsF32Scalar(const float* const* rows,
                             const double* scales, int64_t num_rows,
                             int64_t num_items, double* out);

// out[i] = Σ_k scales[k] * rows[k][offset + i] for i in [0, count), the
// rows added in order onto +0.0: bit for bit what AccumulateRows leaves
// in a zeroed out[0, count) over the rows advanced by `offset`.
// Dispatched (ActiveDispatchLevel) at any count, one call of the AVX2
// body per kSumBlockMaxItems items; 0 is a no-op and num_rows == 0
// writes zeros. `out` is written, not added to.
void SumBlock(const double* const* rows, int64_t offset,
              const double* scales, int64_t num_rows, int64_t count,
              double* out);

// The same sum over f32-quantized rows, each element widened to f64
// (exact) first: AccumulateRowsF32's bits.
void SumBlockF32(const float* const* rows, int64_t offset,
                 const double* scales, int64_t num_rows, int64_t count,
                 double* out);

// The scalar references of SumBlock and SumBlockF32.
void SumBlockScalar(const double* const* rows, int64_t offset,
                    const double* scales, int64_t num_rows, int64_t count,
                    double* out);
void SumBlockF32Scalar(const float* const* rows, int64_t offset,
                       const double* scales, int64_t num_rows,
                       int64_t count, double* out);

}  // namespace privrec::kernels

#endif  // PRIVREC_KERNELS_ACCUMULATE_H_
