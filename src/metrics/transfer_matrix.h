// Pairwise data-transfer accounting (paper Fig 7).
//
// Rows/columns are transfer endpoints: index 0 is the manager, 1..N are
// workers, and an optional extra index is the shared filesystem. Cell
// (src, dst) accumulates bytes moved src→dst. The ASCII heatmap renderer
// reproduces the paper's Fig 7 visual: Work Queue lights up row/column 0
// only; TaskVine with peer transfers spreads load across the off-diagonal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hepvine::metrics {

class TransferMatrix {
 public:
  TransferMatrix() = default;
  explicit TransferMatrix(std::size_t endpoints)
      : n_(endpoints), cells_(endpoints * endpoints, 0) {}

  [[nodiscard]] std::size_t endpoints() const noexcept { return n_; }

  void record(std::size_t src, std::size_t dst, std::uint64_t bytes) {
    if (src < n_ && dst < n_) cells_[src * n_ + dst] += bytes;
  }

  [[nodiscard]] std::uint64_t at(std::size_t src, std::size_t dst) const {
    return (src < n_ && dst < n_) ? cells_[src * n_ + dst] : 0;
  }

  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t row_total(std::size_t src) const;
  [[nodiscard]] std::uint64_t col_total(std::size_t dst) const;

  /// Largest single src→dst cell.
  [[nodiscard]] std::uint64_t max_pair() const;
  /// Sum of cells with src and dst both in [lo, hi_exclusive).
  [[nodiscard]] std::uint64_t between(std::size_t lo,
                                      std::size_t hi_exclusive) const;
  /// Bytes into/out of endpoint 0 (the manager, by convention).
  [[nodiscard]] std::uint64_t manager_bytes() const;
  /// Bytes between worker pairs. Convention: endpoint 0 is the manager and
  /// the last endpoint is the shared filesystem, so workers are 1..n-2.
  [[nodiscard]] std::uint64_t peer_bytes() const;

  /// Render an ASCII heatmap downsampled to at most `cells` buckets per
  /// axis. Intensity characters scale with log(bytes).
  [[nodiscard]] std::string render_heatmap(std::size_t cells = 32) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> cells_;
};

}  // namespace hepvine::metrics
