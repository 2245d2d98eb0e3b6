#include "metrics/transfer_matrix.h"

#include <algorithm>
#include <cmath>

#include "util/units.h"

namespace hepvine::metrics {

std::uint64_t TransferMatrix::total() const {
  std::uint64_t sum = 0;
  for (auto v : cells_) sum += v;
  return sum;
}

std::uint64_t TransferMatrix::row_total(std::size_t src) const {
  std::uint64_t sum = 0;
  for (std::size_t d = 0; d < n_; ++d) sum += at(src, d);
  return sum;
}

std::uint64_t TransferMatrix::col_total(std::size_t dst) const {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < n_; ++s) sum += at(s, dst);
  return sum;
}

std::uint64_t TransferMatrix::max_pair() const {
  std::uint64_t best = 0;
  for (auto v : cells_) best = std::max(best, v);
  return best;
}

std::uint64_t TransferMatrix::manager_bytes() const {
  return row_total(0) + col_total(0) - at(0, 0);
}

std::uint64_t TransferMatrix::between(std::size_t lo,
                                      std::size_t hi_exclusive) const {
  hi_exclusive = std::min(hi_exclusive, n_);
  std::uint64_t sum = 0;
  for (std::size_t s = lo; s < hi_exclusive; ++s) {
    for (std::size_t d = lo; d < hi_exclusive; ++d) sum += at(s, d);
  }
  return sum;
}

std::uint64_t TransferMatrix::peer_bytes() const {
  return n_ >= 2 ? between(1, n_ - 1) : 0;
}

std::string TransferMatrix::render_heatmap(std::size_t cells) const {
  if (n_ == 0) return "(empty)\n";
  const std::size_t buckets = std::min(cells, n_);
  const std::size_t stride = (n_ + buckets - 1) / buckets;
  const std::size_t rows = (n_ + stride - 1) / stride;

  // Aggregate into buckets.
  std::vector<std::uint64_t> grid(rows * rows, 0);
  for (std::size_t s = 0; s < n_; ++s) {
    for (std::size_t d = 0; d < n_; ++d) {
      const std::uint64_t v = at(s, d);
      if (v) grid[(s / stride) * rows + (d / stride)] += v;
    }
  }
  std::uint64_t maxv = 1;
  for (auto v : grid) maxv = std::max(maxv, v);

  static constexpr char kRamp[] = " .:-=+*#%@";
  const double logmax = std::log1p(static_cast<double>(maxv));
  std::string out;
  out.reserve(rows * (rows + 8));
  out += "      dst (0=manager) -->\n";
  for (std::size_t r = 0; r < rows; ++r) {
    out += (r == 0) ? "src 0 " : "      ";
    for (std::size_t c = 0; c < rows; ++c) {
      const std::uint64_t v = grid[r * rows + c];
      std::size_t level = 0;
      if (v > 0) {
        level = 1 + static_cast<std::size_t>(
                        std::log1p(static_cast<double>(v)) / logmax * 8.0);
        level = std::min<std::size_t>(level, 9);
      }
      out += kRamp[level];
    }
    out += '\n';
  }
  out += "max pair " + util::format_bytes(max_pair()) + ", manager " +
         util::format_bytes(manager_bytes()) + ", peer " +
         util::format_bytes(peer_bytes()) + ", total " +
         util::format_bytes(total()) + "\n";
  return out;
}

}  // namespace hepvine::metrics
