// Morsel-driven scan scheduling (Leis et al., adapted to the paper's
// thread-local micro-adaptivity): the input table is pre-split into
// contiguous row ranges ("morsels") far larger than a vector, so a
// worker amortizes one queue interaction over tens of vectorized
// primitive calls. Partitions are contiguous per worker for scan
// locality; an idle worker steals from the back of the richest victim's
// partition.
//
// Morsel grabs happen once per morsel (default 64K rows = 64 vectors),
// so a plain mutex per partition is entirely off the kernel hot path —
// and keeps the queue trivially race-free under ThreadSanitizer. The
// per-vector dispatch inside workers stays lock- and atomic-free.
#ifndef MA_EXEC_PARALLEL_MORSEL_H_
#define MA_EXEC_PARALLEL_MORSEL_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace ma {

/// The static ParallelConfig morsel size: 64 vectors at the default
/// vector size. Morsel size steers scheduling only: per-morsel outputs
/// merge in index order, so any size yields byte-identical results.
constexpr u64 kDefaultMorselRows = 64 * 1024;

/// One contiguous row range of a scan. `index` is the global position of
/// the morsel within the table — output merged in index order is
/// identical no matter which worker processed which morsel.
struct Morsel {
  u64 begin = 0;
  u64 end = 0;      // exclusive
  size_t index = 0;
};

class MorselQueue {
 public:
  /// Splits [0, num_rows) into ceil(num_rows / morsel_size) morsels and
  /// partitions them contiguously across `num_workers`.
  MorselQueue(u64 num_rows, u64 morsel_size, int num_workers,
              bool stealing = true);

  size_t num_morsels() const { return num_morsels_; }
  u64 morsel_size() const { return morsel_size_; }

  /// Claims the next morsel for `worker`: its own partition front to
  /// back, else (with stealing enabled) the back of the partition with
  /// the most morsels left. Returns false when no work remains anywhere.
  bool Next(int worker, Morsel* out);

 private:
  struct Partition {
    std::mutex mu;
    size_t lo = 0;  // next own morsel
    size_t hi = 0;  // exclusive; thieves take from here downwards
  };

  Morsel MakeMorsel(size_t index) const;
  /// Takes from the front (owner) or back (thief) of partition `p`.
  bool TryTake(Partition* p, bool from_back, size_t* index);

  u64 num_rows_;
  u64 morsel_size_;
  size_t num_morsels_;
  bool stealing_;
  std::vector<std::unique_ptr<Partition>> parts_;
};

}  // namespace ma

#endif  // MA_EXEC_PARALLEL_MORSEL_H_
