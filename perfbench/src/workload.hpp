// The benchmark's three seeded workloads. Each compiles to the same shape:
// manager settings, the training data of the resident streams, and a round
// schedule of submit_batch ticks over one flat matrix of rows. The program
// under test sees only these generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/stream.hpp"
#include "edgedrift/linalg/matrix.hpp"

namespace perfbench {

/// One submit_batch call: `rows` rows of stream `stream`, starting at row
/// `offset` of Workload::rows.
struct Tick {
  std::uint32_t stream = 0;
  std::uint32_t offset = 0;
  std::uint32_t rows = 0;
};

struct Workload {
  std::string name;
  edgedrift::core::PipelineConfig config;
  edgedrift::core::ManagerOptions options;
  /// Resident stream i is fitted on fits[i]; stream 0 is also the template
  /// that seed_cold_from copies.
  std::vector<edgedrift::data::Dataset> fits;
  std::size_t seeded = 0;  ///< Streams registered cold from stream 0.
  std::size_t tick_rows = 0;
  /// Every submitted row, in schedule order.
  edgedrift::linalg::Matrix rows;
  std::vector<Tick> ticks;
  /// Ticks of round r are ticks[round_begin[r], round_begin[r + 1]); the
  /// streams within one round are distinct.
  std::vector<std::size_t> round_begin;
  std::size_t max_round_ticks = 0;

  std::size_t num_rounds() const { return round_begin.size() - 1; }
  std::size_t num_streams() const { return fits.size() + seeded; }
  std::span<const Tick> round(std::size_t r) const {
    return {ticks.data() + round_begin[r], round_begin[r + 1] - round_begin[r]};
  }
};

/// Builds workload `name` from `seed`. `tiny` shrinks every dimension of
/// the schedule for the benchmark's own tests. Nullptr for unknown names.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool tiny);

/// Digest of the generated inputs: schedule, rows and training data.
std::uint64_t input_digest(const Workload& w);

/// Manager construction, fits and seed_cold_from — the timed set-up.
std::unique_ptr<edgedrift::core::PipelineManager> set_up(
    const Workload& w, const edgedrift::core::ManagerOptions& options);

/// A lone Pipeline in the state managed stream `id` starts from: resident
/// streams are fitted like the manager fits them, seeded streams are
/// restored from the template blob with the manager's runtime config.
edgedrift::core::Pipeline lone_pipeline(const Workload& w, std::size_t id,
                                        const std::string& template_blob);

/// The checkpoint blob seed_cold_from shares across seeded streams.
std::string template_blob(const Workload& w);

}  // namespace perfbench
