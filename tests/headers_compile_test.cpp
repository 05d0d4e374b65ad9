/// \file headers_compile_test.cpp
/// Build-seam smoke test: every public header must compile when included in
/// a single translation unit, in alphabetical order, with no hidden include
/// dependencies between them.  A header that forgets one of its own includes
/// or violates ODR breaks this TU before any test runs.  `core/detail/` is
/// deliberately absent: it is internal (DESIGN.md section 1) and owes no
/// standalone-compilation guarantee.

#include "checkpoint/model.hpp"
#include "checkpoint/period.hpp"
#include "complexity/moldable.hpp"
#include "complexity/reduction.hpp"
#include "complexity/three_partition.hpp"
#include "core/energy.hpp"
#include "core/engine.hpp"
#include "core/expected_time.hpp"
#include "core/optimal_schedule.hpp"
#include "core/pack.hpp"
#include "core/timeline.hpp"
#include "core/types.hpp"
#include "exp/campaign.hpp"
#include "exp/fabric.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_file.hpp"
#include "extensions/batch.hpp"
#include "extensions/dedicated.hpp"
#include "extensions/online.hpp"
#include "extensions/pack_partition.hpp"
#include "extensions/silent_errors.hpp"
#include "fault/exponential.hpp"
#include "fault/generator.hpp"
#include "fault/per_processor.hpp"
#include "fault/trace.hpp"
#include "fault/weibull.hpp"
#include "platform/platform.hpp"
#include "redistrib/bipartite.hpp"
#include "redistrib/cost.hpp"
#include "speedup/amdahl.hpp"
#include "speedup/model.hpp"
#include "speedup/presets.hpp"
#include "speedup/synthetic.hpp"
#include "speedup/table_profile.hpp"
#include "util/cli.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/indexed_heap.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/plot.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <gtest/gtest.h>

TEST(HeadersCompile, AllPublicHeadersLinkInOneTranslationUnit) {
  // The real assertion is that this file compiled and linked; touch a few
  // symbols across layers so the linker must resolve them from the library.
  EXPECT_GT(coredis::checkpoint::young_period(coredis::units::years(100.0),
                                              60.0),
            0.0);
  EXPECT_EQ(coredis::redistrib::rounds(2, 4), 2);
  EXPECT_EQ(coredis::core::to_string(coredis::core::EndPolicy::Local),
            "EndLocal");
  EXPECT_FALSE(coredis::speedup::preset_names().empty());
}
