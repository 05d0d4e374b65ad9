#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "core/expected_time.hpp"
#include "core/optimal_schedule.hpp"
#include "core/pack.hpp"
#include "exp/cost_model.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_file.hpp"
#include "exp/storage.hpp"
#include "serve/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "speedup/synthetic.hpp"
#include "util/rng.hpp"

namespace coredis_bench {

namespace exp = coredis::exp;
namespace core = coredis::core;
namespace serve = coredis::serve;

namespace {

constexpr double kMs = 1e3;
constexpr double kUs = 1e6;

/// The configurations with the engine's per-phase profile switched on.
/// Profiling never changes a simulated result; it changes the canonical
/// policy string, so a profiled baseline is simulated rather than
/// aliased to the cell's own baseline run.
std::vector<exp::ConfigSpec> profiled(std::vector<exp::ConfigSpec> configs) {
  for (exp::ConfigSpec& spec : configs)
    if (spec.scheduler == exp::SchedulerKind::PackEngine && spec.policy.empty())
      spec.engine.profile = true;
  return configs;
}

bool is_baseline(const exp::ConfigSpec& spec) {
  const exp::ConfigSpec baseline = exp::baseline_no_redistribution();
  return spec.scheduler == exp::SchedulerKind::PackEngine &&
         spec.policy.empty() && !spec.force_fault_free &&
         spec.engine.end_policy == baseline.engine.end_policy &&
         spec.engine.failure_policy == baseline.engine.failure_policy;
}

std::vector<std::size_t> runs_per_point(const std::vector<exp::Scenario>& points) {
  std::vector<std::size_t> runs;
  runs.reserve(points.size());
  for (const exp::Scenario& point : points)
    runs.push_back(static_cast<std::size_t>(point.runs));
  return runs;
}

struct Plan {
  std::unique_ptr<exp::CostModel> model;
  std::unique_ptr<exp::CellQueue> queue;
  std::vector<exp::DealBlock> blocks;
};

/// The coordinator's set-up work: parse (when there is campaign text),
/// cost model, cell queue and the cost-balanced block plan.
Plan plan_cells(const CellSet& cells, std::size_t workers, Tracer* tracer,
                int parent) {
  std::vector<exp::Scenario> points = cells.points;
  if (!cells.campaign_text.empty()) {
    std::unique_ptr<Span> span;
    if (tracer != nullptr) span = std::make_unique<Span>(*tracer, "exp.parse", parent);
    points = exp::campaign_points(exp::parse_campaign(cells.campaign_text));
  }
  std::unique_ptr<Span> span;
  if (tracer != nullptr) span = std::make_unique<Span>(*tracer, "exp.plan", parent);
  Plan plan;
  plan.model = std::make_unique<exp::CostModel>(points, cells.configs);
  plan.queue = exp::make_cell_queue(exp::StorageKind::Ram, runs_per_point(points));
  plan.blocks = exp::plan_deal_blocks(*plan.model, *plan.queue, workers);
  return plan;
}

double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0);
}

}  // namespace

std::string scenario_text(const exp::Scenario& scenario) {
  std::string text;
  for (const std::string& line : split_lines(exp::format_scenario(scenario))) {
    if (line[0] == '#') continue;
    if (!text.empty()) text += "; ";
    text += line;
  }
  return text;
}

std::string request_line(std::uint64_t id, const char* op,
                         const std::string& tenant,
                         const std::string& scenario_text,
                         const std::string& configs, std::uint64_t rep) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"tenant\":\"" + tenant + "\",\"scenario\":\"" + scenario_text +
         "\",\"configs\":\"" + configs + "\",\"rep\":" + std::to_string(rep) + "}";
}

// --- exp: campaign layer ----------------------------------------------------

namespace {

/// What one untraced, dealt pass over the cells measured.
struct DealtPass {
  double seconds = 0.0;  ///< plan through merge
  double plan_seconds = 0.0;
  std::size_t blocks = 0;
  std::vector<double> block_seconds;
  std::vector<double> rel_errors;  ///< |predicted - observed| / observed
  double idle_frac = 0.0;
  double merge_seconds = 0.0;
};

/// The coordinator's work in one thread: plan the cost-balanced blocks,
/// deal each, in plan order, to the least-busy of `workers` DealWorkers
/// (asking the cost model, refined by every block so far as the
/// coordinator's is, what the block will cost), then merge into `out`.
DealtPass run_dealt(const CellSet& cells, std::size_t workers,
                    const std::string& out) {
  DealtPass pass;
  const Clock::time_point start = Clock::now();
  Plan plan = plan_cells(cells, workers, nullptr, Tracer::kNoParent);
  pass.plan_seconds = seconds_since(start);
  pass.blocks = plan.blocks.size();

  exp::GridRunOptions options;
  options.jsonl_path = out;
  options.threads = 1;
  std::vector<std::unique_ptr<exp::DealWorker>> dealt;
  for (std::size_t k = 0; k < workers; ++k)
    dealt.push_back(std::make_unique<exp::DealWorker>(cells.points, cells.configs,
                                                      k, workers, options));
  std::vector<double> busy(workers, 0.0);
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    const exp::DealBlock& block = plan.blocks[b];
    double predicted = 0.0;
    for (std::size_t c = block.begin; c < block.end; ++c)
      predicted += plan.model->predict(plan.queue->at(c).point);
    const auto k = static_cast<std::size_t>(
        std::min_element(busy.begin(), busy.end()) - busy.begin());
    const Clock::time_point block_start = Clock::now();
    dealt[k]->run_block(block.begin, block.end);
    const double seconds = seconds_since(block_start);
    busy[k] += seconds;
    pass.block_seconds.push_back(seconds);
    // Before the first observation the model predicts in prior units.
    if (b > 0) pass.rel_errors.push_back(std::fabs(predicted - seconds) / seconds);
    plan.model->observe_span(*plan.queue, block.begin, block.end, seconds);
  }
  dealt.clear();  // close the shard files
  const double makespan = *std::max_element(busy.begin(), busy.end());
  pass.idle_frac =
      1.0 - sum(pass.block_seconds) / (static_cast<double>(workers) * makespan);

  const Clock::time_point merge_start = Clock::now();
  exp::merge_deal_shards(cells.points, cells.configs, workers, out);
  pass.merge_seconds = seconds_since(merge_start);
  pass.seconds = seconds_since(start);
  return pass;
}

}  // namespace

CampaignPasses measure_campaign_layers(const CellSet& cells, std::size_t workers,
                                       const ScratchDir& scratch,
                                       Tracer& tracer, Report& report) {
  CampaignPasses passes;
  const std::string out = scratch.file("layers.jsonl");

  // Pass A: the coordinator's work, top-level timers only.
  const DealtPass dealt = run_dealt(cells, workers, out);
  passes.artifact = read_file(out);
  report.metric("exp.plan_ms", dealt.plan_seconds * kMs, "ms");
  report.metric("exp.blocks", static_cast<double>(dealt.blocks), "count");
  report.metric("exp.block_ms", median(dealt.block_seconds) * kMs, "ms");
  report.metric("exp.cost_model.rel_err", median(dealt.rel_errors), "fraction");
  report.metric("exp.deal.idle_frac", dealt.idle_frac, "fraction");
  report.metric("exp.merge_ms", dealt.merge_seconds * kMs, "ms");
  report.metric("exp.merge_mb", file_mb(out), "MB");

  // Pass B: the same cells through CellWorkspace, every layer spanned.
  std::vector<double> build_seconds;
  std::vector<double> cell_seconds;
  core::EngineProfile totals;
  long long redistributions = 0;
  double alg1_seconds = 0.0;
  double engine_seconds = 0.0;
  // The profiled baseline's simulation time splits the cold baseline run.
  std::vector<exp::ConfigSpec> with_baseline = profiled(cells.configs);
  if (std::none_of(cells.configs.begin(), cells.configs.end(), is_baseline))
    with_baseline.push_back(profiled({exp::baseline_no_redistribution()}).front());
  // The share of Algorithm 1 in one cold IteratedGreedy+EndLocal run of
  // a largest-n cell: the split `coredis_sim --profile` prints.
  std::size_t single = with_baseline.size() - 1;
  for (std::size_t i = 0; i < with_baseline.size(); ++i)
    if (with_baseline[i].name == exp::ig_end_local().name) single = i;
  int largest_n = 0;
  for (const exp::Scenario& point : cells.points) largest_n = std::max(largest_n, point.n);
  std::vector<double> cold_run_shares;
  {
    const int root = tracer.begin("campaign", Tracer::kNoParent);
    Plan plan = plan_cells(cells, workers, &tracer, root);
    for (const exp::DealBlock& block : plan.blocks) {
      Span block_span(tracer, "exp.block", root);
      for (std::size_t c = block.begin; c < block.end; ++c) {
        const exp::CellRef ref = plan.queue->at(c);
        const int build = tracer.begin("exp.workspace_build", block_span.id());
        exp::CellWorkspace workspace(cells.points[ref.point], ref.rep);
        tracer.end(build);
        build_seconds.push_back(tracer.duration(build));

        const int cell = tracer.begin("exp.cell", block_span.id());
        // The cell's first engine run is its baseline, which fills the
        // coefficient table cold (Algorithm 1's Eq. 6 column fill).
        const int cold = tracer.begin("core.cold_baseline", cell);
        (void)workspace.evaluate({});
        tracer.end(cold);
        const int configs_span = tracer.begin("exp.configs", cell);
        const exp::CellResult result = workspace.evaluate(with_baseline);
        tracer.end(configs_span);
        tracer.end(cell);
        cell_seconds.push_back(tracer.duration(cell));

        double baseline_sim = 0.0;
        for (std::size_t i = 0; i < result.results.size(); ++i) {
          const core::EngineProfile& p = result.results[i].profile;
          tracer.add("core.alg1", configs_span, p.algorithm1_seconds);
          tracer.add("core.dispatch", configs_span, p.dispatch_seconds);
          tracer.add("core.scan", configs_span, p.scan_seconds);
          tracer.add("core.commit", configs_span, p.commit_seconds);
          if (is_baseline(with_baseline[i]))
            baseline_sim = p.dispatch_seconds + p.scan_seconds + p.commit_seconds;
          totals.dispatch_seconds += p.dispatch_seconds;
          totals.scan_seconds += p.scan_seconds;
          totals.commit_seconds += p.commit_seconds;
          totals.events += p.events;
          totals.heuristic_calls += p.heuristic_calls;
          totals.commits += p.commits;
          redistributions += result.results[i].redistributions;
          alg1_seconds += p.algorithm1_seconds;
          engine_seconds += p.algorithm1_seconds + p.dispatch_seconds +
                            p.scan_seconds + p.commit_seconds;
        }
        // Split the cold baseline: its simulation proper costs what the
        // profiled (warm) baseline's dispatch, scans and commits cost;
        // the rest is the cold Algorithm 1.
        const double cold_total = tracer.duration(cold);
        const double sim = std::min(baseline_sim, cold_total);
        tracer.add("core.alg1", cold, cold_total - sim);
        tracer.add("core.dispatch", cold, sim);
        alg1_seconds += cold_total - sim;
        engine_seconds += cold_total;
        if (cells.points[ref.point].n == largest_n) {
          const core::EngineProfile& p = result.results[single].profile;
          cold_run_shares.push_back(
              (cold_total - sim) / (cold_total - sim + p.dispatch_seconds +
                                    p.scan_seconds + p.commit_seconds));
        }
      }
    }
    {
      Span merge(tracer, "exp.merge", root);
      exp::merge_deal_shards(cells.points, cells.configs, workers, out);
    }
    tracer.end(root);
    passes.traced_root = root;
    passes.traced_seconds = tracer.duration(root);
  }
  // Pass A again: the untraced time is the mean of the passes on either
  // side of pass B, so a drift in machine speed does not read as tracing
  // overhead.
  passes.untraced_seconds = (dealt.seconds + run_dealt(cells, workers, out).seconds) / 2.0;
  report.check(read_file(out) == passes.artifact,
               "traced pass re-merge differs from the untraced artifact");

  report.metric("exp.workspace_build_ms", median(build_seconds) * kMs, "ms");
  report.metric("exp.cell_ms.p50", quantile(cell_seconds, 0.5) * kMs, "ms");
  report.metric("exp.cell_ms.p90", quantile(cell_seconds, 0.9) * kMs, "ms");
  report.metric("core.run.dispatch_ms", totals.dispatch_seconds * kMs, "ms");
  report.metric("core.run.scan_ms", totals.scan_seconds * kMs, "ms");
  report.metric("core.run.commit_ms", totals.commit_seconds * kMs, "ms");
  report.metric("core.run.events", static_cast<double>(totals.events), "count");
  report.metric("core.run.heuristic_calls",
                static_cast<double>(totals.heuristic_calls), "count");
  report.metric("core.run.commits", static_cast<double>(totals.commits), "count");
  report.metric("core.run.redistributions", static_cast<double>(redistributions),
                "count");
  const double calls = static_cast<double>(std::max<long long>(totals.heuristic_calls, 1));
  report.metric("core.run.scan_per_call_us", totals.scan_seconds / calls * kUs, "us");
  report.metric("core.run.commit_useful", static_cast<double>(totals.commits) / calls,
                "fraction");
  report.metric("core.alg1.engine_share", alg1_seconds / engine_seconds, "fraction");
  report.metric("core.alg1.cold_run_share", median(cold_run_shares), "fraction");
  return passes;
}

// --- core: Algorithm 1 and the coefficient table ----------------------------

void measure_core_alg1(const exp::Scenario& point, std::uint64_t seed,
                       Report& report) {
  coredis::Rng rng = coredis::Rng::child(seed, 0xA161);
  const core::Pack pack = core::Pack::uniform_random(
      point.n, point.m_inf, point.m_sup,
      std::make_shared<coredis::speedup::SyntheticModel>(point.sequential_fraction),
      rng);
  const coredis::checkpoint::Model resilience(point.resilience_params());

  std::size_t fill_entries = 0;
  std::vector<std::size_t> depth(static_cast<std::size_t>(point.n), 0);
  {
    core::ExpectedTimeModel model(pack, resilience);
    core::TrEvaluator evaluator(model, point.p);
    const Clock::time_point cold_start = Clock::now();
    const std::vector<int> sigma = core::optimal_schedule(model, point.p, evaluator);
    report.metric("core.alg1.cold_ms", seconds_since(cold_start) * kMs, "ms");

    std::vector<double> warm;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point start = Clock::now();
      const std::vector<int> again = core::optimal_schedule(model, point.p, evaluator);
      warm.push_back(seconds_since(start));
      report.check(again == sigma, "warm Algorithm 1 differs from the cold one");
    }
    report.metric("core.alg1.warm_ms", median(warm) * kMs, "ms");

    long long pairs = 0;
    for (const int s : sigma) pairs += s / 2;
    for (int task = 0; task < point.n; ++task) {
      depth[static_cast<std::size_t>(task)] =
          evaluator.column(task, 1.0).prefix().size();
      fill_entries += depth[static_cast<std::size_t>(task)];
    }
    report.metric("core.alg1.fill_entries", static_cast<double>(fill_entries), "count");
    report.metric("core.alg1.pairs", static_cast<double>(pairs), "count");
    report.metric("core.alg1.fill_useful",
                  static_cast<double>(pairs) / static_cast<double>(fill_entries),
                  "fraction");
    report.metric("core.table_mb",
                  static_cast<double>(fill_entries) * 64.0 / (1024.0 * 1024.0), "MB");
  }

  // Eq. 4 coefficient records filled cold, to the depth Algorithm 1 took
  // each task's column, on a fresh model.
  core::ExpectedTimeModel fresh(pack, resilience);
  const Clock::time_point fill_start = Clock::now();
  for (int task = 0; task < point.n; ++task) {
    const std::size_t h = std::max<std::size_t>(depth[static_cast<std::size_t>(task)], 1);
    (void)fresh.row_records(task, h);
  }
  report.metric("core.eq4.fill_ns",
                seconds_since(fill_start) * 1e9 /
                    static_cast<double>(std::max<std::size_t>(fill_entries, 1)),
                "ns");
}

// --- exp: storage backends --------------------------------------------------

void measure_spill_backends(const std::vector<std::string>& records,
                            const ScratchDir& scratch, Report& report) {
  // Well past the file backend's default 16 MiB resident budget for
  // campaign-sized records, so it spills to disk.
  constexpr std::size_t operations = 65536;
  if (records.empty()) throw std::logic_error("no records to spill");
  for (const exp::StorageKind kind :
       {exp::StorageKind::Ram, exp::StorageKind::File, exp::StorageKind::Mmap}) {
    const std::string name = exp::to_string(kind);
    auto spill = exp::make_result_spill(kind, scratch.path());
    const Clock::time_point put_start = Clock::now();
    for (std::size_t i = 0; i < operations; ++i)
      spill->put(i, records[i % records.size()]);
    const double put_seconds = seconds_since(put_start);
    const double resident_kb = static_cast<double>(spill->resident_bytes()) / 1024.0;

    std::string record;
    bool intact = true;
    const Clock::time_point take_start = Clock::now();
    for (std::size_t i = 0; i < operations; ++i)
      intact = spill->take(i, record) && record == records[i % records.size()] && intact;
    const double take_seconds = seconds_since(take_start);
    report.check(intact, "spill backend " + name + " changed record bytes");

    const double ops = static_cast<double>(operations);
    report.metric("exp.spill." + name + ".put_us", put_seconds / ops * kUs, "us");
    report.metric("exp.spill." + name + ".take_us", take_seconds / ops * kUs, "us");
    report.metric("exp.spill." + name + ".resident_kb", resident_kb, "KiB");
  }
}

// --- serve ------------------------------------------------------------------

void measure_serve_layers(const std::vector<std::string>& lines,
                          std::size_t pool_capacity, const ScratchDir& scratch,
                          Tracer& tracer, Report& report, int* traced_root) {
  const std::size_t count = lines.size();
  std::vector<serve::Request> requests(count);
  std::vector<double> parse_us, hit_us, miss_ms, evaluate_us, render_us;
  std::vector<double> handled(count, 0.0);  // lease + evaluate + render
  std::vector<bool> evaluation(count, false);
  std::vector<std::string> responses(count);

  // Sequential replay over the layers' entry points (the traced pass).
  serve::WorkspacePool pool(pool_capacity);
  const int root = tracer.begin("serve_replay", Tracer::kNoParent);
  for (std::size_t i = 0; i < count; ++i) {
    Span request_span(tracer, "serve.request", root);
    std::string error;
    const int parse_span = tracer.begin("serve.parse", request_span.id());
    const bool parsed = serve::parse_request(lines[i], requests[i], error);
    tracer.end(parse_span);
    parse_us.push_back(tracer.duration(parse_span) * kUs);
    report.check(parsed, "request does not parse: " + error);
    const serve::Request& request = requests[i];
    if (request.op != serve::Op::WhatIf && request.op != serve::Op::Admit)
      continue;
    evaluation[i] = true;
    const int lease_span = tracer.begin("serve.lease", request_span.id());
    serve::WorkspacePool::Lease lease =
        pool.checkout(request.tenant, request.scenario, request.rep);
    tracer.end(lease_span);
    const double lease_seconds = tracer.duration(lease_span);
    if (lease.warm())
      hit_us.push_back(lease_seconds * kUs);
    else
      miss_ms.push_back(lease_seconds * kMs);

    const int evaluate_span = tracer.begin("serve.evaluate", request_span.id());
    const exp::CellResult cell = lease.workspace().evaluate(request.configs);
    tracer.end(evaluate_span);
    evaluate_us.push_back(tracer.duration(evaluate_span) * kUs);

    const int render_span = tracer.begin("serve.render", request_span.id());
    responses[i] = serve::render_response(request, cell);
    tracer.end(render_span);
    render_us.push_back(tracer.duration(render_span) * kUs);
    handled[i] = lease_seconds + tracer.duration(evaluate_span) +
                 tracer.duration(render_span);
  }
  tracer.end(root);
  const double traced_seconds = tracer.duration(root);
  const serve::PoolStats pool_stats = pool.stats();

  report.metric("serve.parse_us", median(parse_us), "us");
  report.metric("serve.lease_hit_us", median(hit_us), "us");
  report.metric("serve.lease_miss_ms", median(miss_ms), "ms");
  report.metric("serve.pool.hit_ratio",
                static_cast<double>(pool_stats.hits) /
                    static_cast<double>(std::max<std::uint64_t>(
                        pool_stats.hits + pool_stats.misses, 1)),
                "fraction");
  report.metric("serve.pool.evictions", static_cast<double>(pool_stats.evictions),
                "count");
  report.metric("serve.evaluate_us", median(evaluate_us), "us");
  report.metric("serve.render_us", median(render_us), "us");

  // Untraced replay through Service::execute, the sequential reference
  // path: the traced replay's overhead, and a warm service for the
  // concurrent submit phase below.
  const std::size_t threads = std::min<std::size_t>(4, nproc());
  serve::Service service(pool_capacity, threads);
  std::vector<std::string> executed(count);
  const Clock::time_point untraced_start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    serve::Request request;
    std::string error;
    (void)serve::parse_request(lines[i], request, error);
    if (evaluation[i]) executed[i] = service.execute(request);
  }
  const double untraced_seconds = seconds_since(untraced_start);
  for (std::size_t i = 0; i < count; ++i)
    if (evaluation[i])
      report.check(executed[i] == responses[i],
                   "replayed response differs from Service::execute: " + lines[i]);
  if (traced_root != nullptr) {
    *traced_root = root;
    report.metric("trace.overhead_frac", traced_seconds / untraced_seconds - 1.0,
                  "fraction");
  }

  // Service::submit from `threads` concurrent callers: the wait beyond a
  // request's own handling time is queueing and batching.
  {
    const serve::ServiceStats before = service.stats();
    std::vector<double> latency(count, -1.0);
    std::vector<std::string> submitted(count);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < threads; ++t)
      callers.emplace_back([&, t] {
        for (std::size_t i = t; i < count; i += threads) {
          if (!evaluation[i]) continue;
          try {
            const Clock::time_point start = Clock::now();
            submitted[i] = service.submit(requests[i]);
            latency[i] = seconds_since(start);
          } catch (const std::exception& failure) {
            submitted[i] = failure.what();  // fails the check below
          }
        }
      });
    for (std::thread& caller : callers) caller.join();
    std::vector<double> waits;
    for (std::size_t i = 0; i < count; ++i) {
      if (!evaluation[i]) continue;
      report.check(submitted[i] == responses[i],
                   "submitted response differs from the replay: " + lines[i]);
      waits.push_back((latency[i] - handled[i]) * kUs);
    }
    const serve::ServiceStats after = service.stats();
    const double batches = static_cast<double>(after.batches - before.batches);
    report.metric("serve.queue_wait_us", median(waits), "us");
    report.metric("serve.batch_mean",
                  static_cast<double>(after.requests - before.requests) /
                      std::max(batches, 1.0),
                  "count");
    report.metric("serve.max_batch", static_cast<double>(after.max_batch), "count");
  }

  // Socket transport: ping round trips to a spawned daemon, minus the
  // in-process cost of parsing a ping and rendering its reply; then an
  // open-loop ping stream for the generator's own lateness.
  Daemon daemon(scratch, "layers", pool_capacity, threads, threads);
  (void)daemon.wait_ready();
  {
    const std::string ping = "{\"id\":7,\"op\":\"ping\"}";
    Connection connection(daemon.socket_path(), 10.0);
    std::vector<double> rtt_us, local_us;
    for (int i = 0; i < 400; ++i) {
      const Clock::time_point start = Clock::now();
      const std::string reply = connection.round_trip(ping, 10.0);
      rtt_us.push_back(seconds_since(start) * kUs);
      report.check(reply == serve::ping_response(7), "ping reply: " + reply);
      const Clock::time_point local = Clock::now();
      serve::Request request;
      std::string error;
      (void)serve::parse_request(ping, request, error);
      (void)serve::ping_response(request.id);
      local_us.push_back(seconds_since(local) * kUs);
    }
    report.metric("serve.transport_us", median(rtt_us) - median(local_us), "us");

    std::vector<std::unique_ptr<Connection>> connections;
    connections.push_back(std::make_unique<Connection>(daemon.socket_path(), 10.0));
    std::vector<std::string> pings;
    std::vector<double> due;
    for (int i = 0; i < 1000; ++i) {
      pings.push_back("{\"id\":" + std::to_string(i) + ",\"op\":\"ping\"}");
      due.push_back(i * 0.0005);  // 2000 pings per second
    }
    const OpenLoopResult open = run_open_loop(connections, pings, due, 5.0);
    for (std::size_t i = 0; i < pings.size(); ++i)
      report.check(open.replies[i] == serve::ping_response(i),
                   "open-loop ping reply: " + open.replies[i]);
    report.metric("gen.lag_ms", quantile(open.lateness, 0.99) * kMs, "ms");
  }
  report.check(daemon.shutdown(), "daemon did not shut down cleanly");
}

// --- layer shares -------------------------------------------------------------

std::string layer_of(const std::string& span_name) {
  if (span_name == "exp.parse" || span_name == "exp.plan" ||
      span_name == "exp.block" || span_name == "exp.merge")
    return "exp.campaign";
  if (span_name.rfind("exp.", 0) == 0) return "exp.cell";
  if (span_name == "core.alg1" || span_name == "core.cold_baseline")
    return "core.alg1";
  if (span_name == "core.dispatch" || span_name == "core.scan")
    return "core.scan_dispatch";
  if (span_name == "core.commit") return "core.commit";
  if (span_name.rfind("serve.", 0) == 0) return "serve";
  throw std::logic_error("span " + span_name + " has no layer");
}

void report_layer_shares(const Tracer& tracer, int root,
                         const std::string& intended_layer, Report& report) {
  const double total = tracer.duration(root);
  std::map<std::string, double> layers;
  double covered = 0.0;
  for (const auto& [name, seconds] : tracer.self_by_name(root)) {
    layers[layer_of(name)] += seconds;
    covered += seconds;
  }
  std::string top;
  double top_seconds = -1.0;
  for (const auto& [layer, seconds] : layers) {
    std::cerr << "layer " << layer << ": " << seconds * kMs << " ms ("
              << 100.0 * seconds / total << "%)\n";
    if (seconds > top_seconds) {
      top_seconds = seconds;
      top = layer;
    }
  }
  std::cerr << "layer untraced: " << (total - covered) * kMs << " ms of "
            << total * kMs << " ms traced end to end; top layer " << top
            << ", intended " << intended_layer << '\n';
  report.note("trace.top_layer", top);
  report.note("trace.intended_layer", intended_layer);
  report.note("trace.layer_sum_tolerance", kLayerSumTolerance);
  report.metric("trace.layer_sum_frac", covered / total, "fraction");
  report.metric("trace.top_share", top_seconds / total, "fraction");
  report.metric("trace.intended_share", layers[intended_layer] / total, "fraction");
}

}  // namespace coredis_bench
