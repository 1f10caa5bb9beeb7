// The observability layer (src/obs): counter scoping and solver
// snapshots, warm-start attempt/hit accounting, the convergence ring
// buffer and its JSONL schema, chrome-trace well-formedness (balanced
// B/E even under drops), nearest-rank quantiles, and the headline
// contract that profiling a sweep changes no metric byte.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "stackroute/gen/generators.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/profile.h"
#include "stackroute/obs/trace.h"
#include "stackroute/solver/bush.h"
#include "stackroute/solver/traffic_assignment.h"
#include "stackroute/solver/water_filling.h"
#include "stackroute/solver/workspace.h"
#include "stackroute/sweep/metrics.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/parallel.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::size_t count_occurrences(const std::string& hay, const std::string& pin) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(pin); pos != std::string::npos;
       pos = hay.find(pin, pos + pin.size())) {
    ++n;
  }
  return n;
}

// ---- Counters ------------------------------------------------------------

TEST(Counters, MergeClearAnyAndToString) {
  obs::SolveCounters a;
  EXPECT_FALSE(a.any());
  EXPECT_EQ(a.to_string(), "");

  a.dijkstra_calls = 3;
  a.warm_hits = 1;
  obs::SolveCounters b;
  b.dijkstra_calls = 2;
  b.bush_shifts = 7;
  a.merge(b);
  EXPECT_EQ(a.dijkstra_calls, 5u);
  EXPECT_EQ(a.bush_shifts, 7u);
  EXPECT_EQ(a.warm_hits, 1u);
  EXPECT_TRUE(a.any());
  const std::string s = a.to_string();
  EXPECT_NE(s.find("dijkstra_calls=5"), std::string::npos) << s;
  EXPECT_NE(s.find("bush_shifts=7"), std::string::npos) << s;
  // Zero fields stay out of the one-liner.
  EXPECT_EQ(s.find("water_fill_evals"), std::string::npos) << s;

  a.clear();
  EXPECT_FALSE(a.any());

  // The X-macro field table drives exports: names are distinct, docs
  // non-empty, and get() reaches every member.
  ASSERT_FALSE(obs::SolveCounters::fields().empty());
  for (const auto& f : obs::SolveCounters::fields()) {
    EXPECT_NE(f.name[0], '\0');
    EXPECT_NE(f.doc[0], '\0');
    EXPECT_EQ(a.get(f), 0u);
  }
}

TEST(Counters, ScopeInstallsAndRestores) {
  EXPECT_FALSE(obs::counting());
  obs::count(&obs::SolveCounters::dijkstra_calls);  // no sink: no-op
  {
    obs::SolveCounters outer;
    obs::CountersScope scope(outer);
    EXPECT_TRUE(obs::counting());
    obs::count(&obs::SolveCounters::dijkstra_calls, 2);
    {
      obs::SolveCounters inner;
      obs::CountersScope nested(inner);
      obs::count(&obs::SolveCounters::dijkstra_calls, 5);
      EXPECT_EQ(inner.dijkstra_calls, 5u);
    }
    // The nested scope restored the outer sink.
    obs::count(&obs::SolveCounters::dijkstra_calls);
    EXPECT_EQ(outer.dijkstra_calls, 3u);
  }
  EXPECT_FALSE(obs::counting());
}

TEST(Counters, ScopedDeltaComposesIntoEnclosingSink) {
  // Inactive without a sink — and free.
  {
    obs::ScopedCounterDelta idle;
    EXPECT_FALSE(idle.active());
  }
  obs::SolveCounters sink;
  {
    obs::CountersScope scope(sink);
    obs::ScopedCounterDelta outer;
    ASSERT_TRUE(outer.active());
    obs::count(&obs::SolveCounters::gap_checks, 2);
    {
      obs::ScopedCounterDelta inner;
      obs::count(&obs::SolveCounters::gap_checks, 3);
      EXPECT_EQ(inner.current().gap_checks, 3u);
    }
    // The inner delta merged into the outer delta on destruction.
    EXPECT_EQ(outer.current().gap_checks, 5u);
  }
  EXPECT_EQ(sink.gap_checks, 5u);
}

TEST(Counters, SolverResultsSnapshotTheirOwnWork) {
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 4, 4, 2.0);

  // Without a sink the result counters stay all-zero.
  BushOptions bush_opts;
  bush_opts.max_iters = 10;
  bush_opts.rel_gap_tol = 0.0;
  EXPECT_FALSE(solve_bush(inst, FlowObjective::kBeckmann, {}, bush_opts)
                   .counters.any());

  obs::SolveCounters sink;
  {
    obs::CountersScope scope(sink);
    const BushResult bush =
        solve_bush(inst, FlowObjective::kBeckmann, {}, bush_opts);
    EXPECT_EQ(bush.counters.gap_checks,
              static_cast<std::uint64_t>(bush.iterations));
    EXPECT_GT(bush.counters.dijkstra_calls, 0u);
    EXPECT_GT(bush.counters.dijkstra_settled, 0u);
    EXPECT_GT(bush.counters.bush_shifts, 0u);

    const AssignmentResult eq =
        assign_traffic(inst, FlowObjective::kBeckmann, {});
    EXPECT_EQ(eq.counters.equalization_steps,
              static_cast<std::uint64_t>(eq.steps));
    EXPECT_GT(eq.counters.dijkstra_calls, 0u);
  }
  // Both solves' deltas merged into the sink.
  EXPECT_GT(sink.bush_shifts, 0u);
  EXPECT_GT(sink.equalization_steps, 0u);
}

TEST(Counters, MonotoneInTheIterationBudget) {
  // Many commodities on a congested grid: the bush solver needs well over
  // the larger budget to close the gap, so both runs use all of theirs.
  Rng rng(5);
  const NetworkInstance inst =
      grid_city_multicommodity(rng, 6, 6, 10, 0.5, 2.0);
  auto run = [&](int iters) {
    BushOptions opts;
    opts.max_iters = iters;
    opts.rel_gap_tol = 0.0;
    obs::SolveCounters sink;
    obs::CountersScope scope(sink);
    (void)solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
    return sink;
  };
  const obs::SolveCounters small = run(2);
  const obs::SolveCounters large = run(6);
  EXPECT_EQ(small.gap_checks, 2u);
  EXPECT_EQ(large.gap_checks, 6u);
  for (const auto& f : obs::SolveCounters::fields()) {
    EXPECT_GE(large.get(f), small.get(f)) << f.name;
  }
}

TEST(Counters, WaterFillWarmHintAccounting) {
  const std::vector<LatencyPtr> links = {make_affine(1.0, 1.0),
                                         make_affine(1.0, 2.0)};
  SolverWorkspace ws;
  auto run = [&](double hint) {
    obs::SolveCounters sink;
    obs::CountersScope scope(sink);
    (void)water_fill(links, 3.0, LevelKind::kLatency, 1e-12, ws, hint);
    return sink;
  };
  // NaN = cold: no attempt at all.
  const obs::SolveCounters cold = run(kNaN);
  EXPECT_EQ(cold.warm_attempts, 0u);
  EXPECT_EQ(cold.warm_hits, 0u);
  EXPECT_GT(cold.water_fill_evals, 0u);
  // A usable hint near the true level (3.0) is an attempt and a hit.
  const obs::SolveCounters hit = run(2.9);
  EXPECT_EQ(hit.warm_attempts, 1u);
  EXPECT_EQ(hit.warm_hits, 1u);
  // A finite but out-of-bracket hint is an attempted miss.
  const obs::SolveCounters miss = run(0.5);
  EXPECT_EQ(miss.warm_attempts, 1u);
  EXPECT_EQ(miss.warm_hits, 0u);
}

TEST(Counters, AssignmentWarmPayloadAccounting) {
  Rng rng(5);
  NetworkInstance inst = grid_city(rng, 3, 3, 1.5);
  SolverWorkspace ws;
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);

  // Converged state of a real solve is an attempt and a hit.
  const AssignmentResult first =
      assign_traffic(inst, FlowObjective::kTotalCost, {}, {}, ws);
  AssignmentWarmStart warm;
  warm.commodity_paths = first.commodity_paths;
  for (const auto& c : inst.commodities) warm.demands.push_back(c.demand);
  const AssignmentResult rewarmed =
      assign_traffic(inst, FlowObjective::kTotalCost, {}, {}, ws, warm);
  EXPECT_EQ(rewarmed.counters.warm_attempts, 1u);
  EXPECT_EQ(rewarmed.counters.warm_hits, 1u);

  // A junk payload (wrong commodity count) is an attempted miss that
  // falls back cold — same answer, hit not counted.
  AssignmentWarmStart junk;
  junk.commodity_paths.resize(inst.commodities.size() + 3);
  junk.demands.assign(inst.commodities.size() + 3, 1.0);
  const AssignmentResult missed =
      assign_traffic(inst, FlowObjective::kTotalCost, {}, {}, ws, junk);
  EXPECT_EQ(missed.counters.warm_attempts, 1u);
  EXPECT_EQ(missed.counters.warm_hits, 0u);
  EXPECT_NEAR(missed.objective, rewarmed.objective,
              1e-8 * std::fmax(1.0, std::fabs(rewarmed.objective)));
}

// ---- Convergence trace ---------------------------------------------------

TEST(ConvergenceTrace, RingBufferRetainsTheNewest) {
  obs::ConvergenceTrace trace(4);
  EXPECT_EQ(trace.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    trace.record(i, 0.5, 0.25, 100.0 + i);
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 10u);
  // Oldest-first iteration over the retained window.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i).iteration, static_cast<std::int32_t>(6 + i));
  }
}

TEST(ConvergenceTrace, JsonlSchemaAndContexts) {
  obs::ConvergenceTrace trace;
  trace.record(1, 0.5, 1.0, 42.0);
  trace.push_context("task 7");
  trace.record(2, 0.25, 0.5, kNaN);

  std::ostringstream os;
  trace.write_jsonl(os);
  const std::string out = os.str();
  // One object per line, fixed key set, non-finite -> null.
  EXPECT_EQ(count_occurrences(out, "\n"), 2u);
  EXPECT_EQ(count_occurrences(out, "{\"ctx\":"), 2u);
  EXPECT_EQ(count_occurrences(out, "\"rel_gap\":"), 2u);
  EXPECT_NE(out.find("{\"ctx\":\"\",\"iter\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("{\"ctx\":\"task 7\",\"iter\":2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"objective\":null"), std::string::npos) << out;
}

TEST(ConvergenceTrace, RecordConvergenceNeedsAnInstalledSink) {
  obs::record_convergence(1, 0.5, 1.0, 2.0);  // no sink: no-op, no crash
  obs::ConvergenceTrace trace;
  {
    obs::ConvergenceScope scope(trace);
    ASSERT_EQ(obs::convergence(), &trace);
    obs::record_convergence(1, 0.5, 1.0, 2.0);
  }
  EXPECT_EQ(obs::convergence(), nullptr);
  EXPECT_EQ(trace.total_recorded(), 1u);
}

// ---- Span traces ---------------------------------------------------------

TEST(TraceSession, NestedSpansBalanceAndExport) {
  obs::TraceSession session(0);
  session.set_tid(3);
  session.begin("solve");
  session.begin("dijkstra");
  session.end();
  session.instant("note");
  session.end();
  EXPECT_TRUE(session.balanced());
  EXPECT_EQ(session.events(), 5u);
  EXPECT_EQ(session.dropped(), 0u);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"B\""),
            count_occurrences(out, "\"ph\":\"E\""));
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(count_occurrences(out, "\"tid\":3"), 5u);
  EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);  // instant scope
}

TEST(TraceSession, OverflowDropsButStaysBalanced) {
  obs::TraceSession session(0, /*max_events=*/3);
  session.begin("a");
  session.begin("b");
  session.begin("c");  // fills the storage
  session.begin("d");  // full: dropped, sentinel keeps the stack honest
  session.end();       // closes the dropped d: swallowed
  session.end();       // closes c (E events always land, keeping balance)
  session.end();       // closes b
  session.end();       // closes a
  session.end();       // stray end: ignored
  EXPECT_TRUE(session.balanced());
  EXPECT_GT(session.dropped(), 0u);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"B\""),
            count_occurrences(out, "\"ph\":\"E\""));
}

TEST(TraceSession, MergedExportKeepsPerSessionTids) {
  obs::TraceSession a(0), b(0);
  a.set_tid(0);
  b.set_tid(1);
  a.begin("x");
  a.end();
  b.begin("y");
  b.end();
  const obs::TraceSession* sessions[] = {&a, &b};
  std::ostringstream os;
  obs::TraceSession::write_chrome_trace(sessions, os);
  const std::string out = os.str();
  EXPECT_EQ(count_occurrences(out, "\"tid\":0"), 2u);
  EXPECT_EQ(count_occurrences(out, "\"tid\":1"), 2u);
}

TEST(SolverTracing, SolversEmitSpansAndSamples) {
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 4, 4, 2.0);
  obs::TraceSession session;
  obs::ConvergenceTrace convergence;
  {
    obs::TraceScope trace(session);
    obs::ConvergenceScope conv(convergence);
    (void)assign_traffic(inst, FlowObjective::kBeckmann, {});
    BushOptions opts;
    opts.max_iters = 5;
    opts.rel_gap_tol = 0.0;
    (void)solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  }
  EXPECT_TRUE(session.balanced());
  EXPECT_GT(session.events(), 0u);
  EXPECT_GT(convergence.total_recorded(), 0u);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"assign_traffic\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"equalize_sweep\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"bush\""), std::string::npos);
}

// ---- Quantiles -----------------------------------------------------------

TEST(Quantiles, NearestRankDefinition) {
  const obs::QuantileSummary q = obs::QuantileSummary::of({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(q.count, 4u);
  EXPECT_DOUBLE_EQ(q.min, 1.0);
  EXPECT_DOUBLE_EQ(q.max, 4.0);
  EXPECT_DOUBLE_EQ(q.mean, 2.5);
  EXPECT_DOUBLE_EQ(q.p50, 2.0);  // ceil(0.5*4) = 2nd of {1,2,3,4}
  EXPECT_DOUBLE_EQ(q.p90, 4.0);
  EXPECT_DOUBLE_EQ(q.p99, 4.0);
  EXPECT_NE(q.to_string().find("p50 2"), std::string::npos);

  const obs::QuantileSummary empty = obs::QuantileSummary::of({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_NE(empty.to_string().find("n=0"), std::string::npos);

  const obs::QuantileSummary one = obs::QuantileSummary::of({7.0});
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
}

// ---- Sweep profiling -----------------------------------------------------

// The headline contract: collecting counters and traces changes no metric
// byte, at one thread or many.
TEST(SweepProfiling, TablesBitwiseIdenticalOnVsOff) {
  using namespace stackroute::sweep;
  ScenarioSpec spec;
  spec.name = "profiled-gen";
  spec.grid.add_linspace("demand", 0.5, 2.0, 6);
  spec.factory = generated_instance_source(gen::sized_spec("grid-bpr", 4), 11);
  spec.metrics = default_metrics();
  spec.warm_axis = "demand";

  auto run = [&](bool profiled, int threads, SweepTrace* trace) {
    set_max_threads(threads);
    SweepOptions opts;
    opts.collect_counters = profiled;
    SweepResult r = SweepRunner(opts).run(spec, trace);
    set_max_threads(0);
    return r;
  };

  const SweepResult plain = run(false, 1, nullptr);
  SweepTrace trace1, traceN;
  const SweepResult profiled1 = run(true, 1, &trace1);
  const SweepResult profiledN = run(true, 0, &traceN);

  EXPECT_EQ(plain.to_csv(), profiled1.to_csv());
  EXPECT_EQ(plain.to_csv(), profiledN.to_csv());
  EXPECT_EQ(plain.table().to_json(), profiled1.table().to_json());

  // The plain run reports no counters anywhere...
  EXPECT_FALSE(plain.counted);
  EXPECT_FALSE(plain.total_counters().any());
  // ...the profiled run reports them everywhere they belong.
  EXPECT_TRUE(profiled1.counted);
  const obs::SolveCounters totals = profiled1.total_counters();
  EXPECT_GT(totals.dijkstra_calls, 0u);
  EXPECT_GT(totals.warm_hits, 0u);
  EXPECT_NE(profiled1.summary().find("counters:"), std::string::npos);
  const std::string profile = profiled1.profile();
  EXPECT_NE(profile.find("task millis:"), std::string::npos);
  EXPECT_NE(profile.find("p99"), std::string::npos);
  EXPECT_NE(profile.find("hit rate"), std::string::npos);
  // Counter columns ride the diagnostic table only.
  EXPECT_NE(profiled1.timing_table().to_csv().find("dijkstra_calls"),
            std::string::npos);
  EXPECT_EQ(profiled1.table().to_csv().find("dijkstra_calls"),
            std::string::npos);

  // Counters are part of the determinism contract too: same work at any
  // thread count.
  ASSERT_EQ(profiled1.records.size(), profiledN.records.size());
  for (std::size_t i = 0; i < profiled1.records.size(); ++i) {
    for (const auto& f : obs::SolveCounters::fields()) {
      EXPECT_EQ(profiled1.records[i].counters.get(f),
                profiledN.records[i].counters.get(f))
          << "task " << i << " " << f.name;
    }
  }

  // The traced run produced balanced per-chain sessions and samples.
  ASSERT_EQ(trace1.sessions.size(), profiled1.chains);
  ASSERT_EQ(trace1.convergence.size(), profiled1.chains);
  std::size_t events = 0, samples = 0;
  for (const auto& s : trace1.sessions) {
    EXPECT_TRUE(s.balanced());
    events += s.events();
  }
  for (const auto& c : trace1.convergence) samples += c.total_recorded();
  EXPECT_GT(events, 0u);
  EXPECT_GT(samples, 0u);

  std::ostringstream chrome;
  trace1.write_chrome_trace(chrome);
  const std::string doc = chrome.str();
  EXPECT_EQ(count_occurrences(doc, "\"ph\":\"B\""),
            count_occurrences(doc, "\"ph\":\"E\""));
  EXPECT_NE(doc.find("\"name\":\"task 0\""), std::string::npos);

  std::ostringstream jsonl;
  trace1.write_convergence_jsonl(jsonl);
  EXPECT_EQ(count_occurrences(jsonl.str(), "{\"ctx\":"), samples);
}

}  // namespace
}  // namespace stackroute
