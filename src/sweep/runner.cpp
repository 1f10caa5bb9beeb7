#include "stackroute/sweep/runner.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "stackroute/engine/engine.h"
#include "stackroute/obs/profile.h"
#include "stackroute/obs/timing.h"
#include "stackroute/util/error.h"
#include "stackroute/util/parallel.h"

namespace stackroute::sweep {

void SweepTrace::write_chrome_trace(std::ostream& os) const {
  std::vector<const obs::TraceSession*> ptrs;
  ptrs.reserve(sessions.size());
  for (const auto& s : sessions) ptrs.push_back(&s);
  obs::TraceSession::write_chrome_trace(ptrs, os);
}

void SweepTrace::write_convergence_jsonl(std::ostream& os) const {
  for (const auto& trace : convergence) trace.write_jsonl(os);
}

std::size_t SweepResult::num_failed() const {
  std::size_t n = 0;
  for (const auto& rec : records) n += rec.ok ? 0 : 1;
  return n;
}

std::size_t SweepResult::num_degraded() const {
  std::size_t n = 0;
  for (const auto& rec : records) {
    n += (rec.ok && !solve_ok(rec.status)) ? 1 : 0;
  }
  return n;
}

obs::SolveCounters SweepResult::total_counters() const {
  obs::SolveCounters total;
  for (const auto& rec : records) total.merge(rec.counters);
  return total;
}

namespace {

Table build_table(const SweepResult& r, bool with_timing) {
  // Counter columns ride only on the diagnostic (timing) table of a
  // counted run — the deterministic table() never widens.
  const bool with_counters = with_timing && r.counted;
  std::vector<std::string> headers = r.param_columns;
  headers.insert(headers.end(), r.metric_columns.begin(),
                 r.metric_columns.end());
  headers.emplace_back("status");
  if (with_timing) {
    headers.emplace_back("chain");
    headers.emplace_back("millis");
    headers.emplace_back("retries");
  }
  if (with_counters) {
    for (const auto& f : obs::SolveCounters::fields()) {
      headers.emplace_back(f.name);
    }
  }
  Table t(std::move(headers));
  for (const auto& rec : r.records) {
    std::vector<std::string> row;
    row.reserve(rec.point.size() + rec.metrics.size() + 2);
    for (double v : rec.point.values()) row.push_back(format_double(v, r.digits));
    // A task that failed before its point materialized has no param values.
    for (std::size_t k = rec.point.size(); k < r.param_columns.size(); ++k) {
      row.emplace_back("nan");
    }
    for (double v : rec.metrics) row.push_back(format_double(v, r.digits));
    // Converged rows keep the historical "ok" (bitwise-stable tables);
    // degraded rows carry their taxonomy string, failed rows "error".
    row.emplace_back(!rec.ok             ? "error"
                     : solve_ok(rec.status) ? "ok"
                                            : to_string(rec.status));
    if (with_timing) {
      row.push_back(std::to_string(rec.chain));
      row.push_back(format_double(rec.millis, 3));
      row.push_back(std::to_string(rec.retries));
    }
    if (with_counters) {
      for (const auto& f : obs::SolveCounters::fields()) {
        row.push_back(std::to_string(rec.counters.get(f)));
      }
    }
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace

Table SweepResult::table() const { return build_table(*this, false); }

Table SweepResult::timing_table() const { return build_table(*this, true); }

std::string SweepResult::summary() const {
  std::ostringstream os;
  os << scenario << ": " << num_tasks() << " tasks, " << num_failed()
     << " failed, " << num_degraded() << " degraded, "
     << format_double(total_millis, 1) << " ms total, "
     << threads << " thread(s), ";
  if (!warm_axis.empty()) {
    os << chains << " warm chain(s) along '" << warm_axis << "'";
  } else {
    os << "cold solves";
  }
  if (counted) {
    const obs::SolveCounters total = total_counters();
    os << "\ncounters: "
       << (total.any() ? total.to_string() : std::string("all zero"));
  }
  return os.str();
}

std::string SweepResult::profile() const {
  std::ostringstream os;
  os << scenario << " profile: " << num_tasks() << " task(s), " << chains
     << " chain(s), " << threads << " thread(s), "
     << format_double(total_millis, 1) << " ms total\n";

  std::vector<double> task_ms;
  task_ms.reserve(records.size());
  std::vector<double> chain_ms(chains, 0.0);
  for (const auto& rec : records) {
    task_ms.push_back(rec.millis);
    if (rec.chain < chain_ms.size()) chain_ms[rec.chain] += rec.millis;
  }
  os << "  task millis:   " << obs::QuantileSummary::of(task_ms).to_string()
     << "\n";
  os << "  chain millis:  "
     << obs::QuantileSummary::of(std::move(chain_ms)).to_string() << "\n";

  if (!counted) {
    os << "  counters: not collected (enable SweepOptions::collect_counters "
          "/ --counters)";
    return os.str();
  }

  const obs::SolveCounters total = total_counters();
  // Per-task quantiles of every counter that fired at least once; silent
  // fields are summarized in one line so nothing is dropped invisibly.
  std::vector<const char*> silent;
  for (const auto& f : obs::SolveCounters::fields()) {
    if (total.get(f) == 0) {
      silent.push_back(f.name);
      continue;
    }
    std::vector<double> samples;
    samples.reserve(records.size());
    for (const auto& rec : records) {
      samples.push_back(static_cast<double>(rec.counters.get(f)));
    }
    os << "  " << f.name << "/task: "
       << obs::QuantileSummary::of(std::move(samples)).to_string(1)
       << "  [total " << total.get(f) << "]\n";
  }
  if (!silent.empty()) {
    os << "  zero everywhere:";
    for (const char* name : silent) os << ' ' << name;
    os << '\n';
  }

  os << "  warm-start: " << total.warm_attempts << " attempt(s), "
     << total.warm_hits << " hit(s)";
  if (total.warm_attempts > 0) {
    os << " ("
       << format_double(100.0 * static_cast<double>(total.warm_hits) /
                            static_cast<double>(total.warm_attempts),
                        1)
       << "% hit rate)";
  }
  os << ", " << total.chain_resets << " chain reset(s)";
  return os.str();
}

namespace {

/// Deterministic chain decomposition of a row-major grid along one axis: a
/// pure function of (grid, axis), independent of thread count. Chain c's
/// j-th task has flat index (c / stride) * block + (c % stride) +
/// j * stride, where stride is the warm axis's row-major stride — i.e. the
/// warm axis varies while every other coordinate stays fixed.
struct ChainLayout {
  std::size_t chains = 0;
  std::size_t length = 1;
  std::size_t stride = 1;
  std::size_t block = 1;
  bool active = false;  // a warm axis with >= 2 values was found

  [[nodiscard]] std::size_t flat(std::size_t chain, std::size_t j) const {
    return (chain / stride) * block + (chain % stride) + j * stride;
  }
};

ChainLayout chain_layout(const ParamGrid& grid, const std::string& warm_axis,
                         bool warm_enabled) {
  ChainLayout out;
  out.chains = grid.size();
  if (!warm_enabled || warm_axis.empty()) return out;
  const auto& axes = grid.axes();
  std::size_t a = axes.size();
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (axes[i].name == warm_axis) a = i;
  }
  if (a == axes.size()) return out;  // axis not in this grid: all-cold
  const std::size_t w = axes[a].values.size();
  if (w < 2) return out;  // nothing to chain along
  std::size_t stride = 1;
  for (std::size_t i = a + 1; i < axes.size(); ++i) {
    stride *= axes[i].values.size();
  }
  out.length = w;
  out.stride = stride;
  out.block = w * stride;
  out.chains = grid.size() / w;
  out.active = true;
  return out;
}

}  // namespace

SweepResult SweepRunner::run(const ScenarioSpec& spec) const {
  return run(spec, nullptr);
}

SweepResult SweepRunner::run(const ScenarioSpec& spec,
                             SweepTrace* sweep_trace) const {
  SR_REQUIRE(spec.factory, "scenario " + spec.name + " has no factory");
  SR_REQUIRE(!spec.metrics.empty(),
             "scenario " + spec.name + " has no metrics");

  SweepResult result;
  result.scenario = spec.name;
  result.param_columns = spec.grid.names();
  for (const auto& m : spec.metrics) result.metric_columns.push_back(m.column);
  result.digits = opts_.digits;

  // Duplicate column names would collapse to one key in to_json(),
  // silently dropping a column; reject them like ParamGrid::add does —
  // including the columns table()/timing_table() append — before any
  // compute is spent.
  std::set<std::string> columns = {"status", "millis", "chain", "retries"};
  for (const auto& f : obs::SolveCounters::fields()) columns.insert(f.name);
  for (const auto& name : result.param_columns) {
    SR_REQUIRE(columns.insert(name).second,
               "reserved or duplicate sweep column name: " + name);
  }
  for (const auto& m : spec.metrics) {
    SR_REQUIRE(columns.insert(m.column).second,
               "reserved or duplicate sweep column name: " + m.column);
  }

  const std::size_t n = spec.grid.size();
  result.records.resize(n);

  const ChainLayout layout =
      chain_layout(spec.grid, spec.warm_axis, opts_.warm_start);
  result.chains = layout.chains;
  if (layout.active) result.warm_axis = spec.warm_axis;
  result.counted = opts_.collect_counters;

  if (sweep_trace != nullptr) {
    // One single-threaded session per chain, all sharing one epoch so the
    // merged chrome timeline lines up; the chain index is the trace tid.
    sweep_trace->epoch_ns = obs::now_ns();
    sweep_trace->sessions.clear();
    sweep_trace->convergence.clear();
    sweep_trace->sessions.reserve(layout.chains);
    sweep_trace->convergence.reserve(layout.chains);
    for (std::size_t c = 0; c < layout.chains; ++c) {
      sweep_trace->sessions.emplace_back(sweep_trace->epoch_ns);
      sweep_trace->sessions.back().set_tid(static_cast<int>(c));
      sweep_trace->convergence.emplace_back();
    }
  }

  result.threads = threads_for(layout.chains);

  // The runner is a thin client of the engine: every chain is an engine
  // session (workspace + warm payloads), opened up front so the chain
  // lambda below is allocation-order independent. The engine's typed
  // request path is bypassed — metrics are arbitrary lambdas over
  // TaskEval — but the state the tasks hand forward is exactly the state
  // a service request stream would reuse, through the same
  // engine::Evaluation.
  engine::Engine eng;
  std::vector<std::uint64_t> session_ids;
  session_ids.reserve(layout.chains);
  for (std::size_t c = 0; c < layout.chains; ++c) {
    session_ids.push_back(eng.open_session());
  }

  obs::Timer total;
  parallel_for(
      layout.chains,
      [&](std::size_t c) {
        // The chain's persistent state: the engine session owning the
        // workspace + warm-start payloads, handed from each task to the
        // next in axis order. With inactive layouts (length 1) the context
        // is never consulted across tasks, so solves run exactly as the
        // pre-chain cold path did.
        ChainContext& ctx = *eng.session(session_ids[c]);
        // Tracing sinks live per chain (one thread each); counters per
        // task, installed below so each record tallies its own work.
        std::optional<obs::TraceScope> trace_scope;
        std::optional<obs::ConvergenceScope> conv_scope;
        if (sweep_trace != nullptr) {
          trace_scope.emplace(sweep_trace->sessions[c]);
          conv_scope.emplace(sweep_trace->convergence[c]);
        }
        for (std::size_t j = 0; j < layout.length; ++j) {
          const std::size_t i = layout.flat(c, j);
          TaskRecord& rec = result.records[i];
          rec.chain = c;
          std::optional<obs::CountersScope> counter_scope;
          if (opts_.collect_counters) counter_scope.emplace(rec.counters);
          std::optional<obs::ScopedSpan> task_span;
          if (sweep_trace != nullptr) {
            const std::string label = "task " + std::to_string(i);
            sweep_trace->convergence[c].push_context(label);
            task_span.emplace(label);
          }
          obs::Timer sw;
          // A failed task is a row, not an abort: record and move on,
          // decide about rethrowing once every chain has finished.
          // grid.at() is inside too — even a bad_alloc there must become a
          // failed row. A failed attempt drops the chain's warm state and
          // may be re-attempted cold per RetryPolicy; faults for this task
          // (if a plan is armed) fire per attempt, so a retry observes
          // clean arithmetic unless the plan persists the fault.
          const fault::TaskFaults* tf =
              opts_.faults != nullptr ? opts_.faults->for_task(i) : nullptr;
          const int max_attempts = 1 + std::max(0, opts_.retry.max_retries);
          for (int attempt = 0; attempt < max_attempts; ++attempt) {
            if (attempt > 0) {
              obs::count(&obs::SolveCounters::task_retries);
              ++rec.retries;
            }
            try {
              rec.point = spec.grid.at(i);
              Rng rng(mix_seed(spec.base_seed, i));
              Instance instance = spec.factory(rec.point, rng);
              if (tf != nullptr) {
                if (attempt < tf->fail_times) {
                  throw fault::InjectedFault(
                      "injected task failure (attempt " +
                      std::to_string(attempt) + ")");
                }
                if (tf->demand_factor != 1.0) {
                  scale_demand(instance, tf->demand_factor);
                }
              }
              // Latency-evaluation faults arm on the first attempt only —
              // they model transient numeric trouble a cold retry outlives.
              fault::FaultScope fault_scope(tf, attempt);
              TaskEval eval(rec.point, instance,
                            layout.active ? &ctx : nullptr);
              eval.set_budget(opts_.budget);
              eval.set_backend(spec.backend);
              rec.metrics.clear();
              rec.metrics.reserve(spec.metrics.size());
              for (std::size_t k = 0; k < spec.metrics.size(); ++k) {
                if (tf != nullptr &&
                    static_cast<int>(k) == tf->metric_index &&
                    attempt < tf->metric_times) {
                  throw fault::InjectedFault("injected metric failure: " +
                                             spec.metrics[k].column);
                }
                rec.metrics.push_back(spec.metrics[k].fn(eval));
              }
              rec.status = eval.status();
              rec.ok = true;
              rec.error.clear();
              eval.finish_chain(std::move(instance));
              break;
            } catch (const std::exception& e) {
              rec.ok = false;
              rec.error = e.what();
              rec.metrics.assign(spec.metrics.size(),
                                 std::numeric_limits<double>::quiet_NaN());
              rec.status = SolveStatus::kNumericFailure;
              // The next point (or this task's retry) restarts the chain
              // cold; only count a reset when there was warm state to drop,
              // so the reset lands once, on the first failing attempt.
              if (ctx.has_prev) obs::count(&obs::SolveCounters::chain_resets);
              ctx.reset_warm();
            } catch (...) {  // foreign exceptions must not escape either
              rec.ok = false;
              rec.error = "unknown error (non-std exception)";
              rec.metrics.assign(spec.metrics.size(),
                                 std::numeric_limits<double>::quiet_NaN());
              rec.status = SolveStatus::kNumericFailure;
              if (ctx.has_prev) obs::count(&obs::SolveCounters::chain_resets);
              ctx.reset_warm();
            }
          }
          rec.millis = sw.milliseconds();
        }
      });
  result.total_millis = total.milliseconds();

  if (!opts_.keep_going) {
    for (const auto& rec : result.records) {
      if (rec.ok) continue;
      // Name the grid point so the rethrow pinpoints the failing task.
      std::string where;
      for (std::size_t k = 0;
           k < rec.point.size() && k < result.param_columns.size(); ++k) {
        if (!where.empty()) where += ", ";
        where += result.param_columns[k] + "=" +
                 format_double(rec.point.values()[k], result.digits);
      }
      throw Error("sweep task failed" +
                  (where.empty() ? std::string() : " at {" + where + "}") +
                  ": " + rec.error);
    }
  }
  return result;
}

}  // namespace stackroute::sweep
