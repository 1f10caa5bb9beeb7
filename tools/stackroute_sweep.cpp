// stackroute-sweep: run a named scenario sweep, a file-backed demand
// sweep, or a generated-instance demand sweep across all hardware threads
// and print the metric table.
//
//   stackroute-sweep --list-scenarios
//   stackroute-sweep --list-generators
//   stackroute-sweep --scenario grid-bpr
//   stackroute-sweep --scenario pigou-grid --threads 1 --format csv
//   stackroute-sweep --file examples/instances/fig4.links
//       --demand 0.5 3.0 11 --format json --out fig4_sweep.json
//   stackroute-sweep --file examples/instances/SiouxFalls_net.tntp
//       --demand 500 4000 8
//   stackroute-sweep --generate grid-bpr --size 6 --gen-seed 7
//   stackroute-sweep --generate grid --strategy llf --alpha 0 1 21
//
// The metric table is bitwise identical at any --threads value; timing
// lives in the summary line (written to stderr so --out files stay clean).
// Exit status: 0 = clean sweep; 1 = usage or runtime error; 2 = the sweep
// completed but some rows failed or were degraded (budget hit, numeric
// trouble) — the table was still written, check its status column.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "stackroute/gen/registry.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/error.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/parallel.h"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: stackroute-sweep [options]\n"
        "  --scenario NAME       builtin scenario to run (default pigou-grid)\n"
        "  --file PATH           sweep an instance file over demand instead\n"
        "                        (.links/.net text, or a TNTP *_net.tntp)\n"
        "  --generate NAME       sweep a generated instance over demand\n"
        "                        (NAME may be any unambiguous prefix of a\n"
        "                        generator family, e.g. 'grid')\n"
        "  --backend NAME        equilibrium backend for network Nash solves:\n"
        "                        pe (path equalization, default) | bush\n"
        "                        (origin-based bushes); reports the\n"
        "                        equilibrium metric columns and needs\n"
        "                        --file/--generate\n"
        "  --strategy NAME       aloof | scale | llf | optop: report the\n"
        "                        named Leader baseline's C(S+T)/C(O) column\n"
        "                        instead of the default metrics (needs\n"
        "                        --file/--generate)\n"
        "  --alpha LO HI COUNT   alpha axis for --strategy scale|llf\n"
        "                        (default 0 1 11; needs 0 <= LO < HI <= 1,\n"
        "                        COUNT >= 2); alpha is the warm axis, so\n"
        "                        chained points reuse the previous alpha's\n"
        "                        converged follower flow\n"
        "  --size N              generator size knob (0 = family default)\n"
        "  --gen-seed N          generator seed (default 1)\n"
        "  --demand LO HI COUNT  total-demand axis for --file/--generate\n"
        "                        (default 0.5 3.0 11; needs 0 < LO < HI,\n"
        "                        COUNT >= 2); required for a X_net.tntp\n"
        "                        with a sibling X_trips.tntp OD matrix\n"
        "  --seed N              base seed for per-task RNG derivation\n"
        "  --warm-start on|off   chain solves along the scenario's warm axis,\n"
        "                        reusing the neighboring point's converged\n"
        "                        state (default on; off = independent cold\n"
        "                        tasks, for A/B timing)\n"
        "  --threads N           worker threads (0 = all hardware threads,\n"
        "                        1 = serial; chains are the unit of\n"
        "                        parallelism, every solve is single-threaded)\n"
        "  --format FMT          md | csv | json (default md)\n"
        "  --out PATH            write the table to a file instead of stdout\n"
        "  --timing              include the diagnostic chain/wall-clock\n"
        "                        columns (and counter columns with --counters)\n"
        "  --counters            collect solver work counters: totals go to\n"
        "                        the stderr summary, per-task values to the\n"
        "                        --timing columns (never to the plain table)\n"
        "  --profile             print p50/p90/p99 profiles of task/chain wall\n"
        "                        times and counters to stderr (implies\n"
        "                        --counters)\n"
        "  --trace FILE          record per-chain solver span traces to FILE\n"
        "                        as chrome://tracing JSON (load via ui.perfetto\n"
        "                        .dev or chrome://tracing); a .jsonl suffix\n"
        "                        writes per-iteration convergence samples as\n"
        "                        JSON Lines instead\n"
        "  --deadline-ms X       per-task wall-clock solve budget in ms:\n"
        "                        overrunning solves return best-so-far flows\n"
        "                        and the row's status column says 'deadline'\n"
        "  --retries N           cold re-attempts for failed tasks before the\n"
        "                        failed row is recorded (default 1)\n"
        "  --inject SPEC         inject a deterministic fault (repeatable):\n"
        "                          fail:TASK[:TIMES]    task throws at start\n"
        "                          nan:TASK:CALL        NaN latency eval\n"
        "                          inf:TASK:CALL        +Inf latency eval\n"
        "                          metric:TASK:IDX[:TIMES]  metric throws\n"
        "                          demand:TASK:FACTOR   scale task demand\n"
        "  --list-scenarios      list builtin scenarios and exit\n"
        "                        (--list is a shorthand)\n"
        "  --list-generators     list generator families and knobs, exit\n"
        "  --help, -h            print this help and exit\n"
        "exit status: 0 clean; 1 usage/runtime error; 2 sweep completed\n"
        "with failed or degraded rows (see the status column)\n";
  return code;
}

struct Args {
  std::string scenario = "pigou-grid";
  bool scenario_given = false;
  std::string file;
  std::string generate;
  int gen_size = 0;
  bool gen_size_given = false;
  std::uint64_t gen_seed = 1;
  bool gen_seed_given = false;
  double demand_lo = 0.5, demand_hi = 3.0;
  int demand_count = 11;
  bool demand_given = false;
  std::string strategy;
  std::string backend;
  double alpha_lo = 0.0, alpha_hi = 1.0;
  int alpha_count = 11;
  bool alpha_given = false;
  std::uint64_t seed = 1;
  bool warm_start = true;
  int threads = 0;
  std::string format = "md";
  std::string out;
  bool timing = false;
  bool counters = false;
  bool profile = false;
  std::string trace;
  double deadline_ms = 0.0;
  int retries = 1;
  std::vector<std::string> inject;
  bool list = false;
  bool list_generators = false;
  bool help = false;
};

/// std::stoull quietly wraps "-1" to 2^64-1; a negated seed must be a
/// hard error, not a silently different reproducibility token.
std::uint64_t parse_u64(const std::string& s) {
  if (!s.empty() && s[0] == '-') throw std::invalid_argument("negative");
  return std::stoull(s);
}

bool parse_args(int argc, char** argv, Args& args) {
  auto need = [&](int i, int extra) { return i + extra < argc; };
  std::string current;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = current = argv[i];
      if (a == "--list" || a == "--list-scenarios") {
        args.list = true;
      } else if (a == "--list-generators") {
        args.list_generators = true;
      } else if (a == "--help" || a == "-h") {
        args.help = true;
      } else if (a == "--timing") {
        args.timing = true;
      } else if (a == "--counters") {
        args.counters = true;
      } else if (a == "--profile") {
        args.profile = true;
        args.counters = true;  // profiles are counter aggregates
      } else if (a == "--trace" && need(i, 1)) {
        args.trace = argv[++i];
      } else if (a == "--scenario" && need(i, 1)) {
        args.scenario = argv[++i];
        args.scenario_given = true;
      } else if (a == "--file" && need(i, 1)) {
        args.file = argv[++i];
      } else if (a == "--generate" && need(i, 1)) {
        args.generate = argv[++i];
      } else if (a == "--size" && need(i, 1)) {
        args.gen_size = std::stoi(argv[++i]);
        args.gen_size_given = true;
      } else if (a == "--gen-seed" && need(i, 1)) {
        args.gen_seed = parse_u64(argv[++i]);
        args.gen_seed_given = true;
      } else if (a == "--demand" && need(i, 3)) {
        args.demand_lo = std::stod(argv[++i]);
        args.demand_hi = std::stod(argv[++i]);
        args.demand_count = std::stoi(argv[++i]);
        args.demand_given = true;
      } else if (a == "--strategy" && need(i, 1)) {
        args.strategy = argv[++i];
      } else if (a == "--backend" && need(i, 1)) {
        args.backend = argv[++i];
      } else if (a == "--alpha" && need(i, 3)) {
        args.alpha_lo = std::stod(argv[++i]);
        args.alpha_hi = std::stod(argv[++i]);
        args.alpha_count = std::stoi(argv[++i]);
        args.alpha_given = true;
      } else if (a == "--seed" && need(i, 1)) {
        args.seed = parse_u64(argv[++i]);
      } else if (a == "--warm-start" && need(i, 1)) {
        const std::string v = argv[++i];
        if (v == "on") {
          args.warm_start = true;
        } else if (v == "off") {
          args.warm_start = false;
        } else {
          std::cerr << "bad value for --warm-start: " << v
                    << " (expected on or off)\n";
          return false;
        }
      } else if (a == "--deadline-ms" && need(i, 1)) {
        args.deadline_ms = std::stod(argv[++i]);
      } else if (a == "--retries" && need(i, 1)) {
        args.retries = std::stoi(argv[++i]);
      } else if (a == "--inject" && need(i, 1)) {
        args.inject.emplace_back(argv[++i]);
      } else if (a == "--threads" && need(i, 1)) {
        args.threads = std::stoi(argv[++i]);
      } else if (a == "--format" && need(i, 1)) {
        args.format = argv[++i];
      } else if (a == "--out" && need(i, 1)) {
        args.out = argv[++i];
      } else {
        std::cerr << "unknown or incomplete option: " << a << "\n";
        return false;
      }
    }
  } catch (const std::exception&) {  // std::stod/stoi on non-numeric input
    std::cerr << "bad numeric value for option: " << current << "\n";
    return false;
  }
  const bool generating = !args.generate.empty();
  if (args.scenario_given && !args.file.empty()) {
    std::cerr << "--scenario and --file are mutually exclusive\n";
    return false;
  }
  if (generating && (args.scenario_given || !args.file.empty())) {
    std::cerr << "--generate is mutually exclusive with --scenario/--file\n";
    return false;
  }
  if ((args.gen_size_given || args.gen_seed_given) && !generating) {
    std::cerr << "--size/--gen-seed only apply to --generate runs\n";
    return false;
  }
  if (args.gen_size_given && args.gen_size < 0) {
    std::cerr << "bad value for --size: " << args.gen_size
              << " (must be >= 0; 0 = family default)\n";
    return false;
  }
  if (args.demand_given && args.file.empty() && !generating) {
    std::cerr << "--demand only applies to --file/--generate sweeps\n";
    return false;
  }
  if (!args.strategy.empty()) {
    if (args.file.empty() && !generating) {
      std::cerr << "--strategy only applies to --file/--generate sweeps\n";
      return false;
    }
    if (args.strategy != "aloof" && args.strategy != "scale" &&
        args.strategy != "llf" && args.strategy != "optop") {
      std::cerr << "bad value for --strategy: " << args.strategy
                << " (expected aloof, scale, llf or optop)\n";
      return false;
    }
  }
  if (!args.backend.empty()) {
    if (args.file.empty() && args.generate.empty()) {
      std::cerr << "--backend only applies to --file/--generate sweeps\n";
      return false;
    }
    if (!args.strategy.empty()) {
      // Strategy baselines pin the follower solves to the induced-solver
      // path; offering --backend there would silently not take effect.
      std::cerr << "--backend and --strategy are mutually exclusive\n";
      return false;
    }
  }
  const bool alpha_swept =
      args.strategy == "scale" || args.strategy == "llf";
  if (args.alpha_given && !alpha_swept) {
    std::cerr << "--alpha only applies to --strategy scale|llf\n";
    return false;
  }
  if (args.alpha_given) {
    if (!(args.alpha_lo >= 0.0 && args.alpha_lo < args.alpha_hi &&
          args.alpha_hi <= 1.0)) {
      std::cerr << "bad --alpha range: need 0 <= LO < HI <= 1 (got LO="
                << args.alpha_lo << ", HI=" << args.alpha_hi << ")\n";
      return false;
    }
    if (args.alpha_count < 2) {
      std::cerr << "bad --alpha range: COUNT must be >= 2 (got "
                << args.alpha_count << ")\n";
      return false;
    }
  }
  if (args.demand_given) {
    // A hi < lo or single-point axis would silently sweep a degenerate
    // (or backwards) demand range; reject it up front.
    if (!(args.demand_lo > 0.0)) {
      std::cerr << "bad --demand range: LO must be > 0 (got "
                << args.demand_lo << ")\n";
      return false;
    }
    if (!(args.demand_hi > args.demand_lo)) {
      std::cerr << "bad --demand range: HI must be > LO (got LO="
                << args.demand_lo << ", HI=" << args.demand_hi << ")\n";
      return false;
    }
    if (args.demand_count < 2) {
      std::cerr << "bad --demand range: COUNT must be >= 2 (got "
                << args.demand_count << ")\n";
      return false;
    }
  }
  if (args.threads < 0) {
    std::cerr << "bad value for --threads: " << args.threads
              << " (must be >= 0; 0 = all hardware threads)\n";
    return false;
  }
  if (args.deadline_ms < 0.0) {
    std::cerr << "bad value for --deadline-ms: " << args.deadline_ms
              << " (must be >= 0; 0 = no deadline)\n";
    return false;
  }
  if (args.retries < 0) {
    std::cerr << "bad value for --retries: " << args.retries
              << " (must be >= 0)\n";
    return false;
  }
  if (args.format != "md" && args.format != "csv" && args.format != "json") {
    std::cerr << "bad value for --format: " << args.format
              << " (expected md, csv or json)\n";
    return false;
  }
  return true;
}

/// Parses one --inject SPEC into `plan`. Returns false (with a stderr
/// message) on malformed specs — a usage error, not a runtime one.
bool parse_inject(const std::string& spec, stackroute::fault::FaultPlan& plan) {
  std::vector<std::string> parts;
  std::istringstream is(spec);
  std::string field;
  while (std::getline(is, field, ':')) parts.push_back(field);
  const auto fail = [&](const char* why) {
    std::cerr << "bad --inject spec '" << spec << "': " << why << "\n";
    return false;
  };
  if (parts.empty()) return fail("empty spec");
  try {
    const std::string& kind = parts[0];
    if (kind == "fail") {
      if (parts.size() < 2 || parts.size() > 3) {
        return fail("expected fail:TASK[:TIMES]");
      }
      plan.fail_task(std::stoul(parts[1]),
                     parts.size() == 3 ? std::stoi(parts[2]) : 1);
    } else if (kind == "nan" || kind == "inf") {
      if (parts.size() != 3) return fail("expected nan|inf:TASK:CALL");
      const auto task = std::stoul(parts[1]);
      const auto call = std::stoull(parts[2]);
      if (kind == "nan") {
        plan.nan_latency(task, call);
      } else {
        plan.inf_latency(task, call);
      }
    } else if (kind == "metric") {
      if (parts.size() < 3 || parts.size() > 4) {
        return fail("expected metric:TASK:INDEX[:TIMES]");
      }
      plan.throwing_metric(std::stoul(parts[1]), std::stoi(parts[2]),
                           parts.size() == 4 ? std::stoi(parts[3]) : 1);
    } else if (kind == "demand") {
      if (parts.size() != 3) return fail("expected demand:TASK:FACTOR");
      const double factor = std::stod(parts[2]);
      if (!(factor > 0.0)) return fail("FACTOR must be > 0");
      plan.scale_demand(std::stoul(parts[1]), factor);
    } else {
      return fail("unknown kind (expected fail, nan, inf, metric or demand)");
    }
  } catch (const std::exception&) {
    return fail("non-numeric field");
  }
  return true;
}

/// Exact generator-family name, or the unique family the given prefix
/// expands to. Unknown names pass through (gen::sized_spec raises the
/// canonical error listing every family); ambiguous prefixes are an error
/// naming the candidates.
std::string resolve_generator(const std::string& name) {
  std::vector<std::string> matches;
  for (const auto& info : stackroute::gen::generator_registry()) {
    if (info.name == name) return name;
    if (info.name.compare(0, name.size(), name) == 0) {
      matches.push_back(info.name);
    }
  }
  if (matches.size() == 1) return matches.front();
  if (matches.size() > 1) {
    std::string what = "ambiguous generator name '" + name + "' (matches:";
    for (const auto& m : matches) what += ' ' + m;
    throw stackroute::Error(what + ')');
  }
  return name;
}

/// The metric columns a --strategy run reports instead of the defaults.
std::vector<stackroute::sweep::Metric> strategy_cli_metrics(
    const std::string& strategy) {
  using namespace stackroute::sweep;
  if (strategy == "optop") {
    // The exact strategy: its ratio is 1 by Theorem 2.1; beta is the α it
    // needs — the row the baselines are measured against.
    return {metric_beta(), metric_optimum_cost(), metric_stackelberg_cost(),
            {"optop_ratio", [](TaskEval& e) {
               return e.stackelberg_cost() / e.optimum_cost();
             }}};
  }
  const StrategyKind kind = strategy == "aloof" ? StrategyKind::kAloof
                            : strategy == "scale" ? StrategyKind::kScale
                                                  : StrategyKind::kLlf;
  std::vector<Metric> metrics = {metric_beta(), metric_optimum_cost(),
                                 metric_strategy_ratio(kind)};
  if (kind != StrategyKind::kAloof) {
    metrics.push_back(metric_strategy_cost(kind));
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stackroute;
  Args args;
  if (!parse_args(argc, argv, args)) return usage(std::cerr, 1);
  if (args.help) return usage(std::cout, 0);

  fault::FaultPlan faults;
  faults.set_seed(args.seed);
  for (const std::string& spec : args.inject) {
    if (!parse_inject(spec, faults)) return usage(std::cerr, 1);
  }

  if (args.list) {
    for (const auto& s : sweep::builtin_scenarios()) {
      std::cout << s.name << " — " << s.summary << "\n";
    }
    return 0;
  }
  if (args.list_generators) {
    for (const auto& info : gen::generator_registry()) {
      std::cout << info.name << " — " << info.summary << "\n";
      for (const auto& knob : info.knobs) {
        std::cout << "    " << knob.name << " (default " << knob.fallback
                  << "): " << knob.help << "\n";
      }
    }
    return 0;
  }

  // Spec building rejects bad CLI input (unknown scenario or generator
  // name, ambiguous prefix): those get the same usage footer as parse
  // errors, printed exactly once. Failures past this point are runtime
  // errors and do not.
  sweep::ScenarioSpec spec;
  try {
    if (!args.generate.empty() || !args.file.empty()) {
      const bool alpha_swept =
          args.strategy == "scale" || args.strategy == "llf";
      // A plain run sweeps demand by default; a --strategy run sweeps
      // alpha, adding the demand axis only when asked for explicitly.
      const bool demand_swept = args.strategy.empty() || args.demand_given;
      if (!args.generate.empty()) {
        const std::string family = resolve_generator(args.generate);
        spec.name = "gen:" + family;
        spec.description = "sweep over a generated " + family +
                           " instance (seed " + std::to_string(args.gen_seed) +
                           ")";
        spec.factory = sweep::generated_instance_source(
            gen::sized_spec(family, args.gen_size), args.gen_seed);
      } else {
        const std::string trips = sweep::trips_sibling(args.file);
        if (demand_swept && !args.demand_given && !trips.empty()) {
          // The default axis is an absolute total demand of 0.5-3.0 —
          // free flow on any real OD matrix, a meaningless sweep.
          std::ostringstream native;
          native << std::get<NetworkInstance>(
                        sweep::load_instance_file(args.file))
                        .total_demand();
          throw Error(args.file + " takes its OD matrix from " + trips +
                      " (native total demand " + native.str() +
                      "); --demand LO HI COUNT is required and sweeps "
                      "that absolute total");
        }
        spec.name = "file:" + args.file;
        spec.description = "sweep over " + args.file;
        spec.factory = sweep::file_instance_source(args.file);
      }
      if (demand_swept) {
        spec.grid.add_linspace("demand", args.demand_lo, args.demand_hi,
                               args.demand_count);
      }
      if (alpha_swept) {
        spec.grid.add_linspace("alpha", args.alpha_lo, args.alpha_hi,
                               args.alpha_count);
      }
      if (!args.backend.empty()) {
        // Unknown names throw here and get the one usage footer below,
        // like unknown scenario or generator names.
        spec.backend = parse_equilibrium_backend(args.backend);
        // A backend run is about the equilibrium itself: report the Nash
        // cost (the column the pe-vs-bush comparisons use) instead of the
        // Stackelberg battery, whose β/C(S+T) solves bypass the backend.
        spec.metrics = {sweep::metric_nash_cost()};
      } else {
        spec.metrics = args.strategy.empty()
                           ? sweep::default_metrics()
                           : strategy_cli_metrics(args.strategy);
      }
      spec.warm_axis = alpha_swept ? "alpha" : "demand";
    } else {
      spec = sweep::make_scenario(args.scenario);
    }
  } catch (const std::exception& e) {
    std::cerr << "stackroute-sweep: " << e.what() << "\n";
    return usage(std::cerr, 1);
  }
  spec.base_seed = args.seed;

  try {
    set_max_threads(args.threads);
    sweep::SweepOptions sweep_opts;
    sweep_opts.warm_start = args.warm_start;
    sweep_opts.collect_counters = args.counters;
    sweep_opts.retry.max_retries = args.retries;
    sweep_opts.budget.deadline_ms = args.deadline_ms;
    if (faults.armed()) sweep_opts.faults = &faults;
    sweep::SweepTrace trace;
    const bool tracing = !args.trace.empty();
    const sweep::SweepResult result =
        sweep::SweepRunner(sweep_opts).run(spec, tracing ? &trace : nullptr);

    const Table table = args.timing ? result.timing_table() : result.table();
    std::string rendered;
    if (args.format == "csv") {
      rendered = table.to_csv();
    } else if (args.format == "json") {
      rendered = table.to_json();
    } else {
      rendered = "## " + spec.name + " — " + spec.description + "\n\n" +
                 table.to_markdown();
    }

    if (args.out.empty()) {
      std::cout << rendered;
    } else {
      std::ofstream out(args.out);
      if (!out) {
        std::cerr << "cannot write " << args.out << "\n";
        return 1;
      }
      out << rendered;
    }
    if (tracing) {
      std::ofstream tf(args.trace);
      if (!tf) {
        std::cerr << "cannot write " << args.trace << "\n";
        return 1;
      }
      // A .jsonl target asks for the convergence samples; anything else
      // gets the chrome://tracing span document.
      if (args.trace.ends_with(".jsonl")) {
        trace.write_convergence_jsonl(tf);
      } else {
        trace.write_chrome_trace(tf);
      }
    }
    std::cerr << result.summary() << "\n";
    // One stderr line per failed task, truncated so a mass failure cannot
    // flood the terminal; the full text stays in the table/JSON exports.
    constexpr std::size_t kMaxErrorChars = 160;
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      const auto& rec = result.records[i];
      if (rec.ok) continue;
      std::string where;
      for (std::size_t k = 0;
           k < rec.point.size() && k < result.param_columns.size(); ++k) {
        if (!where.empty()) where += ", ";
        where += result.param_columns[k] + "=" +
                 format_double(rec.point.values()[k], result.digits);
      }
      std::string msg = rec.error;
      if (msg.size() > kMaxErrorChars) {
        msg.resize(kMaxErrorChars);
        msg += "...";
      }
      std::cerr << "task " << i;
      if (!where.empty()) std::cerr << " {" << where << "}";
      std::cerr << " failed";
      if (rec.retries > 0) {
        std::cerr << " (after " << rec.retries << " cold retr"
                  << (rec.retries == 1 ? "y" : "ies") << ")";
      }
      std::cerr << ": " << msg << "\n";
    }
    if (args.profile) std::cerr << result.profile() << "\n";
    return result.num_failed() + result.num_degraded() == 0 ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "stackroute-sweep: " << e.what() << "\n";
    return 1;
  }
}
