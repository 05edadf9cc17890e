// sfctool — command-line front end for the SFC-Stretch library.
//
// Subcommands are declared in a dispatch table (name, summary, flag specs,
// handler); the table drives dispatch, the top-level listing, per-command
// `--help`, and strict flag validation — a flag not in the command's spec is
// an error, not a silent no-op.  Run `sfctool help` for the list and
// `sfctool <command> --help` for any command's flags.
//
// Library errors (sfc::Error and its subtypes: curve construction, index
// arguments, on-disk store validation, trace parsing) are caught at the tool
// boundary and reported as `error: ...` with exit status 1; usage errors exit
// with status 2.
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sfc/apps/nn_query.h"
#include "sfc/apps/partition.h"
#include "sfc/apps/range_query.h"
#include "sfc/cli/args.h"
#include "sfc/common/error.h"
#include "sfc/core/bounds.h"
#include "sfc/core/convergence.h"
#include "sfc/core/optimizer.h"
#include "sfc/core/stretch_report.h"
#include "sfc/curves/curve_error.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/index/executor.h"
#include "sfc/index/knn.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/io/ascii_grid.h"
#include "sfc/io/svg.h"
#include "sfc/io/table.h"
#include "sfc/obs/export.h"
#include "sfc/obs/metrics.h"
#include "sfc/obs/span_trace.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/rng/sampling.h"
#include "sfc/rng/splitmix64.h"
#include "sfc/serve/chaos.h"
#include "sfc/serve/server.h"
#include "sfc/serve/trace.h"
#include "sfc/store/fault_inject.h"
#include "sfc/store/index_store.h"

namespace {

using namespace sfc;

// ---------------------------------------------------------------------------
// Dispatch table scaffolding
// ---------------------------------------------------------------------------

struct FlagSpec {
  const char* flag;   ///< flag name without the leading "--"
  const char* value;  ///< value placeholder, "" for bare flags
  const char* help;
};

struct Command {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
  int (*run)(const Command& cmd, const cli::Args& args);
};

const std::vector<Command>& command_table();

int usage_all(const std::string& message) {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::ostream& out = message.empty() ? std::cout : std::cerr;
  out << "usage: sfctool <command> [options]\n\ncommands:\n";
  for (const Command& cmd : command_table()) {
    out << "  " << cmd.name;
    for (std::size_t i = std::string(cmd.name).size(); i < 12; ++i) out << ' ';
    out << cmd.summary << "\n";
  }
  out << "\nrun 'sfctool <command> --help' for the command's flags\n"
      << "curves: z, simple, snake, gray, hilbert, random, peano, spiral,\n"
      << "        diagonal (spiral/diagonal are 2-d only; peano side = 3^bits)\n";
  return message.empty() ? 0 : 2;
}

int usage_command(const Command& cmd, const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::ostream& out = message.empty() ? std::cout : std::cerr;
  out << "usage: sfctool " << cmd.name << " [options]\n  " << cmd.summary
      << "\n\noptions:\n";
  for (const FlagSpec& spec : cmd.flags) {
    std::string head = std::string("--") + spec.flag;
    if (spec.value[0] != '\0') head += std::string(" ") + spec.value;
    out << "  " << head;
    for (std::size_t i = head.size(); i < 22; ++i) out << ' ';
    out << spec.help << "\n";
  }
  return message.empty() ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Maps the CLI flags (name, dim, bits, seed) to the serializable curve
/// identity; side = 2^bits, or 3^bits for peano.
std::optional<CurveDescriptor> descriptor_for(const std::string& name, int dim,
                                              int bits, std::uint64_t seed,
                                              std::string* error) {
  if (bits < 0 || bits > 31) {
    *error = "--bits must be in [0, 31]";
    return std::nullopt;
  }
  std::uint64_t side = 1;
  const std::uint64_t base = name == "peano" ? 3 : 2;
  for (int i = 0; i < bits; ++i) side *= base;
  if (side > std::numeric_limits<coord_t>::max()) {
    *error = "side " + std::to_string(side) + " exceeds the coordinate range";
    return std::nullopt;
  }
  CurveDescriptor descriptor;
  descriptor.family = name;
  descriptor.dim = dim;
  descriptor.side = static_cast<coord_t>(side);
  descriptor.seed = seed;
  return descriptor;
}

/// Builds a curve by CLI name; `bits` is k (side = 2^k, or 3^k for peano).
CurvePtr build_curve(const std::string& name, int dim, int bits,
                     std::uint64_t seed, std::string* error,
                     CurveDescriptor* descriptor_out = nullptr) {
  const auto descriptor = descriptor_for(name, dim, bits, seed, error);
  if (!descriptor) return nullptr;
  try {
    CurvePtr curve = make_curve(*descriptor);
    if (descriptor_out != nullptr) *descriptor_out = *descriptor;
    return curve;
  } catch (const CurveArgumentError& curve_error) {
    *error = curve_error.what();
    return nullptr;
  }
}

/// Parses "3,5,7" into a Point of dimension `dim`; nullopt on any mismatch
/// (wrong arity, non-digit characters, or a coordinate exceeding coord_t).
std::optional<Point> parse_point(const std::string& text, int dim) {
  Point p = Point::zero(dim);
  std::size_t at = 0;
  for (int i = 0; i < dim; ++i) {
    // stoul would accept a leading '-' by wrapping; require plain digits.
    if (at >= text.size() || !std::isdigit(static_cast<unsigned char>(text[at]))) {
      return std::nullopt;
    }
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
      value = std::stoull(text.substr(at), &used);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    if (value > std::numeric_limits<coord_t>::max()) return std::nullopt;
    p[i] = static_cast<coord_t>(value);
    at += used;
    const bool last = i == dim - 1;
    if (last ? at != text.size() : (at >= text.size() || text[at] != ',')) {
      return std::nullopt;
    }
    ++at;  // skip ','
  }
  return p;
}

/// Reads one point per line ("x1,x2,..,xd"; blank lines and '#' comments
/// skipped); nullopt + *error on any malformed line.
std::optional<std::vector<Point>> read_points_file(const std::string& path,
                                                   int dim, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "could not open points file '" + path + "'";
    return std::nullopt;
  }
  std::vector<Point> points;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto point = parse_point(line, dim);
    if (!point) {
      *error = path + ":" + std::to_string(line_no) + ": expected " +
               std::to_string(dim) + " comma-separated coordinates";
      return std::nullopt;
    }
    points.push_back(*point);
  }
  return points;
}

/// The dataset behind the index commands: --points FILE, or --count uniform
/// random cells drawn from the curve's universe (seeded).
std::optional<std::vector<Point>> index_dataset(const cli::Args& args,
                                                const Universe& u,
                                                std::uint64_t seed,
                                                std::string* error) {
  const std::string points_path = args.get_string("points", "");
  if (!points_path.empty()) return read_points_file(points_path, u.dim(), error);
  const auto count = args.get_int("count", 100000);
  if (!count || *count < 0) {
    *error = "bad --count";
    return std::nullopt;
  }
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(*count));
  Xoshiro256 rng(SplitMix64(seed).next());
  for (std::int64_t i = 0; i < *count; ++i) points.push_back(random_cell(u, rng));
  return points;
}

/// Builds curve + dataset + index from the shared index-command flags.
/// Returns 0 and fills the outputs, or a usage exit code.
int build_index_setup(const Command& cmd, const cli::Args& args,
                      CurvePtr* curve, std::vector<Point>* points,
                      std::optional<PointIndex>* index,
                      CurveDescriptor* descriptor = nullptr) {
  const std::string curve_name = args.get_string("curve", "hilbert");
  const auto dim = args.get_int("dim", 2);
  const auto bits = args.get_int("bits", 10);
  const auto seed = args.get_int("seed", 1);
  const auto block_rows = args.get_int("block-rows", 256);
  if (!dim || !bits || !seed || !block_rows || *block_rows <= 0) {
    return usage_command(cmd, "bad numeric flag");
  }
  std::string error;
  *curve = build_curve(curve_name, static_cast<int>(*dim),
                       static_cast<int>(*bits),
                       static_cast<std::uint64_t>(*seed), &error, descriptor);
  if (!*curve) return usage_command(cmd, error);
  auto dataset = index_dataset(args, (*curve)->universe(),
                               static_cast<std::uint64_t>(*seed), &error);
  if (!dataset) return usage_command(cmd, error);
  *points = std::move(*dataset);
  IndexBuildOptions options;
  options.block_rows = static_cast<std::uint32_t>(*block_rows);
  try {
    index->emplace(PointIndex::build(**curve, *points, options));
  } catch (const IndexArgumentError& build_error) {
    return usage_command(cmd, build_error.what());
  }
  return 0;
}

void print_index_summary(const PointIndex& index, std::size_t input_points) {
  const Universe& u = index.curve().universe();
  std::uint64_t distinct = 0;
  const auto keys = index.keys();
  for (std::size_t r = 0; r < keys.size(); ++r) {
    if (r == 0 || keys[r] != keys[r - 1]) ++distinct;
  }
  std::cout << "index: curve " << index.curve().name() << ", universe d="
            << u.dim() << " side=" << u.side() << " (" << u.cell_count()
            << " cells)\n";
  std::cout << "  rows " << index.row_count() << " (from " << input_points
            << " points), distinct keys " << distinct << ", duplicate rows "
            << index.row_count() - distinct << "\n";
  std::cout << "  directory: " << index.block_count() << " blocks of "
            << index.block_rows() << " rows\n";
}

/// Index storage behind the serving-side commands: either built in memory
/// from the shared index flags or mmapped from --file.  Whichever way, the
/// commands query through `view` only.
struct IndexSource {
  CurvePtr curve;                    // owned path
  std::vector<Point> points;         // owned path
  std::optional<PointIndex> owned;   // owned path
  std::optional<MappedIndex> mapped; // --file path
  IndexColumnsView view;
  bool from_file = false;
};

int open_index_source(const Command& cmd, const cli::Args& args,
                      IndexSource* source, bool round_trip_store = false) {
  const std::string file = args.get_string("file", "");
  if (!file.empty()) {
    source->mapped.emplace(MappedIndex::open(file));
    source->view = source->mapped->view();
    source->from_file = true;
    std::cout << "index: mapped " << file << " ("
              << source->mapped->file_bytes() << " bytes, "
              << source->mapped->row_count() << " rows, curve "
              << source->mapped->descriptor().to_string() << ")\n";
    return 0;
  }
  CurveDescriptor descriptor;
  if (const int status = build_index_setup(cmd, args, &source->curve,
                                           &source->points, &source->owned,
                                           &descriptor);
      status != 0) {
    return status;
  }
  source->view = source->owned->view();
  print_index_summary(*source->owned, source->points.size());
  if (round_trip_store) {
    // Round-trip the in-memory build through the on-disk format so one run
    // exercises the writer, the mmap reader, and its verification pass.  The
    // path is unlinked immediately; the mapping keeps the bytes alive.
    const std::string tmp_path =
        "/tmp/sfctool-serve-" + std::to_string(::getpid()) + ".sfcidx";
    write_index_file(tmp_path, *source->owned, descriptor);
    source->mapped.emplace(MappedIndex::open(tmp_path));
    std::remove(tmp_path.c_str());
    source->view = source->mapped->view();
    source->owned.reset();
    source->points.clear();
    source->points.shrink_to_fit();
    std::cout << "index: round-tripped through the v1 store format ("
              << source->mapped->file_bytes() << " bytes)\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int cmd_analyze(const Command& cmd, const cli::Args& args) {
  const std::string curve_name = args.get_string("curve", "z");
  const auto dim = args.get_int("dim", 2);
  const auto bits = args.get_int("bits", 6);
  const auto seed = args.get_int("seed", 1);
  const auto samples = args.get_int("samples", 200000);
  if (!dim || !bits || !seed || !samples) return usage_command(cmd, "bad numeric flag");
  std::string error;
  const CurvePtr curve = build_curve(curve_name, static_cast<int>(*dim),
                                     static_cast<int>(*bits),
                                     static_cast<std::uint64_t>(*seed), &error);
  if (!curve) return usage_command(cmd, error);
  AnalyzeOptions options;
  options.all_pairs_samples = static_cast<std::uint64_t>(*samples);
  std::cout << to_string(analyze_curve(*curve, options));
  return 0;
}

int cmd_render(const Command& cmd, const cli::Args& args) {
  const std::string curve_name = args.get_string("curve", "hilbert");
  const auto bits = args.get_int("bits", 3);
  if (!bits) return usage_command(cmd, "bad numeric flag");
  std::string error;
  const CurvePtr curve =
      build_curve(curve_name, 2, static_cast<int>(*bits), 1, &error);
  if (!curve) return usage_command(cmd, error);
  if (args.get_flag("binary")) {
    if (!curve->universe().power_of_two_side()) {
      return usage_command(cmd, "--binary requires a power-of-two side");
    }
    std::cout << render_key_grid_binary(*curve);
  } else {
    std::cout << render_key_grid(*curve);
  }
  std::cout << "\n" << render_curve_path(*curve);
  const std::string svg_path = args.get_string("svg", "");
  if (!svg_path.empty()) {
    if (write_text_file(svg_path, render_curve_svg(*curve))) {
      std::cout << "\nwrote " << svg_path << "\n";
    } else {
      std::cerr << "could not write " << svg_path << "\n";
      return 1;
    }
  }
  return 0;
}

int cmd_sweep(const Command& cmd, const cli::Args& args) {
  const std::string curve_name = args.get_string("curve", "z");
  const auto dim = args.get_int("dim", 2);
  const auto max_bits = args.get_int("max-bits", 8);
  if (!dim || !max_bits) return usage_command(cmd, "bad numeric flag");
  const std::map<std::string, CurveFamily> families = {
      {"z", CurveFamily::kZ},           {"simple", CurveFamily::kSimple},
      {"snake", CurveFamily::kSnake},   {"gray", CurveFamily::kGray},
      {"hilbert", CurveFamily::kHilbert}, {"random", CurveFamily::kRandom}};
  const auto it = families.find(curve_name);
  if (it == families.end()) {
    return usage_command(cmd, "unknown curve '" + curve_name + "'");
  }

  SweepOptions options;
  options.max_cells = index_t{1} << 24;
  const auto rows = davg_sweep(it->second, static_cast<int>(*dim), 1,
                               static_cast<int>(*max_bits), options);
  Table table({"k", "n", "Davg", "Dmax", "bound", "Davg/bound",
               "d*Davg/n^{1-1/d}"});
  for (const SweepRow& row : rows) {
    table.add_row({std::to_string(row.level_bits), Table::fmt_int(row.n),
                   Table::fmt(row.davg), Table::fmt(row.dmax),
                   Table::fmt(row.lower_bound), Table::fmt(row.ratio_to_bound, 5),
                   Table::fmt(row.normalized_davg, 5)});
  }
  if (args.get_flag("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
  }
  return 0;
}

int cmd_bounds(const Command& cmd, const cli::Args& args) {
  const auto dim = args.get_int("dim", 2);
  const auto bits = args.get_int("bits", 6);
  if (!dim || !bits) return usage_command(cmd, "bad numeric flag");
  const Universe u = Universe::pow2(static_cast<int>(*dim), static_cast<int>(*bits));
  std::cout << "universe: d=" << u.dim() << " side=" << u.side()
            << " n=" << u.cell_count() << "\n";
  std::cout << "Theorem 1  Davg lower bound        = "
            << bounds::davg_lower_bound(u) << "\n";
  std::cout << "Thm 2/3    Davg(Z) ~ Davg(S) ~     = "
            << bounds::davg_zs_asymptote(u) << "\n";
  std::cout << "Prop 1     Dmax lower bound        = "
            << bounds::dmax_lower_bound(u) << "\n";
  std::cout << "Prop 2     Dmax(simple), exact     = "
            << bounds::dmax_simple_exact(u) << "\n";
  std::cout << "Prop 3     all-pairs Manhattan LB  = "
            << bounds::allpairs_manhattan_lower_bound(u) << "\n";
  std::cout << "Prop 3     all-pairs Euclidean LB  = "
            << bounds::allpairs_euclidean_lower_bound(u) << "\n";
  std::cout << "Prop 4     simple Manhattan UB     = "
            << bounds::allpairs_simple_manhattan_upper_bound(u) << "\n";
  std::cout << "Lemma 2    S_A' (any bijection)    = "
            << to_string(bounds::lemma2_total_ordered_distance(u.cell_count()))
            << "\n";
  for (int i = 1; i <= u.dim(); ++i) {
    std::cout << "Lemma 5    Lambda_" << i << "(Z) exact       = "
              << to_string(bounds::lambda_z_exact(u.dim(), u.level_bits(), i))
              << "  (limit share " << bounds::lambda_z_limit(u.dim(), i) << ")\n";
  }
  return 0;
}

int cmd_partition(const Command& cmd, const cli::Args& args) {
  const std::string curve_name = args.get_string("curve", "hilbert");
  const auto dim = args.get_int("dim", 2);
  const auto bits = args.get_int("bits", 6);
  const auto parts = args.get_int("parts", 16);
  if (!dim || !bits || !parts) return usage_command(cmd, "bad numeric flag");
  std::string error;
  const CurvePtr curve =
      build_curve(curve_name, static_cast<int>(*dim), static_cast<int>(*bits),
                  1, &error);
  if (!curve) return usage_command(cmd, error);
  PartitionQuality q;
  try {
    q = evaluate_partition(*curve, static_cast<int>(*parts));
  } catch (const PartitionArgumentError& parts_error) {
    return usage_command(cmd, parts_error.what());
  }
  std::cout << "curve " << curve->name() << ", P=" << q.parts << ": edge cut "
            << q.edge_cut << " (" << q.cut_fraction * 100 << "% of NN pairs), "
            << "imbalance " << q.imbalance << ", fragmented blocks "
            << q.fragmented_blocks << "\n";
  return 0;
}

int cmd_clustering(const Command& cmd, const cli::Args& args) {
  const std::string curve_name = args.get_string("curve", "z");
  const auto dim = args.get_int("dim", 2);
  const auto bits = args.get_int("bits", 6);
  const auto extent = args.get_int("extent", 4);
  const auto samples = args.get_int("samples", 200);
  if (!dim || !bits || !extent || !samples || *extent <= 0 || *samples <= 0) {
    return usage_command(cmd, "bad numeric flag");
  }
  std::string error;
  const CurvePtr curve =
      build_curve(curve_name, static_cast<int>(*dim), static_cast<int>(*bits),
                  1, &error);
  if (!curve) return usage_command(cmd, error);
  if (static_cast<std::uint64_t>(*extent) > curve->universe().side()) {
    return usage_command(cmd, "--extent must be <= the universe side");
  }
  const ClusteringStats stats = random_box_clustering(
      *curve, static_cast<coord_t>(*extent),
      static_cast<std::uint64_t>(*samples), 1234);
  std::cout << "curve " << curve->name() << ", " << stats.samples << " boxes of "
            << stats.extent << "^" << *dim << " (" << stats.cells_per_box
            << " cells): mean runs " << stats.mean_runs << " +- "
            << stats.stderr_runs << ", max " << stats.max_runs << "\n";
  return 0;
}

int cmd_cover(const Command& cmd, const cli::Args& args) {
  const std::string curve_name = args.get_string("curve", "hilbert");
  const auto dim = args.get_int("dim", 2);
  const auto bits = args.get_int("bits", 6);
  const std::string lo_text = args.get_string("lo", "");
  const std::string hi_text = args.get_string("hi", "");
  if (!dim || !bits) return usage_command(cmd, "bad numeric flag");
  if (lo_text.empty() || hi_text.empty()) {
    return usage_command(cmd, "cover requires --lo and --hi corner coordinates");
  }
  std::string error;
  const CurvePtr curve = build_curve(curve_name, static_cast<int>(*dim),
                                     static_cast<int>(*bits), 1, &error);
  if (!curve) return usage_command(cmd, error);
  const Universe& u = curve->universe();
  const auto lo = parse_point(lo_text, u.dim());
  const auto hi = parse_point(hi_text, u.dim());
  if (!lo || !hi) {
    return usage_command(cmd, "--lo/--hi must be " + std::to_string(u.dim()) +
                         " comma-separated coordinates");
  }
  if (!u.contains(*lo) || !u.contains(*hi)) {
    return usage_command(cmd, "box corners must lie inside the universe (side " +
                         std::to_string(u.side()) + ")");
  }
  for (int i = 0; i < u.dim(); ++i) {
    if ((*lo)[i] > (*hi)[i]) {
      return usage_command(cmd, "--lo must be <= --hi per dimension");
    }
  }
  const Box box(*lo, *hi);
  CoverStats stats;
  const std::vector<KeyInterval> intervals =
      RangeCoverEngine(*curve).cover(box, &stats);
  Table table({"run", "key_lo", "key_hi", "length"});
  index_t covered = 0;
  for (std::size_t r = 0; r < intervals.size(); ++r) {
    const index_t length = intervals[r].hi - intervals[r].lo + 1;
    covered += length;
    table.add_row({Table::fmt_int(r), Table::fmt_int(intervals[r].lo),
                   Table::fmt_int(intervals[r].hi), Table::fmt_int(length)});
  }
  if (args.get_flag("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
  }
  std::cout << "curve " << curve->name() << ", box " << box.lo().to_string()
            << ".." << box.hi().to_string() << ": " << intervals.size()
            << " runs covering " << covered << " cells ("
            << (stats.used_subtree
                    ? "subtree descent, " + std::to_string(stats.nodes_visited) +
                          " nodes visited"
                    : std::string("enumeration fallback"))
            << ")\n";
  return 0;
}

int cmd_index_build(const Command& cmd, const cli::Args& args) {
  CurvePtr curve;
  std::vector<Point> points;
  std::optional<PointIndex> index;
  if (const int status = build_index_setup(cmd, args, &curve, &points, &index);
      status != 0) {
    return status;
  }
  print_index_summary(*index, points.size());
  return 0;
}

int cmd_index_write(const Command& cmd, const cli::Args& args) {
  const std::string out = args.get_string("out", "");
  if (out.empty()) return usage_command(cmd, "index-write requires --out FILE");
  CurvePtr curve;
  std::vector<Point> points;
  std::optional<PointIndex> index;
  CurveDescriptor descriptor;
  if (const int status =
          build_index_setup(cmd, args, &curve, &points, &index, &descriptor);
      status != 0) {
    return status;
  }
  print_index_summary(*index, points.size());
  write_index_file(out, *index, descriptor);
  // Round-trip through the reader so "wrote" also means "reopens clean".
  const MappedIndex mapped = MappedIndex::open(out);
  std::cout << "wrote " << out << ": " << mapped.file_bytes()
            << " bytes, reopened and verified (" << mapped.descriptor().to_string()
            << ", " << mapped.row_count() << " rows)\n";
  return 0;
}

int cmd_index_query(const Command& cmd, const cli::Args& args) {
  IndexSource source;
  if (const int status = open_index_source(cmd, args, &source); status != 0) {
    return status;
  }
  const IndexColumnsView& view = source.view;
  const Universe& u = view.curve().universe();

  const std::string lo_text = args.get_string("lo", "");
  const std::string hi_text = args.get_string("hi", "");
  if (!lo_text.empty() || !hi_text.empty()) {
    const auto lo = parse_point(lo_text, u.dim());
    const auto hi = parse_point(hi_text, u.dim());
    if (!lo || !hi) {
      return usage_command(cmd, "--lo/--hi must be " + std::to_string(u.dim()) +
                           " comma-separated coordinates");
    }
    if (!u.contains(*lo) || !u.contains(*hi)) {
      return usage_command(cmd,
                           "box corners must lie inside the universe (side " +
                               std::to_string(u.side()) + ")");
    }
    for (int i = 0; i < u.dim(); ++i) {
      if ((*lo)[i] > (*hi)[i]) {
        return usage_command(cmd, "--lo must be <= --hi per dimension");
      }
    }
    const Box box(*lo, *hi);
    RangeScanEngine engine(view);
    std::vector<std::uint32_t> ids;
    RangeScanStats stats;
    engine.scan(box, &ids, &stats);
    std::cout << "box " << box.lo().to_string() << ".." << box.hi().to_string()
              << ": " << stats.rows_returned << " rows returned, "
              << stats.rows_scanned << " rows scanned (full scan would touch "
              << view.row_count() << "), " << stats.runs_in_cover
              << " runs in cover (" << stats.runs_touched << " touched), "
              << stats.nodes_visited << " nodes visited\n";
    return 0;
  }

  if (source.from_file) {
    return usage_command(cmd,
                         "--file serves --lo/--hi point queries; random-box "
                         "sampling needs the in-memory build flags");
  }
  const auto extent = args.get_int("extent", 8);
  const auto samples = args.get_int("samples", 200);
  if (!extent || !samples || *extent <= 0 || *samples <= 0) {
    return usage_command(cmd, "bad numeric flag");
  }
  if (static_cast<std::uint64_t>(*extent) > u.side()) {
    return usage_command(cmd, "--extent must be <= the universe side");
  }
  const ScanEfficiencyStats stats = random_box_scan_efficiency(
      *source.owned, static_cast<coord_t>(*extent),
      static_cast<std::uint64_t>(*samples), 1234);
  std::cout << stats.samples << " random boxes of " << stats.extent << "^"
            << u.dim() << ": mean rows returned " << stats.mean_rows_returned
            << ", mean rows scanned " << stats.mean_rows_scanned
            << " (full scan: " << stats.index_rows << " rows, advantage "
            << stats.full_scan_ratio << "x), mean runs " << stats.mean_runs
            << " (" << stats.mean_runs_touched << " touched)\n";
  return 0;
}

int cmd_index_knn(const Command& cmd, const cli::Args& args) {
  IndexSource source;
  if (const int status = open_index_source(cmd, args, &source); status != 0) {
    return status;
  }
  const IndexColumnsView& view = source.view;
  const Universe& u = view.curve().universe();
  const std::string query_text = args.get_string("query", "");
  const auto k = args.get_int("k", 5);
  if (!k || *k <= 0) return usage_command(cmd, "bad --k");
  const auto query = parse_point(query_text, u.dim());
  if (!query) {
    return usage_command(cmd, "--query must be " + std::to_string(u.dim()) +
                         " comma-separated coordinates");
  }
  KnnEngine engine(view);
  std::vector<KnnNeighbor> neighbors;
  KnnStats stats;
  try {
    neighbors = engine.query(*query, static_cast<std::uint32_t>(*k), &stats);
  } catch (const IndexArgumentError& query_error) {
    return usage_command(cmd, query_error.what());
  }
  Table table({"rank", "id", "point", "key", "dist"});
  for (std::size_t r = 0; r < neighbors.size(); ++r) {
    table.add_row({Table::fmt_int(r), Table::fmt_int(neighbors[r].id),
                   view.curve().point_at(neighbors[r].key).to_string(),
                   Table::fmt_int(neighbors[r].key),
                   Table::fmt(std::sqrt(static_cast<double>(neighbors[r].sq_dist)))});
  }
  table.print(std::cout);
  std::cout << "query " << query->to_string() << ", k=" << *k << ": "
            << neighbors.size() << " neighbors, " << stats.rows_scanned
            << " rows scanned of " << view.row_count() << ", "
            << stats.nodes_expanded << " nodes expanded, "
            << (stats.certified ? "certified exact" : "NOT certified")
            << (stats.used_subtree ? "" : " (exhaustive fallback)") << "\n";
  return 0;
}

int cmd_trace_gen(const Command& cmd, const cli::Args& args) {
  const auto dim = args.get_int("dim", 2);
  const auto bits = args.get_int("bits", 10);
  const auto count = args.get_int("count", 1000);
  const auto extent = args.get_int("extent", 32);
  const auto knn_k = args.get_int("knn-k", 8);
  const auto knn_percent = args.get_int("knn-percent", 50);
  const auto seed = args.get_int("seed", 1);
  const std::string out = args.get_string("out", "");
  if (!dim || !bits || !count || !extent || !knn_k || !knn_percent || !seed) {
    return usage_command(cmd, "bad numeric flag");
  }
  if (out.empty()) return usage_command(cmd, "trace-gen requires --out FILE");
  if (*dim < 1 || *dim > kMaxDim) {
    return usage_command(cmd, "--dim must be in [1, " +
                         std::to_string(kMaxDim) + "]");
  }
  if (*bits < 0 || *bits > 31) {
    return usage_command(cmd, "--bits must be in [0, 31]");
  }
  if (*count < 1 || *extent < 1 || *knn_k < 1 || *knn_percent < 0 ||
      *knn_percent > 100) {
    return usage_command(cmd, "bad numeric flag");
  }
  const Universe u = Universe::pow2(static_cast<int>(*dim),
                                    static_cast<int>(*bits));
  TraceGenOptions options;
  options.count = static_cast<std::uint64_t>(*count);
  options.box_extent = static_cast<std::uint32_t>(*extent);
  options.knn_k = static_cast<std::uint32_t>(*knn_k);
  options.knn_percent = static_cast<std::uint32_t>(*knn_percent);
  options.seed = static_cast<std::uint64_t>(*seed);
  const QueryTrace trace = generate_trace(u, options);
  write_trace_file(out, trace);
  std::cout << "wrote " << out << ": " << trace.size() << " queries ("
            << trace.range_count() << " range of extent " << *extent << ", "
            << trace.knn_count() << " knn with k=" << *knn_k
            << ") on universe d=" << u.dim() << " side=" << u.side() << "\n";
  return 0;
}

std::string iso_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buffer[40];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%S+00:00", &tm_utc);
  return buffer;
}

std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw Error("cannot open output file: " + path);
  file.write(content.data(), static_cast<std::streamsize>(content.size()));
  file.flush();
  if (!file) throw Error("I/O error writing output file: " + path);
}

/// Shared by serve-bench, serve-chaos and stats: dump the process-global
/// metrics snapshot (`--metrics-out`, JSON unless the path ends in .prom) and
/// the span ring (`--trace-out`, Chrome trace-event JSON).
void write_observability_outputs(const cli::Args& args) {
  const std::string metrics_path = args.get_string("metrics-out", "");
  if (!metrics_path.empty()) {
    const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
    const bool prom =
        metrics_path.size() >= 5 &&
        metrics_path.compare(metrics_path.size() - 5, 5, ".prom") == 0;
    write_text_file(metrics_path, prom ? metrics_prometheus(snapshot)
                                       : metrics_json(snapshot));
    std::cout << "wrote " << metrics_path << "\n";
  }
  const std::string trace_path = args.get_string("trace-out", "");
  if (!trace_path.empty()) {
    const std::vector<TraceSpan> spans = TraceRing::global().snapshot();
    write_text_file(trace_path, chrome_trace_json(spans));
    std::cout << "wrote " << trace_path << " (" << spans.size() << " spans)\n";
  }
}

/// One entry of a Google-benchmark-shaped JSON file: a latency in
/// microseconds over `iterations` queries, plus extra fields (key, JSON
/// value) appended in order.
struct BenchEntry {
  std::string name;
  std::uint64_t iterations = 0;
  double time_us = 0.0;
  std::vector<std::pair<const char*, std::string>> extra;
};

/// Google-benchmark-shaped JSON so tools/bench_trajectory.py aggregates the
/// serve replays and chaos soaks next to the micro benches.
void write_bench_json(const std::string& path,
                      const std::vector<BenchEntry>& entries) {
  std::string out;
  out += "{\n  \"context\": {\n";
  out += "    \"date\": \"" + iso_utc_now() + "\",\n";
  out += "    \"executable\": \"sfctool\",\n";
  out += "    \"num_cpus\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "    \"library_build_type\": \"release\"\n";
  out += "  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& entry = entries[i];
    if (i > 0) out += ",\n";
    out += "    {\n";
    out += "      \"name\": \"" + entry.name + "\",\n";
    out += "      \"run_type\": \"iteration\",\n";
    out += "      \"repetitions\": 1,\n";
    out += "      \"iterations\": " + std::to_string(entry.iterations) + ",\n";
    out += "      \"real_time\": " + fmt_double(entry.time_us) + ",\n";
    out += "      \"cpu_time\": " + fmt_double(entry.time_us) + ",\n";
    out += "      \"time_unit\": \"us\"";
    for (const auto& [key, value] : entry.extra) {
      out += ",\n      \"" + std::string(key) + "\": " + value;
    }
    out += "\n    }";
  }
  out += "\n  ]\n}\n";
  write_text_file(path, out);
}

/// The serving flags shared by serve-bench and serve-chaos (serve_flags) ->
/// the server and the client retry policy.  `replay` comes in with the
/// command's defaults.  Returns false on a bad value.
bool parse_serve_flags(const cli::Args& args, ServerOptions* server,
                       ReplayOptions* replay) {
  const auto shards = args.get_int("shards", 4);
  const auto max_batch = args.get_int("max-batch", 64);
  const auto window_us = args.get_int("window-us", 200);
  const auto max_queue = args.get_int("max-queue", 0);      // 0 = unbounded
  const auto deadline_us = args.get_int("deadline-us", 0);  // 0 = none
  const auto retries = args.get_int("retries", replay->max_retries);
  const auto backoff_us = args.get_int("backoff-us", replay->backoff_base_us);
  if (!shards || !max_batch || !window_us || !max_queue || !deadline_us ||
      !retries || !backoff_us || *shards < 0 || *max_batch < 1 ||
      *window_us < 0 || *max_queue < 0 || *deadline_us < 0 || *retries < 0 ||
      *backoff_us < 1) {
    return false;
  }
  server->shard_bits = static_cast<int>(*shards);
  server->max_batch = static_cast<std::uint32_t>(*max_batch);
  server->batch_window_us = static_cast<std::uint32_t>(*window_us);
  server->max_queue = static_cast<std::uint32_t>(*max_queue);
  server->deadline_us = static_cast<std::uint64_t>(*deadline_us);
  replay->max_retries = static_cast<std::uint32_t>(*retries);
  replay->backoff_base_us = static_cast<std::uint32_t>(*backoff_us);
  return true;
}

int cmd_serve_bench(const Command& cmd, const cli::Args& args) {
  const std::string trace_path = args.get_string("trace", "");
  if (trace_path.empty()) {
    return usage_command(cmd, "serve-bench requires --trace FILE");
  }
  const std::string clients_text = args.get_string("clients", "1,8,64");
  const auto max_p99_us = args.get_int("max-p99-us", 0);  // 0 = no gate
  // Gate: accepted-query p99 at every client level must stay within this
  // factor of the first level's p99 (0 = off).  With an overloaded client
  // list (first entry uncontended, later entries past capacity) this checks
  // that admission control sheds load instead of letting latency collapse.
  const auto overload_factor = args.get_int("overload-p99-factor", 0);
  ServerOptions server_options;
  ReplayOptions replay_options;
  if (!parse_serve_flags(args, &server_options, &replay_options) ||
      !max_p99_us || !overload_factor || *max_p99_us < 0 ||
      *overload_factor < 0) {
    return usage_command(cmd, "bad numeric flag");
  }

  std::vector<std::uint32_t> client_counts;
  {
    std::size_t pos = 0;
    while (pos <= clients_text.size()) {
      const std::size_t comma = clients_text.find(',', pos);
      const std::size_t end =
          comma == std::string::npos ? clients_text.size() : comma;
      std::uint64_t value = 0;
      if (end == pos) return usage_command(cmd, "bad --clients list");
      for (std::size_t i = pos; i < end; ++i) {
        const char c = clients_text[i];
        if (c < '0' || c > '9') return usage_command(cmd, "bad --clients list");
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (value < 1 || value > 4096) {
        return usage_command(cmd, "--clients entries must be in [1, 4096]");
      }
      client_counts.push_back(static_cast<std::uint32_t>(value));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  IndexSource source;
  if (const int status =
          open_index_source(cmd, args, &source, /*round_trip_store=*/true);
      status != 0) {
    return status;
  }
  const QueryTrace trace = read_trace_file(trace_path);
  if (trace.empty()) return usage_command(cmd, "trace '" + trace_path + "' is empty");
  std::cout << "trace: " << trace.size() << " queries ("
            << trace.range_count() << " range, " << trace.knn_count()
            << " knn) from " << trace_path << "\n";

  std::vector<ReplayReport> reports;
  reports.reserve(client_counts.size());
  for (const std::uint32_t clients : client_counts) {
    IndexServer server(source.view, server_options);
    replay_options.clients = clients;
    reports.push_back(replay_trace(server, trace, replay_options));
  }

  Table table({"clients", "qps", "p50_us", "p99_us", "max_us", "accepted",
               "rejected", "timeout", "retries"});
  for (const ReplayReport& report : reports) {
    table.add_row({Table::fmt_int(report.clients), fmt_double(report.qps),
                   fmt_double(report.p50_us), fmt_double(report.p99_us),
                   fmt_double(report.max_us), Table::fmt_int(report.accepted),
                   Table::fmt_int(report.rejected),
                   Table::fmt_int(report.timed_out),
                   Table::fmt_int(report.retries)});
  }
  table.print(std::cout);
  std::cout << "shards 2^" << server_options.shard_bits << ", max batch "
            << server_options.max_batch << ", batch window "
            << server_options.batch_window_us << " us, max queue "
            << server_options.max_queue << ", deadline "
            << server_options.deadline_us << " us, retries "
            << replay_options.max_retries << "\n";

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::vector<BenchEntry> entries;
    for (const ReplayReport& report : reports) {
      for (const auto& [metric, value] :
           {std::pair<const char*, double>{"p50", report.p50_us},
            std::pair<const char*, double>{"p99", report.p99_us}}) {
        entries.push_back(
            {"serve_replay_" + std::string(metric) +
                 "/clients:" + std::to_string(report.clients),
             report.queries,
             value,
             {{"items_per_second", fmt_double(report.qps)},
              {"accepted", std::to_string(report.accepted)},
              {"rejected", std::to_string(report.rejected)},
              {"timed_out", std::to_string(report.timed_out)},
              {"retries", std::to_string(report.retries)},
              {"queue_wait_p99_us", fmt_double(report.queue_wait_p99_us)},
              {"execute_p99_us", fmt_double(report.execute_p99_us)}}});
      }
    }
    write_bench_json(json_path, entries);
    std::cout << "wrote " << json_path << "\n";
  }
  write_observability_outputs(args);
  if (*max_p99_us > 0) {
    for (const ReplayReport& report : reports) {
      if (report.p99_us > static_cast<double>(*max_p99_us)) {
        std::cerr << "error: p99 " << fmt_double(report.p99_us) << " us at "
                  << report.clients << " clients exceeds the --max-p99-us "
                  << *max_p99_us << " gate\n";
        return 1;
      }
    }
    std::cout << "p99 gate: all client levels under " << *max_p99_us
              << " us\n";
  }
  if (*overload_factor > 0 && reports.size() > 1) {
    const double baseline = std::max(1.0, reports.front().p99_us);
    const double limit = baseline * static_cast<double>(*overload_factor);
    for (std::size_t i = 1; i < reports.size(); ++i) {
      if (reports[i].p99_us > limit) {
        std::cerr << "error: accepted-query p99 " << fmt_double(reports[i].p99_us)
                  << " us at " << reports[i].clients << " clients exceeds "
                  << *overload_factor << "x the " << reports.front().clients
                  << "-client baseline p99 (" << fmt_double(baseline)
                  << " us) — admission control failed to shed load\n";
        return 1;
      }
    }
    std::cout << "overload gate: accepted p99 within " << *overload_factor
              << "x of the " << reports.front().clients
              << "-client baseline at every level\n";
  }
  return 0;
}

int cmd_serve_chaos(const Command& cmd, const cli::Args& args) {
  const std::string file = args.get_string("file", "");
  if (file.empty()) {
    return usage_command(cmd,
                         "serve-chaos requires --file FILE (the served path)");
  }
  const std::string curve_name = args.get_string("curve", "hilbert");
  const auto dim = args.get_int("dim", 2);
  const auto bits = args.get_int("bits", 8);
  const auto seed = args.get_int("seed", 1);
  const auto points = args.get_int("points", 20000);
  const auto block_rows = args.get_int("block-rows", 256);
  const auto clients = args.get_int("clients", 8);
  const auto duration_s = args.get_int("duration-s", 5);
  const auto reload_ms = args.get_int("reload-every-ms", 100);
  const auto crash_every = args.get_int("crash-every", 0);
  const auto p99_factor = args.get_int("p99-factor", 2);
  ChaosOptions options;
  if (!parse_serve_flags(args, &options.server, &options.replay) || !dim ||
      !bits || !seed || !points || !block_rows || !clients || !duration_s ||
      !reload_ms || !crash_every || !p99_factor || *points < 1 ||
      *block_rows < 1 || *clients < 1 || *duration_s < 1 || *reload_ms < 1 ||
      *crash_every < 0 || *p99_factor < 1) {
    return usage_command(cmd, "bad numeric flag");
  }
  std::string error;
  CurveDescriptor descriptor;
  const CurvePtr curve =
      build_curve(curve_name, static_cast<int>(*dim), static_cast<int>(*bits),
                  static_cast<std::uint64_t>(*seed), &error, &descriptor);
  if (!curve) return usage_command(cmd, error);

  options.descriptor = descriptor;
  options.points = static_cast<std::uint64_t>(*points);
  options.seed = static_cast<std::uint64_t>(*seed);
  options.block_rows = static_cast<std::uint32_t>(*block_rows);
  options.path = file;
  options.replay.clients = static_cast<std::uint32_t>(*clients);
  options.duration_s = static_cast<double>(*duration_s);
  options.reload_every_ms = static_cast<std::uint32_t>(*reload_ms);
  options.crash_every = static_cast<std::uint32_t>(*crash_every);
  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    options.trace = read_trace_file(trace_path);
    if (options.trace.empty()) {
      return usage_command(cmd, "trace '" + trace_path + "' is empty");
    }
  }

  std::cout << "chaos soak: " << options.points << " points per dataset, "
            << options.replay.clients << " clients, " << *duration_s
            << " s, reload every " << *reload_ms << " ms"
            << (options.crash_every > 0
                    ? ", crash cycle every " +
                          std::to_string(options.crash_every) + " rewrites"
                    : "")
            << "\n";
  const ChaosReport report = run_chaos(options);

  Table table({"queries", "accepted", "rejected", "timeout", "retries",
               "wrong", "reloads", "failed", "crashes", "torn", "epochs"});
  table.add_row({Table::fmt_int(report.queries), Table::fmt_int(report.accepted),
                 Table::fmt_int(report.rejected),
                 Table::fmt_int(report.timed_out),
                 Table::fmt_int(report.retries),
                 Table::fmt_int(report.wrong_answers),
                 Table::fmt_int(report.reloads),
                 Table::fmt_int(report.failed_reloads),
                 Table::fmt_int(report.crashed_writes),
                 Table::fmt_int(report.torn_files),
                 Table::fmt_int(report.epochs_observed)});
  table.print(std::cout);
  std::cout << "accepted p99: baseline " << fmt_double(report.baseline_p99_us)
            << " us, under reloads " << fmt_double(report.soak_p99_us)
            << " us (gate factor " << *p99_factor << "x); wall "
            << fmt_double(report.wall_seconds) << " s\n";

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::vector<BenchEntry> entries;
    for (const auto& [metric, value] :
         {std::pair<const char*, double>{"baseline_p99", report.baseline_p99_us},
          std::pair<const char*, double>{"soak_p99", report.soak_p99_us}}) {
      entries.push_back(
          {"serve_chaos_" + std::string(metric) +
               "/clients:" + std::to_string(options.replay.clients),
           report.queries,
           value,
           {{"accepted", std::to_string(report.accepted)},
            {"rejected", std::to_string(report.rejected)},
            {"timed_out", std::to_string(report.timed_out)},
            {"retries", std::to_string(report.retries)},
            {"wrong_answers", std::to_string(report.wrong_answers)},
            {"reloads", std::to_string(report.reloads)},
            {"failed_reloads", std::to_string(report.failed_reloads)},
            {"crash_cycles", std::to_string(report.crash_cycles)},
            {"crashed_writes", std::to_string(report.crashed_writes)},
            {"torn_files", std::to_string(report.torn_files)},
            {"epochs_observed", std::to_string(report.epochs_observed)}}});
    }
    write_bench_json(json_path, entries);
    std::cout << "wrote " << json_path << "\n";
  }
  write_observability_outputs(args);
  if (!report.clean(static_cast<double>(*p99_factor))) {
    // Full runtime snapshot on any gate failure, so the postmortem has the
    // server/store/engine counters next to the report numbers.
    std::cerr << "postmortem metrics snapshot:\n"
              << metrics_json(MetricsRegistry::global().snapshot()) << "\n";
    std::cerr << "error: chaos gate failed —"
              << (report.wrong_answers > 0
                      ? " " + std::to_string(report.wrong_answers) +
                            " wrong answers;"
                      : "")
              << (report.torn_files > 0
                      ? " " + std::to_string(report.torn_files) +
                            " torn files;"
                      : "")
              << (!report.identity_ok ? " admission identity broken;" : "")
              << (report.accepted == 0 ? " nothing accepted;" : "")
              << " p99 baseline " << fmt_double(report.baseline_p99_us)
              << " us vs soak " << fmt_double(report.soak_p99_us) << " us\n";
    return 1;
  }
  std::cout << "chaos gate clean: every accepted answer bit-identical to its "
               "generation, no torn files, identity holds\n";
  return 0;
}

int cmd_stats(const Command& cmd, const cli::Args& args) {
  const auto queries = args.get_int("queries", 2000);
  const auto clients = args.get_int("clients", 8);
  const auto extent = args.get_int("extent", 32);
  const std::string format = args.get_string("format", "json");
  if (!queries || !clients || !extent || *queries < 1 || *clients < 1 ||
      *clients > 4096 || *extent < 1) {
    return usage_command(cmd, "bad numeric flag");
  }
  if (format != "json" && format != "prom") {
    return usage_command(cmd, "--format must be json or prom");
  }
  // Fresh registry and span ring: the snapshot below covers exactly this
  // run's build, store round trip, and replay.
  MetricsRegistry::global().reset();
  TraceRing::global().clear();
  IndexSource source;
  if (const int status =
          open_index_source(cmd, args, &source, /*round_trip_store=*/true);
      status != 0) {
    return status;
  }
  const std::string trace_path = args.get_string("trace", "");
  QueryTrace trace;
  if (!trace_path.empty()) {
    trace = read_trace_file(trace_path);
    if (trace.empty()) {
      return usage_command(cmd, "trace '" + trace_path + "' is empty");
    }
  } else {
    TraceGenOptions gen;
    gen.count = static_cast<std::uint64_t>(*queries);
    gen.box_extent = static_cast<std::uint32_t>(*extent);
    trace = generate_trace(source.view.curve().universe(), gen);
  }
  IndexServer server(source.view, ServerOptions{});
  ReplayOptions replay_options;
  replay_options.clients = static_cast<std::uint32_t>(*clients);
  const ReplayReport report = replay_trace(server, trace, replay_options);
  std::cout << "replayed " << report.queries << " queries at " << *clients
            << " clients: p50 " << fmt_double(report.p50_us) << " us, p99 "
            << fmt_double(report.p99_us) << " us\n";
  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  const std::string rendered =
      format == "prom" ? metrics_prometheus(snapshot) : metrics_json(snapshot);
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    std::cout << rendered;
  } else {
    write_text_file(out, rendered);
    std::cout << "wrote " << out << "\n";
  }
  write_observability_outputs(args);
  return 0;
}

int cmd_store_fuzz(const Command& cmd, const cli::Args& args) {
  const std::string file = args.get_string("file", "");
  if (file.empty()) return usage_command(cmd, "store-fuzz requires --file FILE");
  const auto iterations = args.get_int("iterations", 2000);
  const auto seed = args.get_int("seed", 1);
  const auto threads = args.get_int("threads", 0);
  const auto probes = args.get_int("probes", 8);
  if (!iterations || !seed || !threads || !probes || *iterations < 1 ||
      *seed < 0 || *threads < 0 || *probes < 1) {
    return usage_command(cmd, "bad numeric flag");
  }

  FaultCampaignOptions options;
  options.iterations = static_cast<std::uint64_t>(*iterations);
  options.seed = static_cast<std::uint64_t>(*seed);
  options.threads = static_cast<std::uint32_t>(*threads);
  options.probes = static_cast<std::uint32_t>(*probes);
  options.scratch_dir = args.get_string("scratch", "");

  const FaultCampaignReport report = run_fault_campaign(file, options);
  Table table({"kind", "drawn"});
  for (std::size_t k = 0; k < report.by_kind.size(); ++k) {
    table.add_row({fault_kind_name(static_cast<FaultKind>(k)),
                   Table::fmt_int(report.by_kind[k])});
  }
  table.print(std::cout);
  std::cout << report.iterations << " seeded mutations of " << file
            << " (seed " << *seed << "): " << report.rejected
            << " rejected, " << report.benign << " benign, "
            << report.wrong_answer << " wrong-answer, " << report.wrong_error
            << " wrong-error\n";
  if (!report.clean()) {
    std::cerr << "error: corruption contract violated; failing iterations:";
    for (const std::uint64_t it : report.failing_iterations) {
      std::cerr << " " << it;
    }
    std::cerr << "\n";
    return 1;
  }
  std::cout << "fault campaign clean: every mutation rejected or provably "
               "benign\n";
  return 0;
}

int cmd_optimize(const Command& cmd, const cli::Args& args) {
  const auto dim = args.get_int("dim", 2);
  const auto side = args.get_int("side", 6);
  const auto iters = args.get_int("iters", 100000);
  const auto seed = args.get_int("seed", 1);
  if (!dim || !side || !iters || !seed) {
    return usage_command(cmd, "bad numeric flag");
  }
  const Universe u(static_cast<int>(*dim), static_cast<coord_t>(*side));
  OptimizeOptions options;
  options.iterations = static_cast<std::uint64_t>(*iters);
  options.seed = static_cast<std::uint64_t>(*seed);
  const OptimizeResult result = optimize_davg(u, {}, options);
  std::cout << "local search on d=" << u.dim() << " side=" << u.side()
            << " (n=" << u.cell_count() << "), " << result.iterations
            << " iterations:\n";
  std::cout << "  start Davg (row-major) = " << result.initial_davg << "\n";
  std::cout << "  best Davg found        = " << result.best_davg << "\n";
  std::cout << "  Theorem-1 lower bound  = " << bounds::davg_lower_bound(u)
            << "\n";
  std::cout << "  best/bound             = "
            << result.best_davg / bounds::davg_lower_bound(u) << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

const FlagSpec kCurveFlag = {"curve", "NAME", "curve family (see 'sfctool help')"};
const FlagSpec kDimFlag = {"dim", "D", "universe dimensionality"};
const FlagSpec kBitsFlag = {"bits", "K", "universe side = 2^K (3^K for peano)"};
const FlagSpec kSeedFlag = {"seed", "S", "rng seed (random curve / dataset)"};
/// Parsed by parse_serve_flags; `retries` help differs by command default.
std::vector<FlagSpec> serve_flags(const char* retries_help) {
  return {{"shards", "B", "use 2^B curve-contiguous shards (default 4)"},
          {"max-batch", "N", "admission batch size (default 64)"},
          {"window-us", "U", "admission batch window, us (default 200)"},
          {"max-queue", "N", "admission queue bound (0 = unbounded)"},
          {"deadline-us", "U", "per-query deadline, us (0 = none)"},
          {"retries", "N", retries_help},
          {"backoff-us", "U", "base retry backoff, us (default 200)"}};
}
const std::vector<FlagSpec> kIndexBuildFlags = {
    kCurveFlag, kDimFlag, kBitsFlag, kSeedFlag,
    {"count", "N", "uniform random points to index (default 100000)"},
    {"points", "FILE", "index these points instead (one x1,..,xd per line)"},
    {"block-rows", "B", "directory block size in rows (default 256)"}};

std::vector<FlagSpec> with(std::vector<FlagSpec> base,
                           const std::vector<FlagSpec>& extra) {
  base.insert(base.end(), extra.begin(), extra.end());
  return base;
}

const std::vector<Command>& command_table() {
  static const std::vector<Command> kCommands = {
      {"analyze", "stretch/clustering report for one curve",
       {kCurveFlag, kDimFlag, kBitsFlag, kSeedFlag,
        {"samples", "N", "all-pairs sample budget (default 200000)"}},
       cmd_analyze},
      {"render", "ASCII/SVG rendering of a 2-d curve",
       {kCurveFlag, kBitsFlag,
        {"binary", "", "render keys in binary (2^k side only)"},
        {"svg", "FILE", "also write an SVG rendering"}},
       cmd_render},
      {"sweep", "Davg convergence sweep over levels",
       {kCurveFlag, kDimFlag,
        {"max-bits", "K", "sweep levels 1..K"},
        {"csv", "", "emit CSV instead of an aligned table"}},
       cmd_sweep},
      {"bounds", "paper bounds for one universe", {kDimFlag, kBitsFlag},
       cmd_bounds},
      {"partition", "curve-order partition quality",
       {kCurveFlag, kDimFlag, kBitsFlag, {"parts", "P", "partition count"}},
       cmd_partition},
      {"clustering", "random-box clustering (mean curve runs per box)",
       {kCurveFlag, kDimFlag, kBitsFlag,
        {"extent", "E", "box side length"},
        {"samples", "N", "number of random boxes"}},
       cmd_clustering},
      {"cover", "exact key-interval cover of one box",
       {kCurveFlag, kDimFlag, kBitsFlag,
        {"lo", "X1,..,Xd", "inclusive low corner"},
        {"hi", "Y1,..,Yd", "inclusive high corner"},
        {"csv", "", "emit CSV instead of an aligned table"}},
       cmd_cover},
      {"index-build", "build an SFC point index and summarize it",
       kIndexBuildFlags, cmd_index_build},
      {"index-write", "build an index and persist it to a checksummed file",
       with(kIndexBuildFlags, {{"out", "FILE", "output index file (required)"}}),
       cmd_index_write},
      {"index-query", "range-query an index (built or --file mmapped)",
       with(kIndexBuildFlags,
            {{"file", "FILE", "mmap this index file instead of building"},
             {"lo", "X1,..,Xd", "inclusive low corner of the query box"},
             {"hi", "Y1,..,Yd", "inclusive high corner of the query box"},
             {"extent", "E", "random-box sampling: box side length"},
             {"samples", "N", "random-box sampling: number of boxes"}}),
       cmd_index_query},
      {"index-knn", "kNN-query an index (built or --file mmapped)",
       with(kIndexBuildFlags,
            {{"file", "FILE", "mmap this index file instead of building"},
             {"query", "X1,..,Xd", "query point"},
             {"k", "K", "neighbors to return (default 5)"}}),
       cmd_index_knn},
      {"trace-gen", "generate a reproducible mixed query trace",
       {kDimFlag, kBitsFlag, kSeedFlag,
        {"count", "N", "total queries (default 1000)"},
        {"extent", "E", "range-box side length (default 32)"},
        {"knn-k", "K", "k of the knn queries (default 8)"},
        {"knn-percent", "P", "percent of knn queries in the mix (default 50)"},
        {"out", "FILE", "output trace file (required)"}},
       cmd_trace_gen},
      {"serve-bench", "replay a query trace through the batching server",
       with(with(kIndexBuildFlags,
                 serve_flags("client retries on overload/timeout (default 0)")),
            {{"file", "FILE", "mmap this index file instead of building"},
             {"trace", "FILE", "query trace to replay (required)"},
             {"clients", "LIST", "client counts, e.g. 1,8,64 (default)"},
             {"json", "FILE", "write google-benchmark-shaped JSON"},
             {"max-p99-us", "U", "fail if any p99 exceeds this (0 = off)"},
             {"overload-p99-factor", "F",
              "fail if accepted p99 exceeds F x the first client level's p99 "
              "(0 = off)"},
             {"metrics-out", "FILE",
              "write a metrics snapshot (json; .prom = Prometheus text)"},
             {"trace-out", "FILE",
              "write captured spans as Chrome trace-event JSON"}}),
       cmd_serve_bench},
      {"serve-chaos", "soak the server under continuous reloads and crashes",
       with({kCurveFlag, kDimFlag, kBitsFlag, kSeedFlag,
        {"file", "FILE", "served index path, rewritten throughout (required)"},
        {"points", "N", "points per dataset (default 20000)"},
        {"block-rows", "B", "directory block size in rows (default 256)"},
        {"trace", "FILE", "query trace to replay (default: generated)"},
        {"clients", "N", "concurrent clients (default 8)"},
        {"duration-s", "S", "soak seconds (default 5; baseline phase ~S/5)"},
        {"reload-every-ms", "MS", "writer rewrite+reload cadence (default 100)"},
        {"crash-every", "N", "crash cycle every Nth rewrite (0 = off)"},
        {"p99-factor", "F", "fail if soak p99 exceeds F x baseline (default 2)"},
        {"json", "FILE", "write google-benchmark-shaped JSON"},
        {"metrics-out", "FILE",
         "write a metrics snapshot (json; .prom = Prometheus text)"},
        {"trace-out", "FILE",
         "write captured spans as Chrome trace-event JSON"}},
            serve_flags("client retries on overload/timeout (default 3)")),
       cmd_serve_chaos},
      {"stats", "replay a trace and dump the unified metrics snapshot",
       with(kIndexBuildFlags,
            {{"file", "FILE", "mmap this index file instead of building"},
             {"trace", "FILE", "query trace to replay (default: generated)"},
             {"queries", "N", "generated-trace query count (default 2000)"},
             {"extent", "E", "generated-trace box side length (default 32)"},
             {"clients", "N", "concurrent replay clients (default 8)"},
             {"format", "F", "json (default) or prom"},
             {"out", "FILE", "metrics output file (default: stdout)"},
             {"trace-out", "FILE",
              "write captured spans as Chrome trace-event JSON"}}),
       cmd_stats},
      {"store-fuzz", "seeded corruption campaign against an index file",
       {{"file", "FILE", "index file to fuzz (required)"},
        {"iterations", "N", "mutations to test (default 2000)"},
        kSeedFlag,
        {"threads", "T", "worker threads (default: hardware)"},
        {"probes", "N", "reference queries per kind (default 8)"},
        {"scratch", "DIR", "scratch directory (default: alongside --file)"}},
       cmd_store_fuzz},
      {"optimize", "local-search Davg optimization on a small universe",
       {kDimFlag,
        {"side", "S", "universe side"},
        {"iters", "N", "local-search iterations"},
        kSeedFlag},
       cmd_optimize},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  // "sfctool help <command>" is sugar for "sfctool <command> --help".
  if (tokens.size() >= 2 && tokens[0] == "help") {
    tokens = {tokens[1], "--help"};
  }
  const cli::Args args = cli::Args::parse(tokens);
  if (!args.valid()) return usage_all(args.error());

  const std::string& name = args.subcommand();
  if (name.empty()) {
    return args.get_flag("help") ? usage_all("") : usage_all("missing command");
  }
  if (name == "help") return usage_all("");

  const Command* command = nullptr;
  for (const Command& candidate : command_table()) {
    if (name == candidate.name) {
      command = &candidate;
      break;
    }
  }
  if (command == nullptr) return usage_all("unknown command '" + name + "'");
  if (args.get_flag("help")) return usage_command(*command);

  // Strict flag validation against the command's spec — typos and
  // wrong-command flags fail up front instead of being silently ignored.
  for (const std::string& key : args.unused_keys()) {
    bool known = false;
    for (const FlagSpec& spec : command->flags) {
      if (key == spec.flag) {
        known = true;
        break;
      }
    }
    if (!known) {
      return usage_command(*command, "unknown flag --" + key + " for '" +
                                         std::string(command->name) + "'");
    }
  }

  try {
    return command->run(*command, args);
  } catch (const sfc::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
