// c4h-analyze — coroutine-lifetime & determinism dataflow analyzer.
//
// Usage:
//   c4h-analyze [--rules=A1,D1,...] [--baseline=FILE] [--write-baseline=FILE]
//               [--exclude=SUBSTR]... <file-or-dir>...
//
// Exit codes: 0 clean (or fully baselined/suppressed), 1 new findings,
// 2 usage or IO error. New findings are followed by a per-rule tally.
//
// The baseline is a JSON document (c4h-analyze-baseline-v1) keyed on
// (file, rule, function) — line numbers are deliberately absent so ordinary
// drift above a finding does not invalidate it. Entries carry a `note`
// explaining why the finding is accepted; `--write-baseline` seeds notes
// with "TODO: justify".
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "tools/c4h-analyze/rules.hpp"

namespace fs = std::filesystem;
using namespace c4h::analyze;

namespace {

bool skip_dir(const std::string& name) {
  return name == ".git" || name == "analyze_fixtures" || name.rfind("build", 0) == 0;
}

bool source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool expand_paths(const std::vector<std::string>& inputs,
                  const std::vector<std::string>& excludes, std::vector<std::string>& out) {
  const auto excluded = [&](const std::string& path) {
    return std::any_of(excludes.begin(), excludes.end(), [&](const std::string& e) {
      return path.find(e) != std::string::npos;
    });
  };
  for (const std::string& in : inputs) {
    std::error_code ec;
    if (fs::is_directory(in, ec)) {
      auto it = fs::recursive_directory_iterator(in, ec);
      if (ec) {
        std::fprintf(stderr, "c4h-analyze: cannot walk %s: %s\n", in.c_str(),
                     ec.message().c_str());
        return false;
      }
      for (auto end = fs::end(it); it != end; it.increment(ec)) {
        if (ec) return false;
        const fs::path& p = it->path();
        if (it->is_directory() && skip_dir(p.filename().string())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && source_file(p) && !excluded(p.string())) {
          out.push_back(p.string());
        }
      }
    } else if (fs::is_regular_file(in, ec)) {
      if (!excluded(in)) out.push_back(in);
    } else {
      std::fprintf(stderr, "c4h-analyze: no such file or directory: %s\n", in.c_str());
      return false;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return true;
}

// Normalizes a path to its repo-relative suffix so baseline entries match no
// matter whether the analyzer was invoked with relative or absolute paths.
std::string repo_rel(const std::string& path) {
  static const char* roots[] = {"src/", "tests/", "bench/", "tools/", "examples/"};
  std::size_t best = std::string::npos;
  for (const char* r : roots) {
    // Last occurrence bounded by a path separator (or string start).
    std::size_t pos = path.rfind(r);
    while (pos != std::string::npos && pos != 0 && path[pos - 1] != '/') {
      pos = pos == 0 ? std::string::npos : path.rfind(r, pos - 1);
    }
    if (pos != std::string::npos && (best == std::string::npos || pos < best)) best = pos;
  }
  return best == std::string::npos ? path : path.substr(best);
}

struct BaselineEntry {
  std::string file, rule, func, note;
  bool seen = false;
};

bool load_baseline(const std::string& path, std::vector<BaselineEntry>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "c4h-analyze: cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  auto parsed = c4h::obs::json_parse(ss.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "c4h-analyze: %s: %s\n", path.c_str(),
                 parsed.error().message.c_str());
    return false;
  }
  const c4h::obs::JsonValue& root = *parsed;
  const auto* schema = root.find("schema");
  if (schema == nullptr || schema->str != "c4h-analyze-baseline-v1") {
    std::fprintf(stderr, "c4h-analyze: %s: not a c4h-analyze-baseline-v1 file\n",
                 path.c_str());
    return false;
  }
  const auto* findings = root.find("findings");
  if (findings == nullptr) return true;
  for (const auto& f : findings->items) {
    BaselineEntry e;
    if (const auto* v = f.find("file")) e.file = v->str;
    if (const auto* v = f.find("rule")) e.rule = v->str;
    if (const auto* v = f.find("func")) e.func = v->str;
    if (const auto* v = f.find("note")) e.note = v->str;
    out.push_back(std::move(e));
  }
  return true;
}

bool write_baseline(const std::string& path, const std::vector<Finding>& findings) {
  c4h::obs::JsonWriter w;
  w.begin_object().key("schema").value("c4h-analyze-baseline-v1");
  w.key("findings").begin_array();
  for (const Finding& f : findings) {
    w.begin_object()
        .key("file").value(repo_rel(f.file))
        .key("rule").value(f.rule)
        .key("func").value(f.func)
        .key("note").value("TODO: justify")
        .end_object();
  }
  w.end_array().end_object();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "c4h-analyze: cannot write %s\n", path.c_str());
    return false;
  }
  out << w.str() << "\n";
  return out.good();
}

int usage() {
  std::fprintf(stderr,
               "usage: c4h-analyze [--rules=A1,..] [--baseline=FILE] "
               "[--write-baseline=FILE] [--exclude=SUBSTR]... <paths>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs, excludes;
  std::string baseline_path, write_baseline_path;
  std::set<std::string> enabled = {"A1", "A2", "A3", "A4", "A5", "A6",
                                   "D1", "D2", "D3", "H1"};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rules=", 0) == 0) {
      enabled.clear();
      std::stringstream list(arg.substr(8));
      std::string r;
      while (std::getline(list, r, ',')) {
        if (!r.empty()) enabled.insert(r);
      }
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = arg.substr(17);
    } else if (arg.rfind("--exclude=", 0) == 0) {
      excludes.push_back(arg.substr(10));
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  std::vector<std::string> paths;
  if (!expand_paths(inputs, excludes, paths)) return 2;

  // Lex + model every file first: the symbol index and cross-function taint
  // need the whole set before any rule can run.
  std::vector<SourceFile> files(paths.size());
  std::vector<FileModel> models;
  models.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!load_file(paths[i], files[i])) {
      std::fprintf(stderr, "c4h-analyze: cannot read %s\n", paths[i].c_str());
      return 2;
    }
    models.push_back(build_model(files[i]));
  }

  SymbolIndex index = build_index(models);
  for (int pass = 0; pass < 4 && propagate_taint(models, index); ++pass) {
  }

  std::vector<Finding> findings;
  for (const FileModel& m : models) {
    auto fs_ = run_rules(m, index, enabled);
    findings.insert(findings.end(), fs_.begin(), fs_.end());
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });

  if (!write_baseline_path.empty()) {
    if (!write_baseline(write_baseline_path, findings)) return 2;
    std::printf("c4h-analyze: wrote %zu finding(s) to %s\n", findings.size(),
                write_baseline_path.c_str());
    return 0;
  }

  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty() && !load_baseline(baseline_path, baseline)) return 2;

  std::size_t baselined = 0;
  std::vector<const Finding*> fresh;
  for (const Finding& f : findings) {
    const std::string rel = repo_rel(f.file);
    auto it = std::find_if(baseline.begin(), baseline.end(), [&](const BaselineEntry& e) {
      return e.file == rel && e.rule == f.rule && e.func == f.func;
    });
    if (it != baseline.end()) {
      it->seen = true;
      ++baselined;
    } else {
      fresh.push_back(&f);
    }
  }

  for (const Finding* f : fresh) {
    std::printf("%s:%d: [%s] %s (in %s)\n", f->file.c_str(), f->line, f->rule.c_str(),
                f->msg.c_str(), f->func.empty() ? "<file scope>" : f->func.c_str());
  }
  std::map<std::string, int> per_rule;
  for (const Finding* f : fresh) ++per_rule[f->rule];
  if (!per_rule.empty()) {
    std::printf("c4h-analyze: new findings by rule:");
    for (const auto& [rule, n] : per_rule) std::printf(" %s=%d", rule.c_str(), n);
    std::printf("\n");
  }
  for (const BaselineEntry& e : baseline) {
    if (!e.seen) {
      std::fprintf(stderr, "c4h-analyze: warning: stale baseline entry %s [%s] %s\n",
                   e.file.c_str(), e.rule.c_str(), e.func.c_str());
    }
  }
  std::printf("c4h-analyze: %zu file(s), %zu finding(s) (%zu baselined, %zu new)\n",
              paths.size(), findings.size(), baselined, fresh.size());
  return fresh.empty() ? 0 : 1;
}
