// `neurofem obs` — inspect observability artifacts: post-mortem bundles
// written by the flight recorder (obs::FlightRecorder) and live telemetry
// snapshots written by the SessionServer publisher. Formats are documented in
// docs/observability.md; machine validation lives in tools/obs/check_trace.py,
// this command is the human-facing pretty-printer.
//
//   neurofem obs --bundle postmortem_0001.json
//   neurofem obs --snapshot snapshot.json [--sessions 1]
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cli_util.h"

namespace neuro::cli {

namespace {

/// Minimal JSON document model: enough to walk the artifacts this repo
/// writes (objects, arrays, strings, numbers, booleans, null). Object member
/// order is preserved so output follows the file.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] double num(const std::string& key, double fallback = 0.0) const {
    const Json* v = find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
  [[nodiscard]] std::string text(const std::string& key) const {
    const Json* v = find(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : "";
  }
};

/// Recursive-descent parser over the whole input. Strict enough to reject
/// garbage, permissive about whitespace. NEURO_REQUIREs on malformed input
/// (the CLI maps CheckError to exit code 1).
class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_ws();
    NEURO_REQUIRE(pos_ == text_.size(),
                  "obs: trailing junk at byte " << pos_ << " of JSON input");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    NEURO_REQUIRE(pos_ < text_.size(), "obs: unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    NEURO_REQUIRE(peek() == c, "obs: expected '" << c << "' at byte " << pos_
                                                 << ", got '" << text_[pos_]
                                                 << "'");
    ++pos_;
  }

  Json value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return bool_value();
    if (c == 'n') return null_value();
    return number_value();
  }

  Json object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      Json key = string_value();
      expect(':');
      v.members.emplace_back(std::move(key.str), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    expect('"');
    Json v;
    v.kind = Json::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        NEURO_REQUIRE(pos_ < text_.size(), "obs: dangling escape in string");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Artifacts in this repo never emit \u escapes; degrade to '?'
            // rather than failing on foreign input.
            NEURO_REQUIRE(pos_ + 4 <= text_.size(), "obs: truncated \\u escape");
            pos_ += 4;
            c = '?';
            break;
          default: c = e; break;
        }
      }
      v.str.push_back(c);
    }
    NEURO_REQUIRE(pos_ < text_.size(), "obs: unterminated string");
    ++pos_;  // closing quote
    return v;
  }

  Json bool_value() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else {
      NEURO_REQUIRE(text_.compare(pos_, 5, "false") == 0,
                    "obs: bad literal at byte " << pos_);
      pos_ += 5;
    }
    return v;
  }

  Json null_value() {
    NEURO_REQUIRE(text_.compare(pos_, 4, "null") == 0,
                  "obs: bad literal at byte " << pos_);
    pos_ += 4;
    return Json{};
  }

  Json number_value() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    NEURO_REQUIRE(pos_ > start, "obs: expected a JSON value at byte " << pos_);
    Json v;
    v.kind = Json::Kind::kNumber;
    v.number = std::atof(text_.substr(start, pos_ - start).c_str());
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

Json load_json(const std::string& path) {
  std::ifstream f(path);
  NEURO_REQUIRE(f.good(), "obs: cannot open '" << path << "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  return JsonParser(buf.str()).parse();
}

void print_attrs(const Json* attrs, const char* indent) {
  if (attrs == nullptr || attrs->members.empty()) return;
  for (const auto& [key, value] : attrs->members) {
    switch (value.kind) {
      case Json::Kind::kString:
        std::printf("%s%s: %s\n", indent, key.c_str(), value.str.c_str());
        break;
      case Json::Kind::kNumber:
        std::printf("%s%s: %.17g\n", indent, key.c_str(), value.number);
        break;
      case Json::Kind::kBool:
        std::printf("%s%s: %s\n", indent, key.c_str(),
                    value.boolean ? "true" : "false");
        break;
      default:
        std::printf("%s%s: <%s>\n", indent, key.c_str(),
                    value.kind == Json::Kind::kArray ? "array" : "object");
        break;
    }
  }
}

void print_bundle(const Json& doc) {
  std::printf("post-mortem bundle (schema %s)\n", doc.text("schema").c_str());

  if (const Json* trigger = doc.find("trigger"); trigger != nullptr) {
    std::printf("trigger: %s\n", trigger->text("kind").c_str());
    const std::string detail = trigger->text("detail");
    if (!detail.empty()) std::printf("  detail: %s\n", detail.c_str());
    print_attrs(trigger->find("attrs"), "  ");
  }

  if (const Json* prov = doc.find("provenance"); prov != nullptr) {
    const Json* redact = prov->find("redact_timing");
    std::printf("provenance: build=%s, redact_timing=%s\n",
                prov->text("build_type").c_str(),
                redact != nullptr && redact->boolean ? "true" : "false");
    if (const Json* env = prov->find("env"); env != nullptr) {
      for (const auto& [key, value] : env->members) {
        if (!value.str.empty()) {
          std::printf("  %s=%s\n", key.c_str(), value.str.c_str());
        }
      }
    }
  }

  if (const Json* streams = doc.find("streams"); streams != nullptr) {
    std::printf("streams: %zu\n", streams->items.size());
    std::printf("  %6s %10s %10s %10s %10s\n", "rank", "recorded", "retained",
                "wrapped", "dropped");
    for (const auto& s : streams->items) {
      std::printf("  %6.0f %10.0f %10.0f %10.0f %10.0f\n", s.num("rank"),
                  s.num("recorded"), s.num("retained"), s.num("wrapped"),
                  s.num("dropped"));
    }
  }

  if (const Json* ring = doc.find("ring"); ring != nullptr) {
    const Json* events = ring->find("events");
    const std::size_t count = events != nullptr ? events->items.size() : 0;
    std::printf("ring: capacity %.0f, %zu events retained\n",
                ring->num("capacity"), count);
    // The tail is where the incident is: show the last few events.
    constexpr std::size_t kTail = 10;
    const std::size_t first = count > kTail ? count - kTail : 0;
    for (std::size_t i = first; i < count; ++i) {
      const Json& e = events->items[i];
      std::printf("  [%.0f/%.0f] %s %s", e.num("rank"), e.num("seq"),
                  e.text("kind").c_str(), e.text("name").c_str());
      if (const Json* dur = e.find("dur_us"); dur != nullptr) {
        std::printf(" (%.3f us)", dur->number);
      }
      std::printf("\n");
      print_attrs(e.find("args"), "      ");
    }
  }

  if (const Json* history = doc.find("residual_history"); history != nullptr) {
    // Summarize per (solver, rank): iterations seen and final residual.
    std::map<std::pair<std::string, int>, std::pair<int, double>> tail;
    for (const auto& row : history->items) {
      const auto key = std::make_pair(row.text("solver"),
                                      static_cast<int>(row.num("rank")));
      tail[key] = {static_cast<int>(row.num("iteration")),
                   row.num("residual")};
    }
    std::printf("residual history: %zu entries\n", history->items.size());
    for (const auto& [key, last] : tail) {
      std::printf("  %s rank %d: final iteration %d, residual %.6g\n",
                  key.first.c_str(), key.second, last.first, last.second);
    }
  }

  if (const Json* metrics = doc.find("metrics"); metrics != nullptr) {
    std::printf("metrics: %zu instruments captured\n", metrics->items.size());
  }
}

void print_snapshot(const Json& doc, bool show_sessions) {
  std::printf("telemetry snapshot (schema %s, sequence %.0f)\n",
              doc.text("schema").c_str(), doc.num("sequence"));

  if (const Json* queue = doc.find("queue"); queue != nullptr) {
    std::printf("queue: depth %.0f / capacity %.0f (max seen %.0f)\n",
                queue->num("depth"), queue->num("capacity"),
                queue->num("max_depth"));
    if (const Json* history = queue->find("history");
        history != nullptr && !history->items.empty()) {
      std::printf("  depth history (oldest first):");
      for (const auto& d : history->items) std::printf(" %.0f", d.number);
      std::printf("\n");
    }
  }

  if (const Json* slo = doc.find("slo"); slo != nullptr) {
    std::printf(
        "slo: target %.3gs, p50 %.3gs, p99 %.3gs, attainment %.1f%% "
        "(window %.0f, %.0f requests)\n",
        slo->num("target_seconds"), slo->num("p50_seconds"),
        slo->num("p99_seconds"), 100.0 * slo->num("attainment"),
        slo->num("window"), slo->num("requests"));
  }

  if (const Json* sessions = doc.find("sessions");
      sessions != nullptr && show_sessions) {
    std::printf("sessions: %zu\n", sessions->items.size());
    for (const auto& s : sessions->items) {
      std::printf(
          "  session %.0f: %.0f requests, p50 %.3gs, p99 %.3gs, "
          "attainment %.1f%%\n",
          s.num("session"), s.num("requests"), s.num("p50_seconds"),
          s.num("p99_seconds"), 100.0 * s.num("attainment"));
    }
  }

  if (const Json* stats = doc.find("stats"); stats != nullptr) {
    std::printf(
        "stats: %.0f submitted, %.0f admitted, %.0f usable, %.0f degraded, "
        "%.0f failed, %.0f crashes\n",
        stats->num("submitted"), stats->num("admitted"), stats->num("usable"),
        stats->num("degraded"), stats->num("failed"), stats->num("crashes"));
    const double rejected =
        stats->num("rejected_queue_full") + stats->num("rejected_deadline") +
        stats->num("rejected_unknown_session") +
        stats->num("rejected_draining") + stats->num("rejected_invalid_scan");
    if (rejected > 0) {
      std::printf(
          "  rejected: %.0f (queue_full %.0f, deadline %.0f, "
          "unknown_session %.0f, draining %.0f, invalid_scan %.0f)\n",
          rejected, stats->num("rejected_queue_full"),
          stats->num("rejected_deadline"),
          stats->num("rejected_unknown_session"),
          stats->num("rejected_draining"), stats->num("rejected_invalid_scan"));
    }
  }
}

}  // namespace

int cmd_obs(int argc, char** argv) {
  const Args args(argc, argv, 2);
  const std::string bundle = args.get("bundle");
  const std::string snapshot = args.get("snapshot");
  const bool show_sessions = args.get_bool("sessions", true);
  args.reject_unused();
  NEURO_REQUIRE(bundle.empty() != snapshot.empty(),
                "obs: pass exactly one of --bundle FILE or --snapshot FILE");

  if (!bundle.empty()) {
    const Json doc = load_json(bundle);
    NEURO_REQUIRE(doc.text("schema") == "neuro.postmortem.v1",
                  "obs: '" << bundle << "' is not a post-mortem bundle (schema '"
                           << doc.text("schema") << "')");
    print_bundle(doc);
  } else {
    const Json doc = load_json(snapshot);
    NEURO_REQUIRE(doc.text("schema") == "neuro.snapshot.v1",
                  "obs: '" << snapshot << "' is not a telemetry snapshot (schema '"
                           << doc.text("schema") << "')");
    print_snapshot(doc, show_sessions);
  }
  return 0;
}

}  // namespace neuro::cli
