// json_lint — validates that every file argument parses as JSON (the repo's
// own parser, so a bench artifact that this tool accepts is one every other
// consumer in the tree can read). Used by scripts/check.sh to fail the build
// on malformed bench_results/*.json. Exit code: number of invalid files.
//
//   $ ./json_lint bench_results/*.json

#include <cstdio>
#include <string>

#include "util/json.hpp"
#include "util/text_file.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_lint FILE [FILE...]\n");
    return 2;
  }
  int bad = 0;
  for (int i = 1; i < argc; ++i) {
    const auto text = telea::read_text_file(argv[i]);
    if (!text.has_value()) {
      std::fprintf(stderr, "json_lint: %s: cannot open\n", argv[i]);
      ++bad;
      continue;
    }
    if (!telea::JsonValue::parse(*text).has_value()) {
      std::fprintf(stderr, "json_lint: %s: malformed JSON\n", argv[i]);
      ++bad;
      continue;
    }
    std::printf("json_lint: %s: ok (%zu bytes)\n", argv[i], text->size());
  }
  return bad;
}
