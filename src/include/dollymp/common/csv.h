// Minimal CSV reader/writer used for trace files and experiment output.
//
// Supports quoted fields with embedded commas/quotes/newlines (RFC 4180
// subset), header rows, and typed column access.  Deliberately small: traces
// are plain rectangular tables.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dollymp {

/// One parsed CSV table.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header) : header_(std::move(header)) {}

  /// Parse from text; the first row is the header.  Throws
  /// std::runtime_error on malformed quoting or ragged rows.
  static CsvTable parse(std::string_view text);
  /// Parse a file via parse(); throws std::runtime_error if unreadable.
  static CsvTable load(const std::string& path);

  [[nodiscard]] const std::vector<std::string>& header() const { return header_; }
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return header_.size(); }

  /// Column index by name; nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> column(std::string_view name) const;

  [[nodiscard]] const std::string& cell(std::size_t row, std::size_t col) const;
  [[nodiscard]] const std::string& cell(std::size_t row, std::string_view col_name) const;
  /// Typed cells; a cell that does not parse in full (trailing characters
  /// included) throws std::runtime_error naming the row and the field (see
  /// where()), and so does a double cell that is not finite.
  [[nodiscard]] double cell_double(std::size_t row, std::string_view col_name) const;
  [[nodiscard]] long long cell_int(std::size_t row, std::string_view col_name) const;

  /// "row N, field 'name'" for data row `row` (0-based), counting rows from
  /// 1 at the first data row like parse()'s errors — the location prefix
  /// of every cell error, for readers that reject a value they parsed.
  [[nodiscard]] static std::string where(std::size_t row, std::string_view col_name);

  void add_row(std::vector<std::string> row);

  /// Serialize (with quoting where needed).
  [[nodiscard]] std::string to_string() const;
  void save(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Streaming writer: write_row() accepts any mix of string / arithmetic
/// values and quotes as needed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_header(const std::vector<std::string>& names) { write_strings(names); }
  void write_strings(const std::vector<std::string>& fields);

  template <typename... Fields>
  void write_row(const Fields&... fields) {
    std::vector<std::string> out;
    out.reserve(sizeof...(fields));
    (out.push_back(field_to_string(fields)), ...);
    write_strings(out);
  }

 private:
  static std::string field_to_string(const std::string& s) { return s; }
  static std::string field_to_string(const char* s) { return s; }
  static std::string field_to_string(double v);
  static std::string field_to_string(long long v) { return std::to_string(v); }
  static std::string field_to_string(unsigned long long v) { return std::to_string(v); }
  static std::string field_to_string(int v) { return std::to_string(v); }
  static std::string field_to_string(long v) { return std::to_string(v); }
  static std::string field_to_string(unsigned v) { return std::to_string(v); }
  static std::string field_to_string(std::size_t v) { return std::to_string(v); }

  std::ostream& os_;
};

/// Quote a single CSV field if it contains a comma, quote or newline.
[[nodiscard]] std::string csv_escape(std::string_view field);

}  // namespace dollymp
