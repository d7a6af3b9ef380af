#include "dollymp/common/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dollymp {

namespace {

// RFC 4180-ish tokenizer: returns rows of fields.
std::vector<std::vector<std::string>> tokenize(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) throw std::runtime_error("CSV: quote inside unquoted field");
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // the next field exists even if empty
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        end_row();
        break;
      default:
        field.push_back(c);
        field_started = true;
        break;
    }
  }
  if (in_quotes) throw std::runtime_error("CSV: unterminated quoted field");
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

}  // namespace

CsvTable CsvTable::parse(std::string_view text) {
  auto rows = tokenize(text);
  CsvTable table;
  if (rows.empty()) return table;
  table.header_ = std::move(rows.front());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != table.header_.size()) {
      throw std::runtime_error("CSV: row " + std::to_string(i) + " has " +
                               std::to_string(rows[i].size()) + " fields, expected " +
                               std::to_string(table.header_.size()));
    }
    table.rows_.push_back(std::move(rows[i]));
  }
  return table;
}

CsvTable CsvTable::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("CSV: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::optional<std::size_t> CsvTable::column(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  return std::nullopt;
}

const std::string& CsvTable::cell(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

const std::string& CsvTable::cell(std::size_t row, std::string_view col_name) const {
  const auto col = column(col_name);
  if (!col) throw std::out_of_range("CSV: no column named " + std::string(col_name));
  return cell(row, *col);
}

std::string CsvTable::where(std::size_t row, std::string_view col_name) {
  return "row " + std::to_string(row + 1) + ", field '" + std::string(col_name) + "'";
}

double CsvTable::cell_double(std::size_t row, std::string_view col_name) const {
  const std::string& s = cell(row, col_name);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec == std::errc::invalid_argument || ptr != s.data() + s.size()) {
    throw std::runtime_error("CSV: " + where(row, col_name) + ": cell '" + s +
                             "' is not a number");
  }
  // Out of range (1e400) and the spelled-out non-finite values (nan, inf)
  // parse, but no field of a trace can hold them.
  if (ec == std::errc::result_out_of_range || !std::isfinite(value)) {
    throw std::runtime_error("CSV: " + where(row, col_name) + ": cell '" + s +
                             "' is not a finite number");
  }
  return value;
}

long long CsvTable::cell_int(std::size_t row, std::string_view col_name) const {
  const std::string& s = cell(row, col_name);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error("CSV: " + where(row, col_name) + ": cell '" + s +
                             "' is not an integer");
  }
  return value;
}

void CsvTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("CSV: add_row width mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string CsvTable::to_string() const {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_strings(header_);
  for (const auto& row : rows_) writer.write_strings(row);
  return os.str();
}

void CsvTable::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("CSV: cannot write " + path);
  out << to_string();
}

void CsvWriter::write_strings(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) os_ << ',';
    os_ << csv_escape(fields[i]);
  }
  os_ << '\n';
}

std::string CsvWriter::field_to_string(double v) {
  std::ostringstream os;
  // max_digits10 so doubles survive a write/parse round trip bit-exactly.
  os.precision(17);
  os << v;
  return os.str();
}

std::string csv_escape(std::string_view field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

}  // namespace dollymp
