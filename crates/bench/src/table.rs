//! Minimal aligned-column text tables for the experiment binaries, and
//! the one driver behind the paper's Tables 1–6.

use crate::paper_data::PaperRow;
use crate::ExperimentProtocol;

/// A text table builder with right-aligned numeric columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table. Widths count characters, as `{:<width$}` pads
    /// by them, so a label holding a multi-byte `—` still lines up.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let width = |cell: &String| cell.chars().count();
        let mut widths: Vec<usize> = self.header.iter().map(width).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(width(cell));
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                // First column left-aligned (labels), rest right-aligned.
                if i == 0 {
                    out.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    out.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

/// Formats a measured-vs-paper pair like `"63 (paper 59)"`.
pub fn vs_paper(measured: u64, paper: Option<u64>) -> String {
    match paper {
        Some(p) => format!("{measured} (paper {p})"),
        None => format!("{measured} (paper -)"),
    }
}

/// One of the paper's Tables 1–6: the text its binary prints around the
/// measured cells. The six binaries differ only in this data and in how
/// they measure a cell.
#[derive(Debug, Clone, Copy)]
pub struct PaperTable<'a, const N: usize> {
    /// The title line.
    pub title: &'a str,
    /// The part counts, one column each.
    pub parts: [u32; N],
    /// The paper's rows; each prints a DKNUX line and an RSB line.
    pub rows: &'a [PaperRow<N>],
    /// Appended to a row's label on its DKNUX line and on its RSB line.
    pub suffixes: [&'a str; 2],
}

impl<const N: usize> PaperTable<'_, N> {
    /// Measures every cell with `cell(label, parts)`, which returns the
    /// DKNUX and the RSB value, and renders the report: the title, the
    /// protocol line, measured-vs-paper cells and the footer.
    pub fn render(
        &self,
        protocol: &ExperimentProtocol,
        mut cell: impl FnMut(&str, u32) -> [u64; 2],
    ) -> String {
        let header = std::iter::once("graph / method".to_string())
            .chain(self.parts.iter().map(|p| format!("{p} parts")));
        let mut table = TextTable::new(header);
        for row in self.rows {
            let mut lines = self.suffixes.map(|s| vec![format!("{}{s}", row.label)]);
            for (col, &parts) in self.parts.iter().enumerate() {
                let [dknux, rsb] = cell(row.label, parts);
                lines[0].push(vs_paper(dknux, Some(row.dknux[col])));
                lines[1].push(vs_paper(rsb, row.rsb[col]));
            }
            for line in lines {
                table.row(line);
            }
        }
        format!(
            "{}\nprotocol: {} runs x {} generations, population {}, {}\n\n{}\n\
             (measured values are best-of-{} DPGA runs; paper values in parentheses)\n",
            self.title,
            protocol.runs,
            protocol.generations,
            protocol.population,
            protocol.topology,
            table.render(),
            protocol.runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_data::F2Row;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["graph", "cut"]);
        t.row(["167", "20"]);
        t.row(["a-long-label", "109"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
        assert!(lines[2].starts_with("167"));
        assert!(lines[3].starts_with("a-long-label"));
    }

    #[test]
    fn multi_byte_labels_line_up() {
        let mut t = TextTable::new(["graph / method", "4 parts"]);
        t.row(["78 — DKNUX", "6"]);
        t.row(["118+21 — RSB", "400"]);
        assert_eq!(
            t.render(),
            "graph / method  4 parts\n\
             -----------------------\n\
             78 — DKNUX            6\n\
             118+21 — RSB        400\n"
        );
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["x"]);
        let s = t.render();
        assert!(s.contains('x'));
    }

    #[test]
    fn vs_paper_formats() {
        assert_eq!(vs_paper(63, Some(59)), "63 (paper 59)");
        assert_eq!(vs_paper(29, None), "29 (paper -)");
    }

    #[test]
    fn paper_table_renders_a_stub_spec_exactly() {
        let rows = [
            F2Row {
                label: "78",
                dknux: [5, 16],
                rsb: [Some(7), None],
            },
            F2Row {
                label: "118+21",
                dknux: [12, 1234],
                rsb: [None, Some(40)],
            },
        ];
        let table = PaperTable {
            title: "Table 0 — stub",
            parts: [4, 8],
            rows: &rows,
            suffixes: [" — DKNUX", " — RSB"],
        };
        let protocol = ExperimentProtocol {
            runs: 2,
            generations: 30,
            population: 64,
            topology: gapart_core::Topology::Hypercube(2),
            ..ExperimentProtocol::default()
        };
        let mut calls = Vec::new();
        let text = table.render(&protocol, |label, parts| {
            calls.push(format!("{label}/{parts}"));
            [
                u64::from(parts) + label.len() as u64,
                100 * u64::from(parts),
            ]
        });
        assert_eq!(calls, ["78/4", "78/8", "118+21/4", "118+21/8"]);
        // The labels' `—` is one character but three bytes; the widest
        // label, `118+21 — DKNUX`, is 14 characters, as wide as the
        // header's first cell, so the label column is 14 wide.
        assert_eq!(
            text,
            "Table 0 — stub\n\
             protocol: 2 runs x 30 generations, population 64, hypercube(2)\n\
             \n\
             graph / method        4 parts          8 parts\n\
             ----------------------------------------------\n\
             78 — DKNUX        6 (paper 5)    10 (paper 16)\n\
             78 — RSB        400 (paper 7)    800 (paper -)\n\
             118+21 — DKNUX  10 (paper 12)  14 (paper 1234)\n\
             118+21 — RSB    400 (paper -)   800 (paper 40)\n\
             \n\
             (measured values are best-of-2 DPGA runs; paper values in parentheses)\n"
        );
    }
}
