//! Plain-text table printing for the `paper` bin.

/// Prints a titled table: header row then data rows, columns padded to the
/// widest cell.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    print!("{}", render_table(title, header, rows));
}

/// Renders what [`print_table`] prints. Widths count chars, the unit
/// `{:>width$}` pads in, so a cell holding `κ` or `—` is as wide as it
/// looks.
fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let chars = |cell: &String| cell.chars().count();
    let mut widths: Vec<usize> = header.iter().map(chars).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch in table '{title}'");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(chars(cell));
        }
    }
    let line = |cells: &[String]| {
        let mut text = String::new();
        for (cell, &width) in cells.iter().zip(&widths) {
            text.push_str(&format!("{cell:>width$}  "));
        }
        format!("{}\n", text.trim_end())
    };
    let total: usize = widths.iter().sum::<usize>() + 2 * cols;
    let mut out = format!("\n=== {title} ===\n{}{}\n", line(header), "-".repeat(total));
    for row in rows {
        out.push_str(&line(row));
    }
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.985), "98.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &row(&["a", "beta"]),
            &[row(&["1", "2"]), row(&["100", "x"])],
        );
    }

    #[test]
    fn multi_byte_cells_pad_by_chars() {
        // `κ` and `—` take two and three bytes but one column each.
        let header = row(&["variant", "l0"]);
        let text = render_table(
            "demo",
            &header,
            &[
                row(&["κ=0 (paper-literal hinge)", "12"]),
                row(&["full", "—"]),
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[..2], ["", "=== demo ==="]);
        let width = "κ=0 (paper-literal hinge)".chars().count() + 2 + "l0".len();
        for line in [lines[2]].iter().chain(&lines[4..]) {
            assert_eq!(line.chars().count(), width, "{line:?}");
        }
        assert_eq!(lines[3], "-".repeat(width + 2));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn print_table_validates_width() {
        print_table("demo", &row(&["a"]), &[row(&["1", "2"])]);
    }
}
