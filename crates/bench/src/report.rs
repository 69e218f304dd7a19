//! Plain-text table printing for the `paper` bin.

/// Prints a titled table: header row then data rows, columns padded to the
/// widest cell.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch in table '{title}'");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(header);
    let total: usize = widths.iter().sum::<usize>() + 2 * cols;
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
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
    #[should_panic(expected = "row width mismatch")]
    fn print_table_validates_width() {
        print_table("demo", &row(&["a"]), &[row(&["1", "2"])]);
    }
}
