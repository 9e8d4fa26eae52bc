//! # imc-bench
//!
//! The paper harness: one binary per table/figure of the paper (see
//! `src/bin/`), the `loadgen` bit-exact smoke client, the
//! fault-injecting proxy the chaos tests drive, the `/traces` stitching
//! behind `imc-trace`, and shared output helpers. Performance is
//! measured by the separate `perfbench` package at the repository root.

#![deny(missing_docs)]

pub mod chaos;
pub mod trace_view;

use std::fmt::Write as _;

/// Renders `(x, y)` series as an aligned two-column table with a header.
#[must_use]
pub fn series_table(title: &str, x_label: &str, y_label: &str, series: &[(f64, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let _ = writeln!(s, "{x_label:>14} {y_label:>16}");
    for (x, y) in series {
        let _ = writeln!(s, "{x:>14.6} {y:>16.6e}");
    }
    s
}

/// Renders a histogram as an ASCII bar chart.
#[must_use]
pub fn ascii_histogram(title: &str, h: &fefet_device::variation::Histogram, unit: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {title} (out of range: {})", h.out_of_range());
    let max = h.counts().iter().copied().max().unwrap_or(1).max(1);
    for (i, &c) in h.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = "#".repeat((c * 50 / max).max(1) as usize);
        let _ = writeln!(s, "{:>12.4e} {unit} | {bar} {c}", h.bin_center(i));
    }
    s
}

/// Compares a measured value with the paper's reported one.
#[must_use]
pub fn compare_row(label: &str, measured: f64, paper: f64) -> String {
    let ratio = measured / paper;
    format!("{label:<38} measured {measured:>9.3}   paper {paper:>9.3}   ratio {ratio:>5.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_table_renders() {
        let t = series_table("Fig X", "v", "i", &[(0.0, 1e-9), (1.0, 2e-6)]);
        assert!(t.contains("Fig X"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn compare_row_shows_ratio() {
        let r = compare_row("CurFe", 12.0, 12.18);
        assert!(r.contains("0.99"));
    }

    #[test]
    fn ascii_histogram_renders_bars() {
        let mut h = fefet_device::variation::Histogram::new(0.0, 1.0, 4);
        h.add(0.1);
        h.add(0.12);
        h.add(0.9);
        let s = ascii_histogram("test", &h, "A");
        assert!(s.contains('#'));
    }
}
