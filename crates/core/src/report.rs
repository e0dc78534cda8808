//! Result containers and paper-style table rendering.

/// One labelled curve: `(x, y)` points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (matches the paper's legends).
    pub label: String,
    /// Sample points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Y value at a given x (exact match), if sampled.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }
}

/// One reproduced figure: several series over a common x axis.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier, e.g. "fig1-latency".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// Y-axis label.
    pub ylabel: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// New empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        xlabel: impl Into<String>,
        ylabel: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series: Vec::new(),
        }
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as an aligned text table (x down the rows, one column per
    /// series) — the shape the paper's figures plot.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = write!(out, "{:>12}", self.xlabel);
        for s in &self.series {
            let _ = write!(out, " {:>14}", s.label);
        }
        let _ = writeln!(out, "    [{}]", self.ylabel);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| *x).collect())
            .unwrap_or_default();
        for x in xs {
            let _ = write!(out, "{:>12}", format_x(x));
            for s in &self.series {
                match s.at(x) {
                    Some(y) => {
                        let _ = write!(out, " {y:>14.3}");
                    }
                    None => {
                        let _ = write!(out, " {:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// JSON dump for machine consumption (EXPERIMENTS.md regeneration).
    ///
    /// Hand-rolled (the workspace builds offline, without serde): 2-space
    /// pretty printing, `": "` separators, points as `[x, y]` pairs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"id\": {},", json_str(&self.id));
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(out, "  \"xlabel\": {},", json_str(&self.xlabel));
        let _ = writeln!(out, "  \"ylabel\": {},", json_str(&self.ylabel));
        if self.series.is_empty() {
            out.push_str("  \"series\": []\n");
        } else {
            out.push_str("  \"series\": [\n");
            for (si, s) in self.series.iter().enumerate() {
                out.push_str("    {\n");
                let _ = writeln!(out, "      \"label\": {},", json_str(&s.label));
                if s.points.is_empty() {
                    out.push_str("      \"points\": []\n");
                } else {
                    out.push_str("      \"points\": [\n");
                    for (pi, (x, y)) in s.points.iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "        [{}, {}]{}",
                            json_num(*x),
                            json_num(*y),
                            if pi + 1 == s.points.len() { "" } else { "," },
                        );
                    }
                    out.push_str("      ]\n");
                }
                let _ = writeln!(
                    out,
                    "    }}{}",
                    if si + 1 == self.series.len() { "" } else { "," },
                );
            }
            out.push_str("  ]\n");
        }
        out.push('}');
        out
    }
}

/// Escape and quote a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an f64 as a JSON number. Rust's shortest round-trip formatting is
/// already valid JSON for finite values; non-finite values (which no figure
/// should produce) degrade to null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn format_x(x: f64) -> String {
    let v = x as u64;
    if x.fract() != 0.0 {
        return format!("{x:.2}");
    }
    if v >= 1 << 20 && v.is_multiple_of(1 << 20) {
        format!("{}M", v >> 20)
    } else if v >= 1024 && v.is_multiple_of(1024) {
        format!("{}K", v >> 10)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup() {
        let mut s = Series::new("iWARP");
        s.push(1.0, 9.78);
        s.push(2.0, 10.1);
        assert_eq!(s.at(1.0), Some(9.78));
        assert_eq!(s.at(3.0), None);
    }

    #[test]
    fn table_renders_all_series_columns() {
        let mut fig = Figure::new("figX", "demo", "bytes", "us");
        let mut a = Series::new("A");
        a.push(1024.0, 1.5);
        let mut b = Series::new("B");
        b.push(1024.0, 2.5);
        fig.series.push(a);
        fig.series.push(b);
        let t = fig.to_table();
        assert!(t.contains("1K"));
        assert!(t.contains("1.500"));
        assert!(t.contains("2.500"));
        assert!(t.contains('A') && t.contains('B'));
    }

    #[test]
    fn x_formatting_uses_binary_units() {
        assert_eq!(format_x(4194304.0), "4M");
        assert_eq!(format_x(2048.0), "2K");
        assert_eq!(format_x(17.0), "17");
    }

    #[test]
    fn json_roundtrip_is_valid() {
        let fig = Figure::new("f", "t", "x", "y");
        let j = fig.to_json();
        assert!(j.contains("\"id\": \"f\""));
    }
}

/// ASCII chart grid width in characters.
const CHART_WIDTH: usize = 64;
/// ASCII chart grid height in rows.
const CHART_HEIGHT: usize = 16;

impl Figure {
    /// Render the figure as an ASCII line chart — the closest a terminal
    /// gets to the paper's plots. One plotting symbol per series. An axis
    /// is log-scaled when every value on it is positive (the paper's
    /// message-size and bandwidth sweeps) and linear otherwise, so a zero
    /// (fig-loss's 0 ppm baseline) is drawn, never dropped.
    pub fn to_ascii_chart(&self) -> String {
        use std::fmt::Write;
        const SYMBOLS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        if pts.is_empty() {
            let _ = writeln!(out, "(no data)");
            return out;
        }
        let log_x = pts.iter().all(|&(x, _)| x > 0.0);
        let log_y = pts.iter().all(|&(_, y)| y > 0.0);
        let tx = |x: f64| if log_x { x.log2() } else { x };
        let ty = |y: f64| if log_y { y.log2() } else { y };
        let (mut x0, mut x1) = (f64::MAX, f64::MIN);
        let (mut y0, mut y1) = (f64::MAX, f64::MIN);
        for &(x, y) in &pts {
            x0 = x0.min(tx(x));
            x1 = x1.max(tx(x));
            y0 = y0.min(ty(y));
            y1 = y1.max(ty(y));
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        let mut grid = vec![vec![' '; CHART_WIDTH]; CHART_HEIGHT];
        for (si, s) in self.series.iter().enumerate() {
            let sym = SYMBOLS[si % SYMBOLS.len()];
            for &(x, y) in &s.points {
                let cx = ((tx(x) - x0) / (x1 - x0) * (CHART_WIDTH - 1) as f64).round() as usize;
                let cy = ((ty(y) - y0) / (y1 - y0) * (CHART_HEIGHT - 1) as f64).round() as usize;
                let row = CHART_HEIGHT - 1 - cy.min(CHART_HEIGHT - 1);
                grid[row][cx.min(CHART_WIDTH - 1)] = sym;
            }
        }
        let ymax_label = format!("{:.3}", y1.exp2_if(log_y));
        let ymin_label = format!("{:.3}", y0.exp2_if(log_y));
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{ymax_label:>10} ")
            } else if i == CHART_HEIGHT - 1 {
                format!("{ymin_label:>10} ")
            } else {
                " ".repeat(11)
            };
            let _ = writeln!(out, "{label}|{}", row.iter().collect::<String>());
        }
        let _ = writeln!(out, "{} +{}", " ".repeat(10), "-".repeat(CHART_WIDTH));
        let _ = writeln!(
            out,
            "{}{}  ..  {}   [{} vs {}]",
            " ".repeat(12),
            format_x(x0.exp2_if(log_x)),
            format_x(x1.exp2_if(log_x)),
            self.ylabel,
            self.xlabel
        );
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "{}{} = {}", " ".repeat(12), SYMBOLS[si % 8], s.label);
        }
        out
    }
}

trait Exp2If {
    fn exp2_if(self, cond: bool) -> f64;
}

impl Exp2If for f64 {
    fn exp2_if(self, cond: bool) -> f64 {
        if cond {
            self.exp2()
        } else {
            self
        }
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    fn demo_figure() -> Figure {
        let mut fig = Figure::new("demo", "latency", "bytes", "us");
        let mut a = Series::new("fabric-a");
        let mut b = Series::new("fabric-b");
        for i in 0..10 {
            let x = (1u64 << i) as f64;
            a.push(x, 10.0 + x / 1000.0);
            b.push(x, 4.0 + x / 900.0);
        }
        fig.series.push(a);
        fig.series.push(b);
        fig
    }

    #[test]
    fn chart_contains_both_series_symbols_and_legend() {
        let c = demo_figure().to_ascii_chart();
        assert!(c.contains('*') && c.contains('o'));
        assert!(c.contains("fabric-a") && c.contains("fabric-b"));
        assert!(c.contains("demo — latency"));
    }

    #[test]
    fn chart_handles_empty_figure() {
        let fig = Figure::new("empty", "t", "x", "y");
        let c = fig.to_ascii_chart();
        assert!(c.contains("(no data)"));
    }

    #[test]
    fn chart_handles_single_point_without_division_by_zero() {
        let mut fig = Figure::new("one", "t", "x", "y");
        let mut s = Series::new("s");
        s.push(1024.0, 5.0);
        fig.series.push(s);
        let c = fig.to_ascii_chart();
        assert!(c.contains('*'));
    }

    #[test]
    fn linear_scale_renders_zero_values() {
        // fig-loss's shape: a 0 ppm baseline on the x axis. The x axis
        // turns linear so the point is drawn in the first column; the y
        // axis, all positive, stays log-scaled.
        let mut fig = Figure::new("lin", "t", "x", "y");
        let mut s = Series::new("s");
        s.push(0.0, 2.0);
        s.push(100.0, 4.0);
        s.push(10_240.0, 8.0);
        fig.series.push(s);
        let c = fig.to_ascii_chart();
        let rows: Vec<&str> = c
            .lines()
            .filter_map(|l| l.split_once('|').map(|(_, grid)| grid))
            .collect();
        assert_eq!(rows.len(), CHART_HEIGHT, "{c}");
        assert!(rows[CHART_HEIGHT - 1].starts_with('*'), "{c}");
        let drawn: usize = rows.iter().map(|r| r.matches('*').count()).sum();
        assert_eq!(drawn, 3, "{c}");
        assert!(c.contains("0  ..  10K"), "{c}");
        assert!(c.contains("     2.000 |"), "{c}");
    }
}
