//! The paper's evaluation, regenerated.
//!
//! Every module of [`figures`] regenerates one table or figure of the
//! paper's evaluation (or an ablation) as a function returning its
//! [`Experiment`]s: the rows/series the paper reports, plus any
//! reproduction gate that failed. The `figures` binary runs them by id,
//! prints each one and writes a machine-readable copy to
//! `target/experiments/<id>.json` that EXPERIMENTS.md references:
//!
//! ```text
//! cargo run --release -p ras-bench --bin figures -- [--smoke] <id>…|all
//! ```

pub mod figures;
pub mod instance;

use std::fs;
use std::path::PathBuf;

/// One experiment's output: an id, a headline, and tabular rows.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Figure/table id, e.g. `"fig07"`.
    pub id: String,
    /// What the paper's figure shows.
    pub title: String,
    /// Claim from the paper this experiment checks, in one line.
    pub paper_claim: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows (stringified values, column-aligned).
    pub rows: Vec<Vec<String>>,
    /// Free-form findings ("measured: ...").
    pub notes: Vec<String>,
    /// Reproduction gates that failed; the experiment passed when empty.
    pub failures: Vec<String>,
}

/// How large a figure's workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The shape EXPERIMENTS.md records.
    Full,
    /// The smallest shape that still runs the figure's code paths.
    Smoke,
}

impl Shape {
    /// `full` at [`Shape::Full`], `smoke` at [`Shape::Smoke`].
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Shape::Full => full,
            Shape::Smoke => smoke,
        }
    }
}

impl Experiment {
    /// Creates an experiment shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        paper_claim: impl Into<String>,
        columns: &[&str],
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            paper_claim: paper_claim.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Adds one row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Records a failed reproduction gate.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Prints the experiment as an aligned table and writes the JSON copy;
    /// failed gates go to stderr.
    pub fn finish(&self) {
        println!("== {} — {} ==", self.id, self.title);
        println!("paper: {}", self.paper_claim);
        let lines = || std::iter::once(&self.columns).chain(&self.rows);
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| lines().map(|r| r[i].len()).max().unwrap_or(0))
            .collect();
        for line in lines() {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", cells.join("  "));
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for f in &self.failures {
            eprintln!("{}: {f}", self.id);
        }
        let dir = output_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.json", self.id));
        if let Err(e) = fs::write(&path, self.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("written: {}", path.display());
        }
        println!();
    }

    /// The experiment as one 2-space-indented JSON object, fields in
    /// declaration order.
    pub fn to_json(&self) -> String {
        let fields: [(&str, &dyn Json); 7] = [
            ("id", &self.id),
            ("title", &self.title),
            ("paper_claim", &self.paper_claim),
            ("columns", &self.columns),
            ("rows", &self.rows),
            ("notes", &self.notes),
            ("failures", &self.failures),
        ];
        let mut out = String::from("{");
        for (i, (key, value)) in fields.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(1, &mut out);
            push_json_str(key, &mut out);
            out.push_str(": ");
            value.write(1, &mut out);
        }
        newline(0, &mut out);
        out.push('}');
        out
    }
}

/// A value [`Experiment::to_json`] writes: a string or an array.
trait Json {
    /// Appends `self` to `out`, nested `depth` levels deep.
    fn write(&self, depth: usize, out: &mut String);
}

impl Json for String {
    fn write(&self, _depth: usize, out: &mut String) {
        push_json_str(self, out);
    }
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, depth: usize, out: &mut String) {
        if self.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(depth + 1, out);
            item.write(depth + 1, out);
        }
        newline(depth, out);
        out.push(']');
    }
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
fn push_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Starts a new line indented for nesting level `depth`.
fn newline(depth: usize, out: &mut String) {
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
}

/// Where experiment JSON lands (`target/experiments` by default,
/// overridable with `RAS_EXPERIMENT_DIR`).
pub fn output_dir() -> PathBuf {
    std::env::var("RAS_EXPERIMENT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"))
}

/// Percentile of a sorted slice (nearest-rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn experiment_rows_validate_columns() {
        let mut e = Experiment::new("t", "t", "t", &["a", "b"]);
        e.row(&["1".into(), "2".into()]);
        assert_eq!(e.rows.len(), 1);
    }

    #[test]
    fn to_json_escapes_strings_and_writes_empty_arrays() {
        let e = Experiment::new(
            "fix",
            "say \"hi\" to C:\\ras",
            "line one\nline two\u{1}\tend",
            &["cost ≈ 1", "a — b"],
        );
        // What the JSON pretty printer this writer replaced wrote for it.
        let expected = r#"{
  "id": "fix",
  "title": "say \"hi\" to C:\\ras",
  "paper_claim": "line one\nline two\u0001\tend",
  "columns": [
    "cost ≈ 1",
    "a — b"
  ],
  "rows": [],
  "notes": [],
  "failures": []
}"#;
        assert_eq!(e.to_json(), expected);
    }

    #[test]
    fn to_json_indents_nested_rows() {
        let mut e = Experiment::new("rows", "t", "p", &["a", "b"]);
        e.row(&["1".into(), "2".into()]);
        e.row(&["3".into(), "4".into()]);
        e.note("n");
        e.fail("f");
        // What the JSON pretty printer this writer replaced wrote for it.
        let expected = r#"{
  "id": "rows",
  "title": "t",
  "paper_claim": "p",
  "columns": [
    "a",
    "b"
  ],
  "rows": [
    [
      "1",
      "2"
    ],
    [
      "3",
      "4"
    ]
  ],
  "notes": [
    "n"
  ],
  "failures": [
    "f"
  ]
}"#;
        assert_eq!(e.to_json(), expected);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut e = Experiment::new("t", "t", "t", &["a", "b"]);
        e.row(&["1".into()]);
    }
}
