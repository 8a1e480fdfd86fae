//! The tables `exp` prints: a view over recorded rows, so a number is
//! formatted here and nowhere else, and a committed `results/<id>.json`
//! prints exactly like a fresh run.
//!
//! An [`Experiment`] says which fields label a row and which split the rows
//! into tables; the dataset always splits (unless it labels rows), and every
//! remaining field — system, metric, the other parameters — names a column,
//! by the parts that differ within the table. What does not differ goes
//! into the table's title.

use crate::experiments::Experiment;
use crate::Measurement;
use dita_obs::json::Value;

/// A measurement as the view reads it: every field as `(name, printed
/// value)` — the dataset, the parameters in stored order, the system, the
/// metric — and the value.
struct Row<'a> {
    fields: Vec<(&'a str, String)>,
    value: f64,
}

impl<'a> Row<'a> {
    fn new(m: &'a Measurement) -> Row<'a> {
        let mut fields = vec![("dataset", m.dataset.clone())];
        if let Value::Obj(params) = &m.params {
            fields.extend(params.iter().map(|(k, v)| {
                let printed = match v {
                    Value::Str(s) => s.clone(),
                    Value::Num(n) => n.to_string(),
                    other => other.pretty(),
                };
                (k.as_str(), printed)
            }));
        }
        fields.push(("system", m.system.clone()));
        fields.push(("metric", m.metric.clone()));
        Row {
            fields,
            value: m.value,
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        let (_, v) = self.fields.iter().find(|(k, _)| *k == name)?;
        Some(v)
    }

    /// The named fields this row has, as title or column-label parts: a
    /// `system`, `metric` or `dataset` value speaks for itself, a parameter
    /// needs its name.
    fn parts(&self, names: &[&str]) -> Vec<String> {
        let part = |name: &&str| match *name {
            "system" | "metric" | "dataset" => Some(self.get(name)?.to_string()),
            _ => Some(format!("{name}={}", self.get(name)?)),
        };
        names.iter().filter_map(part).collect()
    }
}

/// One value as a table cell: counts whole, small values to three decimals,
/// the rest to one.
fn cell(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() < 10.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.1}")
    }
}

/// `items` without repeats, in order of first appearance.
fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// Renders `rows` (one experiment's) as column-aligned tables, in order of
/// first appearance.
pub fn render(rows: &[Measurement], layout: &Experiment) -> String {
    let rows: Vec<Row> = rows.iter().map(Row::new).collect();
    let splitting: Vec<&str> = std::iter::once("dataset")
        .chain(layout.tables.iter().copied())
        .filter(|name| !layout.rows.contains(name))
        .collect();
    let mut out = String::new();
    for key in distinct(rows.iter().map(|r| r.parts(&splitting))) {
        let members: Vec<&Row> = rows.iter().filter(|r| r.parts(&splitting) == key).collect();
        table(&mut out, layout, &splitting, key, &members);
    }
    out
}

fn table(
    out: &mut String,
    layout: &Experiment,
    splitting: &[&str],
    key: Vec<String>,
    members: &[&Row],
) {
    // Column fields: neither row labels nor table keys. One that takes a
    // single value over the whole table moves to the title.
    let names = distinct(
        members
            .iter()
            .flat_map(|r| r.fields.iter().map(|(k, _)| *k)),
    );
    let (varying, constant): (Vec<&str>, Vec<&str>) = names
        .into_iter()
        .filter(|name| !layout.rows.contains(name) && !splitting.contains(name))
        .partition(|name| members.iter().any(|r| r.get(name) != members[0].get(name)));
    let title = [key, members[0].parts(&constant)].concat().join(" ");
    out.push_str(&format!("\n=== {}: {title} ===\n", layout.name));

    let labels_some = |name: &&&str| members.iter().any(|r| r.get(name).is_some());
    let row_fields: Vec<&str> = layout.rows.iter().filter(labels_some).copied().collect();
    let label_of = |r: &Row| -> Vec<String> {
        let value = |name: &&str| r.get(name).unwrap_or("-").to_string();
        row_fields.iter().map(value).collect()
    };
    let column_of = |r: &Row| match r.parts(&varying) {
        parts if parts.is_empty() => r.get("metric").unwrap_or("-").to_string(),
        parts => parts.join(" "),
    };
    let columns = distinct(members.iter().map(|r| column_of(r)));
    let header: Vec<String> = row_fields
        .iter()
        .map(|s| s.to_string())
        .chain(columns.clone())
        .collect();
    let mut lines = vec![header];
    for label in distinct(members.iter().map(|r| label_of(r))) {
        let cells = columns.iter().map(|column| {
            let at = members
                .iter()
                .find(|r| label_of(r) == label && column_of(r) == *column);
            at.map_or("-".to_string(), |r| cell(r.value))
        });
        lines.push(label.iter().cloned().chain(cells).collect());
    }

    let widths: Vec<usize> = (0..lines[0].len())
        .map(|x| {
            lines
                .iter()
                .map(|line| line[x].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    lines.insert(1, widths.iter().map(|w| "-".repeat(*w)).collect());
    for line in &lines {
        let padded: Vec<String> = widths
            .iter()
            .zip(line)
            .map(|(w, c)| format!("{c:>w$}"))
            .collect();
        out.push_str(padded.join("  ").trim_end());
        out.push('\n');
    }
}
