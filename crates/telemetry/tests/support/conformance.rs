//! The one Prometheus text-format conformance checker (test support).
//!
//! Not a test target of its own: the telemetry unit tests and the server
//! crate's unit and integration tests include this file with `#[path]`,
//! so every `/metrics` assertion in the workspace reads a page through
//! the same parser. [`check_page`] takes a *whole* body and panics on the
//! first violation:
//!
//! - every family has exactly one `# HELP` (with text) immediately
//!   followed by its `# TYPE`, and no family name occurs twice;
//! - every sample belongs to the family announced last, so a family's
//!   samples are contiguous;
//! - label blocks parse completely and label values carry only the
//!   escapes the format allows (`\\`, `\"`, `\n`);
//! - a sample's value is one number and ends the line;
//! - per label set, histogram buckets are cumulative, every `le` parses
//!   as a float (an integer on `*_nanos` families), `+Inf` comes last
//!   and equals `_count`, and `_sum` is present.

#![allow(dead_code)] // each includer uses its own subset

use std::collections::{BTreeMap, BTreeSet};

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name as written (`family`, or `family_bucket|_sum|_count`).
    pub name: String,
    /// Label pairs in page order, values un-escaped.
    pub labels: Vec<(String, String)>,
    /// The sample value as written.
    pub value: String,
}

impl Sample {
    /// `name{labels}` with the `le` label dropped and no value: which
    /// buckets a timed histogram emits depends on the run, the series it
    /// belongs to does not.
    pub fn identity(&self) -> String {
        format!("{}{}", self.name, self.label_set())
    }

    /// `{k="v",…}` without `le`; empty for an unlabelled sample.
    fn label_set(&self) -> String {
        let labels: Vec<String> = self
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        if labels.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", labels.join(","))
        }
    }

    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The sorted, de-duplicated series identities of a checked page.
pub fn series_identities(samples: &[Sample]) -> Vec<String> {
    let set: BTreeSet<String> = samples.iter().map(Sample::identity).collect();
    set.into_iter().collect()
}

/// Parses `{k="v",…}` at the start of `rest`; returns the pairs and what
/// follows the closing brace.
fn parse_labels<'a>(rest: &'a str, line: &str) -> (Vec<(String, String)>, &'a str) {
    let mut labels = Vec::new();
    let mut s = rest.strip_prefix('{').expect("caller saw the brace");
    loop {
        if let Some(after) = s.strip_prefix('}') {
            return (labels, after);
        }
        let (key, after_key) = s
            .split_once("=\"")
            .unwrap_or_else(|| panic!("label without =\" in: {line}"));
        assert!(
            !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad label name {key:?} in: {line}"
        );
        let mut value = String::new();
        let mut chars = after_key.char_indices();
        let end = loop {
            let (i, c) = chars
                .next()
                .unwrap_or_else(|| panic!("unterminated label value in: {line}"));
            match c {
                '"' => break i,
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => panic!("illegal escape {other:?} in label value: {line}"),
                },
                c => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        s = &after_key[end + 1..];
        s = s.strip_prefix(',').unwrap_or(s);
    }
}

fn parse_sample(line: &str) -> Sample {
    let name_end = line
        .find(['{', ' '])
        .unwrap_or_else(|| panic!("sample without a value: {line}"));
    let (name, rest) = line.split_at(name_end);
    let (labels, rest) = if rest.starts_with('{') {
        parse_labels(rest, line)
    } else {
        (Vec::new(), rest)
    };
    let rest = rest
        .strip_prefix(' ')
        .unwrap_or_else(|| panic!("no space before the value: {line}"));
    rest.parse::<f64>()
        .unwrap_or_else(|_| panic!("value {rest:?} is not a number: {line}"));
    Sample {
        name: name.to_string(),
        labels,
        value: rest.to_string(),
    }
}

/// Checks one histogram family's samples, label set by label set.
fn check_histogram(family: &str, samples: &[Sample]) {
    // Label set (minus `le`) → (bucket (le, cumulative) pairs, sum seen, count).
    type Series = (Vec<(String, u64)>, bool, Option<u64>);
    let mut by_labels: BTreeMap<String, Series> = BTreeMap::new();
    for s in samples {
        let suffix = &s.name[family.len()..];
        let entry = by_labels
            .entry(format!("{family}{}", s.label_set()))
            .or_default();
        match suffix {
            "_bucket" => {
                let le = s
                    .label("le")
                    .unwrap_or_else(|| panic!("{family}: bucket without le"));
                assert_eq!(
                    s.labels.last().map(|(k, _)| k.as_str()),
                    Some("le"),
                    "{family}: le must be the last label"
                );
                let cum: u64 = s.value.parse().expect("bucket counts are integers");
                entry.0.push((le.to_string(), cum));
            }
            "_sum" => entry.1 = true,
            "_count" => entry.2 = Some(s.value.parse().expect("_count is an integer")),
            other => panic!("{family}: histogram sample with suffix {other:?}"),
        }
    }
    for (labels, (buckets, sum_seen, count)) in by_labels {
        let (last, finite) = buckets
            .split_last()
            .unwrap_or_else(|| panic!("{labels}: histogram without buckets"));
        assert_eq!(last.0, "+Inf", "{labels}: the last bucket must be +Inf");
        let mut prev_cum = 0u64;
        let mut prev_le = f64::NEG_INFINITY;
        for (le, cum) in finite {
            let bound: f64 = le
                .parse()
                .unwrap_or_else(|_| panic!("{labels}: le {le:?} is not a float"));
            assert!(bound.is_finite(), "{labels}: +Inf must be last, saw {le}");
            if family.ends_with("_nanos") {
                le.parse::<u64>()
                    .unwrap_or_else(|_| panic!("{labels}: nanos le {le:?} is not an integer"));
            }
            assert!(bound > prev_le, "{labels}: le {le} out of order");
            assert!(*cum >= prev_cum, "{labels}: buckets must be cumulative");
            prev_le = bound;
            prev_cum = *cum;
        }
        assert!(last.1 >= prev_cum, "{labels}: +Inf below a finite bucket");
        assert!(sum_seen, "{labels}: missing _sum");
        assert_eq!(count, Some(last.1), "{labels}: +Inf must equal _count");
    }
}

/// Checks `body` as one exposition document (see the module docs) and
/// returns its samples in page order.
pub fn check_page(body: &str) -> Vec<Sample> {
    let lines: Vec<&str> = body.lines().collect();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    // (family, type, index of its first sample in `samples`)
    let mut current: Option<(&str, &str, usize)> = None;
    let mut samples: Vec<Sample> = Vec::new();
    let close = |current: Option<(&str, &str, usize)>, samples: &[Sample]| {
        if let Some((family, "histogram", first)) = current {
            check_histogram(family, &samples[first..]);
        }
    };
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        i += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, text) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("HELP must carry text: {line}"));
            assert!(!text.trim().is_empty(), "HELP must carry text: {line}");
            assert!(seen.insert(family), "family {family} occurs twice");
            let next = lines.get(i).copied().unwrap_or("");
            let kind = next
                .strip_prefix(&format!("# TYPE {family} "))
                .unwrap_or_else(|| panic!("HELP for {family} not followed by its TYPE: {next}"));
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown type: {next}"
            );
            i += 1;
            close(current, &samples);
            current = Some((family, kind, samples.len()));
        } else if line.starts_with('#') {
            panic!("comment outside a HELP/TYPE pair: {line}");
        } else {
            let sample = parse_sample(line);
            let (family, kind, _) = current.unwrap_or_else(|| panic!("sample before any TYPE"));
            let in_family = match kind {
                "histogram" => sample
                    .name
                    .strip_prefix(family)
                    .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count")),
                _ => sample.name == family,
            };
            assert!(
                in_family,
                "series {} outside family {family} ({kind})",
                sample.name
            );
            samples.push(sample);
        }
    }
    close(current, &samples);
    samples
}
